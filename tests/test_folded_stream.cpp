// Streaming trace pipeline + periodic folding (trace/stream.h,
// trace/period.h, simcore/stream_stack.h, simcore/folded_curve.h): the
// streaming and folded engines must be byte-identical to the materialized
// reference path on every workload shape, and the period detector must
// prove exactly the shift-periodicity the folding relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "explorer/explorer.h"
#include "kernels/motion_estimation.h"
#include "loopir/permute.h"
#include "simcore/buffer_sim.h"
#include "simcore/folded_curve.h"
#include "simcore/lru_stack.h"
#include "simcore/opt_stack.h"
#include "simcore/reuse_curve.h"
#include "simcore/stream_stack.h"
#include "support/rng.h"
#include "trace/period.h"
#include "trace/stream.h"
#include "trace/walker.h"

#include "helpers.h"

namespace {

using dr::support::i64;
using dr::support::Rng;
using dr::trace::AccessEvent;
using dr::trace::AddressMap;
using dr::trace::Trace;
using dr::trace::TraceCursor;
using dr::trace::TraceFilter;
using dr::loopir::ArrayAccess;
using dr::loopir::Program;

TraceFilter readsOf(int signal) {
  TraceFilter f;
  f.signal = signal;
  return f;
}

/// Concatenate every chunk of a cursor.
std::vector<i64> drainCursor(TraceCursor& cursor, i64 chunkEvents) {
  std::vector<i64> all, buf;
  while (cursor.nextChunk(buf, chunkEvents) > 0)
    all.insert(all.end(), buf.begin(), buf.end());
  return all;
}

/// Two generic double loops reading the same signal A — the SUSAN shape
/// (series of nests), which has no global period.
Program twoNestProgram() {
  auto p = dr::test::genericDoubleLoop({0, 7, 0, 5}, 1, 1, 0);
  auto q = dr::test::genericDoubleLoop({0, 5, 0, 7}, 2, 1, 0);
  p.nests.push_back(q.nests.front());
  p.signals[0].dims = {40};  // covers both nests' index ranges
  return p;
}

// ---------------------------------------------------------------------------
// TraceCursor vs materialized walker

TEST(TraceCursor, ChunksConcatenateToMaterializedTrace) {
  auto p = dr::test::genericDoubleLoop({0, 11, 0, 4}, 2, 1, 0);
  AddressMap map(p);
  const TraceFilter filter = readsOf(0);
  const Trace t = dr::trace::collectTrace(p, map, filter);
  for (i64 chunkEvents : {i64{1}, i64{7}, i64{64}, i64{1} << 16}) {
    TraceCursor cursor(p, map, filter);
    EXPECT_EQ(cursor.length(), t.length());
    EXPECT_EQ(drainCursor(cursor, chunkEvents), t.addresses);
    EXPECT_TRUE(cursor.done());
    EXPECT_EQ(cursor.position(), t.length());

    // reset() replays the identical stream.
    cursor.reset();
    EXPECT_EQ(drainCursor(cursor, chunkEvents), t.addresses);
  }
}

TEST(TraceCursor, MultiNestStreamsAndNestFilters) {
  const Program p = twoNestProgram();
  AddressMap map(p);
  TraceFilter one = readsOf(0);
  one.nest = 1;
  one.accessIndex = 0;
  for (const TraceFilter& filter : {readsOf(0), one}) {
    const Trace t = dr::trace::collectTrace(p, map, filter);
    ASSERT_GT(t.length(), 0);
    TraceCursor cursor(p, map, filter);
    EXPECT_EQ(drainCursor(cursor, 13), t.addresses);
  }
}

TEST(TraceCursor, EmptyStream) {
  auto p = dr::test::genericDoubleLoop({0, 3, 0, 3}, 1, 1, 0);
  AddressMap map(p);
  TraceFilter writes;  // the generic loop has no writes
  writes.signal = 0;
  writes.includeReads = false;
  writes.includeWrites = true;
  TraceCursor cursor(p, map, writes);
  EXPECT_EQ(cursor.length(), 0);
  EXPECT_TRUE(cursor.done());
  std::vector<i64> buf;
  EXPECT_EQ(cursor.nextChunk(buf), 0);
  const auto [lo, hi] = cursor.addressRange();
  EXPECT_GT(lo, hi);
}

TEST(TemplatedWalk, MatchesStdFunctionWalk) {
  auto p = dr::test::tripleLoopWithIntermediate({0, 6, 0, 4}, 2, 1, 1, true);
  AddressMap map(p);
  const TraceFilter filter = readsOf(0);

  std::vector<i64> viaTemplate;
  dr::trace::walk(p, map, filter, [&](const AccessEvent& ev) {
    viaTemplate.push_back(ev.address);  // lambda binds the template overload
  });

  std::vector<i64> viaFunction;
  const std::function<void(const AccessEvent&)> cb =
      [&](const AccessEvent& ev) { viaFunction.push_back(ev.address); };
  dr::trace::walk(p, map, filter, cb);

  EXPECT_EQ(viaTemplate, viaFunction);
  EXPECT_EQ(viaTemplate, dr::trace::collectTrace(p, map, filter).addresses);
}

// ---------------------------------------------------------------------------
// Period detection

TEST(DetectPeriod, MotionEstimationOldAccess) {
  dr::kernels::MotionEstimationParams mp;
  mp.H = 32;
  mp.W = 48;
  mp.n = 8;
  mp.m = 2;
  const auto p = dr::kernels::motionEstimation(mp);
  AddressMap map(p);
  TraceFilter filter;
  filter.signal = p.findSignal("Old");
  filter.nest = 0;
  filter.accessIndex = dr::kernels::oldAccessIndex();

  const auto nests = dr::trace::lowerProgram(p, map, filter);
  ASSERT_EQ(nests.size(), 1u);
  const auto pd = dr::trace::detectPeriod(nests);
  ASSERT_TRUE(pd.found);
  EXPECT_EQ(pd.level, 0);
  // One block row per chunk: (W/n) * (2m)^2 * n^2 events.
  EXPECT_EQ(pd.period, (mp.W / mp.n) * (2 * mp.m) * (2 * mp.m) * mp.n * mp.n);
  EXPECT_EQ(pd.repeatCount, mp.H / mp.n);
  // The shift is the lowered i1 coefficient (n rows of the padded frame) —
  // derived, not hardcoded, so the AddressMap's padding stays free.
  EXPECT_EQ(pd.shift, nests.front().accesses.front().levelCoeff.front());
  EXPECT_GE(pd.maxLateWarmGap, 1);
  EXPECT_EQ(pd.warmup, (1 + pd.maxLateWarmGap) * pd.period);
  EXPECT_EQ(pd.totalEvents, pd.period * pd.repeatCount);
}

TEST(DetectPeriod, MismatchedCoefficientsFindNothing) {
  // A[j + k] and A[2j + k] in one nest: no level has one common shift.
  auto p = dr::test::genericDoubleLoop({0, 9, 0, 9}, 1, 1, 0);
  ArrayAccess second = p.nests[0].body[0];
  second.indices[0].setCoeff(0, 2);
  p.nests[0].body.push_back(second);
  p.signals[0].dims = {64};
  AddressMap map(p);
  const auto pd =
      dr::trace::detectPeriod(dr::trace::lowerProgram(p, map, readsOf(0)));
  EXPECT_FALSE(pd.found);
}

TEST(DetectPeriod, MultiNestStreamsFindNothing) {
  const Program p = twoNestProgram();
  AddressMap map(p);
  const auto pd =
      dr::trace::detectPeriod(dr::trace::lowerProgram(p, map, readsOf(0)));
  EXPECT_FALSE(pd.found);
}

TEST(DetectPeriod, TripOneOuterLevelsAreSkipped) {
  // j has trip 1: the shift anchor must skip it, and the deepest valid
  // level is the innermost loop itself.
  auto p = dr::test::genericDoubleLoop({0, 0, 0, 9}, 1, 1, 0);
  AddressMap map(p);
  const auto pd =
      dr::trace::detectPeriod(dr::trace::lowerProgram(p, map, readsOf(0)));
  ASSERT_TRUE(pd.found);
  EXPECT_EQ(pd.level, 1);
  EXPECT_EQ(pd.period, 1);
  EXPECT_EQ(pd.repeatCount, 10);
  EXPECT_EQ(pd.shift, 1);
}

TEST(DetectPeriod, EightKFrameCountsStayExact) {
  // Overflow regression for the audited products in period.cpp: at an 8K
  // frame the total event count is 8.49e9 (past 32 bits), and warmup,
  // shift and totalEvents must all come out exact rather than wrapped
  // (or falsely tripping the checked ops).
  const auto p = dr::kernels::motionEstimation({.H = 4320, .W = 7680});
  AddressMap map(p);
  dr::trace::TraceFilter filter;
  filter.signal = p.findSignal("Old");
  filter.nest = 0;
  filter.accessIndex = dr::kernels::oldAccessIndex();
  const auto pd =
      dr::trace::detectPeriod(dr::trace::lowerProgram(p, map, filter));
  ASSERT_TRUE(pd.found);
  EXPECT_EQ(pd.level, 0);
  EXPECT_EQ(pd.period, 15728640);  // one block row of windows
  EXPECT_EQ(pd.repeatCount, 4320 / 8);
  EXPECT_EQ(pd.shift, 8 * 7695);  // n rows of the padded frame
  EXPECT_EQ(pd.maxLateWarmGap, 1);
  EXPECT_EQ(pd.warmup, 2 * pd.period);
  EXPECT_EQ(pd.totalEvents, dr::support::i64{8493465600});
}

// ---------------------------------------------------------------------------
// Streaming accumulators vs batch engines

TEST(StreamAccumulators, MatchBatchEnginesOnRandomTraces) {
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    Rng rng(seed);
    // 20k accesses over 500 addresses: deep enough to force the LRU window
    // compaction (window floor 4096) and OPT slot-tree growth (64 slots
    // by default, grown geometrically as addresses appear).
    std::vector<i64> addresses;
    for (i64 i = 0; i < 20000; ++i) addresses.push_back(rng.uniform(0, 499));
    const dr::trace::DenseTrace dense = dr::trace::densify(addresses);

    dr::simcore::OptStackAccumulator opt;
    dr::simcore::LruStackAccumulator lru;
    for (i64 id : dense.ids) {
      opt.push(id);
      lru.push(id);
    }
    EXPECT_EQ(opt.accesses(), dense.length());
    EXPECT_EQ(opt.distinct(), dense.distinct());
    EXPECT_EQ(lru.distinct(), dense.distinct());

    const dr::simcore::OptStackDistances optRef(dense);
    const dr::simcore::LruStackDistances lruRef(dense);
    const auto optH = opt.finalize();
    const auto lruH = lru.finalize();
    EXPECT_EQ(optH.histogram, optRef.histogram());
    EXPECT_EQ(optH.coldMisses, optRef.coldMisses());
    EXPECT_EQ(lruH.histogram, lruRef.histogram());
    EXPECT_EQ(lruH.coldMisses, lruRef.coldMisses());
    for (i64 cap : {i64{0}, i64{1}, i64{3}, i64{17}, i64{100}, i64{5000}}) {
      EXPECT_EQ(optH.missesAt(cap), optRef.missesAt(cap));
      EXPECT_EQ(lruH.missesAt(cap), lruRef.missesAt(cap));
    }
    EXPECT_EQ(optH.saturationSize(), optRef.saturationSize());
  }
}

TEST(StreamAccumulators, PushReturnsTheStackDistance) {
  // a b a b. LRU: both reuses find two elements on the stack. OPT: the
  // second `a` hits already at capacity 1 (MIN bypasses `b`, whose reuse
  // interval is still open when `a` returns), the second `b` needs 2.
  dr::simcore::OptStackAccumulator opt;
  EXPECT_EQ(opt.push(0), 0);
  EXPECT_EQ(opt.push(1), 0);
  EXPECT_EQ(opt.push(0), 1);
  EXPECT_EQ(opt.push(1), 2);
  dr::simcore::LruStackAccumulator lru;
  EXPECT_EQ(lru.push(0), 0);
  EXPECT_EQ(lru.push(1), 0);
  EXPECT_EQ(lru.push(0), 2);
  EXPECT_EQ(lru.push(1), 2);
}

// ---------------------------------------------------------------------------
// Folded / streaming curves vs materialized reference (property sweep)

struct SweepCase {
  Program program;
  std::string label;
};

/// The curated shapes: periodic ramps (fold), warmup-dominated streams,
/// non-periodic multi-access nests, multi-nest streams (no period), and
/// tiny repeat counts (folding never kicks in).
std::vector<SweepCase> sweepCases() {
  std::vector<SweepCase> cases;
  auto add = [&](Program p, std::string label) {
    cases.push_back(SweepCase{std::move(p), std::move(label)});
  };

  // Generic double loops (periodic at level 0, various overlap shapes).
  add(dr::test::genericDoubleLoop({0, 19, 0, 3}, 1, 1, 0), "j+k");
  add(dr::test::genericDoubleLoop({0, 15, 0, 5}, 2, 1, 0), "2j+k");
  add(dr::test::genericDoubleLoop({0, 12, 0, 7}, 1, 2, 0), "j+2k");
  add(dr::test::genericDoubleLoop({0, 30, 0, 2}, 3, -1, 3), "3j-k");
  add(dr::test::genericDoubleLoop(
          {0, 9, 0, 4}, std::vector<dr::test::DimCoeffs>{{1, 0, 0}, {0, 1, 0}}),
      "2d");

  // Triple loops with an intermediate repeat level (Section 6.3).
  add(dr::test::tripleLoopWithIntermediate({0, 11, 0, 3}, 4, 1, 1, false),
      "triple-r-free");
  add(dr::test::tripleLoopWithIntermediate({0, 7, 0, 3}, 3, 1, 1, true),
      "triple-r-dep");

  // Tiny repeat counts: warmup + convergence cover the whole stream, so
  // the engine must play it out plainly (warmup-only traces).
  add(dr::test::genericDoubleLoop({0, 1, 0, 9}, 1, 1, 0), "repeat2");
  add(dr::test::genericDoubleLoop({0, 2, 0, 9}, 1, 1, 0), "repeat3");

  // Mismatched outer coefficients: no period, streaming fallback.
  {
    auto p = dr::test::genericDoubleLoop({0, 9, 0, 6}, 1, 1, 0);
    ArrayAccess second = p.nests[0].body[0];
    second.indices[0].setCoeff(0, 2);
    p.nests[0].body.push_back(second);
    p.signals[0].dims = {64};
    add(std::move(p), "no-period");
  }

  add(twoNestProgram(), "two-nests");

  // Small motion estimation, Old-frame access (periodic at level 0).
  {
    dr::kernels::MotionEstimationParams mp;
    mp.H = 32;
    mp.W = 32;
    mp.n = 8;
    mp.m = 2;
    add(dr::kernels::motionEstimation(mp), "me-small");
  }
  return cases;
}

TraceFilter sweepFilter(const SweepCase& c) {
  if (c.label == "me-small") {
    TraceFilter f;
    f.signal = c.program.findSignal("Old");
    f.nest = 0;
    f.accessIndex = dr::kernels::oldAccessIndex();
    return f;
  }
  return readsOf(0);
}

TEST(FoldedCurve, ByteIdenticalToMaterializedOnAllShapes) {
  int foldedOpt = 0;
  int foldedLru = 0;
  for (const SweepCase& c : sweepCases()) {
    SCOPED_TRACE(c.label);
    AddressMap map(c.program);
    const TraceFilter filter = sweepFilter(c);
    const Trace t = dr::trace::collectTrace(c.program, map, filter);
    ASSERT_GT(t.length(), 0);
    const std::vector<i64> sizes =
        dr::simcore::sizeGrid(std::max<i64>(1, t.distinctCount()), 8);

    for (auto policy : {dr::simcore::Policy::Opt, dr::simcore::Policy::Lru}) {
      SCOPED_TRACE(policy == dr::simcore::Policy::Opt ? "opt" : "lru");
      const auto ref = dr::simcore::simulateReuseCurve(t, sizes, policy);
      dr::simcore::FoldedStats stats;
      const auto streamed = dr::simcore::simulateReuseCurve(
          c.program, map, filter, sizes, policy, &stats);
      ASSERT_EQ(streamed.points.size(), ref.points.size());
      for (std::size_t i = 0; i < ref.points.size(); ++i) {
        EXPECT_EQ(streamed.points[i].size, ref.points[i].size);
        EXPECT_EQ(streamed.points[i].writes, ref.points[i].writes);
        EXPECT_EQ(streamed.points[i].reads, ref.points[i].reads);
        EXPECT_DOUBLE_EQ(streamed.points[i].reuseFactor,
                         ref.points[i].reuseFactor);
      }
      EXPECT_TRUE(stats.exact);
      EXPECT_EQ(stats.totalEvents, t.length());
      EXPECT_EQ(stats.distinct, t.distinctCount());
      if (stats.folded) {
        (policy == dr::simcore::Policy::Opt ? foldedOpt : foldedLru) += 1;
        EXPECT_GE(stats.foldPeriodChunks, 1);
        EXPECT_LT(stats.simulatedEvents, stats.totalEvents);
      } else {
        EXPECT_EQ(stats.simulatedEvents, stats.totalEvents);
      }

      // Folding disabled: stream every event (across many tiny chunks)
      // and still agree with the reference.
      dr::simcore::FoldedCurveOptions noFold;
      noFold.allowFold = false;
      noFold.chunkEvents = 64;
      dr::simcore::FoldedStats plainStats;
      const auto plain = dr::simcore::simulateReuseCurve(
          c.program, map, filter, sizes, policy, &plainStats, noFold);
      EXPECT_FALSE(plainStats.folded);
      EXPECT_EQ(plainStats.simulatedEvents, t.length());
      for (std::size_t i = 0; i < ref.points.size(); ++i)
        EXPECT_EQ(plain.points[i].writes, ref.points[i].writes);
    }

    // Saturation size: streaming program path == materialized path.
    EXPECT_EQ(dr::simcore::optSaturationSize(c.program, map, filter),
              dr::simcore::optSaturationSize(t));
  }
  // The sweep must exercise both certified fold paths — the OPT slot
  // certificate and the LRU delta cycle — not only the fallbacks.
  EXPECT_GT(foldedOpt, 0);
  EXPECT_GT(foldedLru, 0);
}

TEST(FoldedCurve, StreamingFifoMatchesMaterializedFifo) {
  for (const SweepCase& c : sweepCases()) {
    if (c.label != "j+k" && c.label != "no-period" && c.label != "two-nests")
      continue;
    SCOPED_TRACE(c.label);
    AddressMap map(c.program);
    const TraceFilter filter = sweepFilter(c);
    const Trace t = dr::trace::collectTrace(c.program, map, filter);
    TraceCursor cursor(c.program, map, filter);
    for (i64 cap : {i64{0}, i64{1}, i64{2}, i64{5}, i64{13}, i64{100}}) {
      const auto ref = dr::simcore::simulateFifo(t, cap);
      const auto streamed = dr::simcore::streamFifo(cursor, cap, 32);
      EXPECT_EQ(streamed.misses, ref.misses);
      EXPECT_EQ(streamed.hits, ref.hits);
      EXPECT_EQ(streamed.accesses, ref.accesses);
    }
    // The Fifo branch of the program-level curve entry point.
    const std::vector<i64> sizes{1, 2, 5, 13};
    const auto refCurve =
        dr::simcore::simulateReuseCurve(t, sizes, dr::simcore::Policy::Fifo);
    const auto streamedCurve = dr::simcore::simulateReuseCurve(
        c.program, map, filter, sizes, dr::simcore::Policy::Fifo);
    ASSERT_EQ(streamedCurve.points.size(), refCurve.points.size());
    for (std::size_t i = 0; i < refCurve.points.size(); ++i)
      EXPECT_EQ(streamedCurve.points[i].writes, refCurve.points[i].writes);
  }
}

// ---------------------------------------------------------------------------
// Motion-estimation knees (paper Fig. 4a) on the folded streaming curve

namespace {

dr::simcore::ReuseCurve curveFromHist(const dr::simcore::StackHistogram& hist,
                                      const std::vector<i64>& sizes) {
  dr::simcore::ReuseCurve curve;
  for (i64 s : sizes) {
    const auto r = hist.resultAt(s);
    dr::simcore::ReusePoint pt;
    pt.size = s;
    pt.writes = r.misses;
    pt.reads = r.accesses;
    pt.reuseFactor = r.reuseFactor();
    curve.points.push_back(pt);
  }
  return curve;
}

}  // namespace

TEST(FoldedCurve, MotionEstimationQcifKneesPinned) {
  // Full QCIF Old-frame curve, 6.5M events. OPT never certifies a steady
  // state on motion estimation (a slot band drifts forever — see
  // folded_curve.h), so the exact run streams everything and the
  // approximate fold is checked against it.
  const auto p = dr::kernels::motionEstimation({});
  AddressMap map(p);
  TraceFilter filter;
  filter.signal = p.findSignal("Old");
  filter.nest = 0;
  filter.accessIndex = dr::kernels::oldAccessIndex();

  TraceCursor cursor(p, map, filter);
  const auto pd = dr::trace::detectPeriod(cursor.nests());
  ASSERT_TRUE(pd.found);
  dr::simcore::FoldedStats stats;
  const auto hist = dr::simcore::foldedStackHistogram(
      cursor, pd, dr::simcore::Policy::Opt, &stats);
  EXPECT_TRUE(stats.exact);
  EXPECT_EQ(stats.totalEvents, 6488064);
  EXPECT_EQ(stats.distinct, 30369);  // padded Old frame, 159 x 191

  const std::vector<i64> sizes = dr::simcore::sizeGrid(stats.distinct, 24);
  const auto curve = curveFromHist(hist, sizes);

  // The four discontinuities A_1..A_4 of Fig. 4a, located by the
  // log-step-normalized knee detector on the geometric grid.
  const auto knees = dr::simcore::findKnees(curve, 1.2);
  ASSERT_EQ(knees.size(), 4u);
  // A_1 ~ one window line, A_2 ~ a block row of the window, A_3 ~ the
  // sliding column of the search region, A_4 ~ the whole frame.
  const i64 expectedLo[4] = {48, 150, 350, 2500};
  const i64 expectedHi[4] = {72, 240, 680, 4500};
  for (int i = 0; i < 4; ++i) {
    const i64 size = curve.points[knees[static_cast<std::size_t>(i)]].size;
    EXPECT_GE(size, expectedLo[i]) << "knee " << i;
    EXPECT_LE(size, expectedHi[i]) << "knee " << i;
  }
  // Reuse factors reached at the knees (paper: 5.6 / ~32 / ~84 / 213.6).
  EXPECT_NEAR(curve.points[knees[0]].reuseFactor, 5.6, 0.5);
  EXPECT_NEAR(curve.points[knees[1]].reuseFactor, 32.0, 4.0);
  EXPECT_NEAR(curve.points[knees[2]].reuseFactor, 84.0, 6.0);
  EXPECT_NEAR(curve.points[knees[3]].reuseFactor, 213.6, 0.5);
  // Full-frame reuse factor: 6488064 reads / 30369 elements.
  EXPECT_NEAR(curve.points.back().reuseFactor, 213.64, 0.01);

  // Approximate fold: simulates a third of the frame, reports
  // exact = false, and lands every curve point within the documented
  // wobble bound — same knees, same science, fraction of the events.
  dr::simcore::FoldedCurveOptions apx;
  apx.approximateAfterBudget = true;
  apx.maxMeasuredChunks = 4;
  dr::simcore::FoldedStats apxStats;
  const auto apxHist = dr::simcore::foldedStackHistogram(
      cursor, pd, dr::simcore::Policy::Opt, &apxStats, apx);
  ASSERT_TRUE(apxStats.folded);
  EXPECT_FALSE(apxStats.exact);
  EXPECT_EQ(apxStats.totalEvents, stats.totalEvents);
  EXPECT_EQ(apxStats.distinct, stats.distinct);
  EXPECT_LT(apxStats.simulatedEvents, stats.totalEvents / 2);

  const auto apxCurve = curveFromHist(apxHist, sizes);
  // Wobble bound: ±1 per affected bin per extrapolated chunk, ~600
  // affected bins, 12 extrapolated chunks.
  for (std::size_t i = 0; i < curve.points.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(apxCurve.points[i].writes),
                static_cast<double>(curve.points[i].writes), 8000.0)
        << "size " << curve.points[i].size;
  }
  const auto apxKnees = dr::simcore::findKnees(apxCurve, 1.2);
  EXPECT_EQ(apxKnees, knees);
}

TEST(FoldedCurve, LruFoldsExactlyOnMotionEstimation) {
  // LRU distances are shift-invariant, so the per-chunk deltas repeat
  // with super-period 1 and the fold certifies — the engine answers the
  // whole 8-block-row frame from 4 simulated chunks, byte-exact.
  dr::kernels::MotionEstimationParams mp;
  mp.H = 64;
  mp.W = 32;
  mp.n = 8;
  mp.m = 2;
  const auto p = dr::kernels::motionEstimation(mp);
  AddressMap map(p);
  TraceFilter filter;
  filter.signal = p.findSignal("Old");
  filter.nest = 0;
  filter.accessIndex = dr::kernels::oldAccessIndex();

  const Trace t = dr::trace::collectTrace(p, map, filter);
  const std::vector<i64> sizes = dr::simcore::sizeGrid(t.distinctCount(), 32);
  const auto ref =
      dr::simcore::simulateReuseCurve(t, sizes, dr::simcore::Policy::Lru);
  dr::simcore::FoldedStats stats;
  const auto streamed = dr::simcore::simulateReuseCurve(
      p, map, filter, sizes, dr::simcore::Policy::Lru, &stats);
  ASSERT_TRUE(stats.folded);
  EXPECT_TRUE(stats.exact);
  EXPECT_GE(stats.foldPeriodChunks, 1);
  EXPECT_LT(stats.simulatedEvents, stats.totalEvents);
  ASSERT_EQ(streamed.points.size(), ref.points.size());
  for (std::size_t i = 0; i < ref.points.size(); ++i) {
    EXPECT_EQ(streamed.points[i].writes, ref.points[i].writes);
    EXPECT_EQ(streamed.points[i].reads, ref.points[i].reads);
  }
}

// ---------------------------------------------------------------------------
// Explorer wiring

TEST(ExplorerStreaming, MatchesMaterializedEngine) {
  dr::kernels::MotionEstimationParams mp;
  mp.H = 64;  // 8 block rows: enough periods for the fold to engage
  mp.W = 32;
  mp.n = 8;
  mp.m = 2;
  const auto p = dr::kernels::motionEstimation(mp);
  const int oldSig = p.findSignal("Old");

  dr::explorer::ExploreOptions streaming;
  streaming.engine = dr::explorer::SimEngine::Streaming;
  dr::explorer::ExploreOptions materialized;
  materialized.engine = dr::explorer::SimEngine::Materialized;

  auto s = dr::explorer::exploreSignal(p, oldSig, streaming);
  auto m = dr::explorer::exploreSignal(p, oldSig, materialized);
  dr::explorer::designChains(p, s, streaming);
  dr::explorer::designChains(p, m, materialized);

  EXPECT_EQ(s.Ctot, m.Ctot);
  EXPECT_EQ(s.distinctElements, m.distinctElements);
  ASSERT_EQ(s.simulatedCurve.points.size(), m.simulatedCurve.points.size());
  for (std::size_t i = 0; i < s.simulatedCurve.points.size(); ++i) {
    EXPECT_EQ(s.simulatedCurve.points[i].size, m.simulatedCurve.points[i].size);
    EXPECT_EQ(s.simulatedCurve.points[i].writes,
              m.simulatedCurve.points[i].writes);
    EXPECT_EQ(s.simulatedCurve.points[i].reads,
              m.simulatedCurve.points[i].reads);
  }
  ASSERT_EQ(s.pareto.size(), m.pareto.size());
  for (std::size_t i = 0; i < s.pareto.size(); ++i)
    EXPECT_EQ(s.pareto[i].label, m.pareto[i].label);

  // The streaming engine stays exact whether or not a fold certified
  // (OPT on motion estimation streams — see folded_curve.h).
  EXPECT_TRUE(s.simulationStats.exact);
  EXPECT_EQ(s.simulationStats.totalEvents, s.Ctot);
  // The materialized oracle reports what it simulated, never a fold.
  EXPECT_FALSE(m.simulationStats.folded);
  EXPECT_EQ(m.simulationStats.simulatedEvents, m.Ctot);
}

TEST(ExplorerStreaming, AnalyticOnlyRunSkipsTheStackEngine) {
  auto p = dr::test::genericDoubleLoop({0, 9, 0, 4}, 1, 1, 0);
  dr::explorer::ExploreOptions opts;
  opts.runSimulation = false;
  const auto r = dr::explorer::exploreSignal(p, 0, opts);
  EXPECT_TRUE(r.simulatedCurve.points.empty());
  EXPECT_EQ(r.Ctot, 50);
  EXPECT_EQ(r.distinctElements, 14);
  EXPECT_EQ(r.simulationStats.simulatedEvents, 0);
  EXPECT_EQ(r.simulationStats.totalEvents, 50);
}

TEST(OrderingSweep, TopKValidationFillsSimulatedMisses) {
  const auto p = dr::test::genericDoubleLoop({0, 9, 0, 3}, 1, 1, 0);
  const auto results = dr::explorer::orderingSweep(p, 0, 8, 0, 1);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].feasible);
  EXPECT_GE(results[0].simMisses, 0);
  EXPECT_TRUE(results[0].simExact);
  // Only the top-1 ordering was validated.
  EXPECT_EQ(results[1].simMisses, -1);

  // Cross-check against the materialized reference on the reordered
  // program (p is already normalized, so the permutation applies as-is).
  auto reordered = p;
  reordered.nests[0] = dr::loopir::permuted(p.nests[0], results[0].perm);
  AddressMap rmap(reordered);
  const Trace t = dr::trace::readTrace(reordered, rmap, 0);
  EXPECT_EQ(results[0].simMisses,
            dr::simcore::simulateOpt(t, results[0].bestSize).misses);
}

}  // namespace
