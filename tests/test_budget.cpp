// Budgeted exploration: RunBudget semantics, cooperative truncation in
// the streaming pipeline, and the explorer's graceful-degradation ladder
// (exact stream -> certified fold -> approximate fold -> analytic-only),
// including the Fidelity tag every emitted curve point carries.

#include <gtest/gtest.h>

#include <chrono>

#include "explorer/explorer.h"
#include "kernels/motion_estimation.h"
#include "kernels/susan.h"
#include "simcore/folded_curve.h"
#include "support/budget.h"
#include "trace/period.h"
#include "trace/stream.h"
#include "trace/walker.h"

namespace {

using dr::support::BudgetTrip;
using dr::support::i64;
using dr::support::RunBudget;
using dr::support::StatusCode;

TEST(RunBudget, UnlimitedNeverTrips) {
  RunBudget b;
  b.chargeEvents(1 << 20);
  b.noteResidentBytes(i64{1} << 40);
  EXPECT_EQ(b.state(), BudgetTrip::None);
  EXPECT_FALSE(b.tripped());
  EXPECT_TRUE(b.toStatus().isOk());
}

TEST(RunBudget, EventCeilingLatchesFirstTrip) {
  RunBudget b;
  b.setMaxEvents(100);
  b.chargeEvents(100);
  EXPECT_FALSE(b.tripped());  // ceiling is inclusive
  b.chargeEvents(1);
  EXPECT_EQ(b.state(), BudgetTrip::Events);
  EXPECT_EQ(b.eventsCharged(), 101);
  // Latched: a later (would-be) memory trip cannot displace it.
  b.setMaxResidentBytes(1);
  b.noteResidentBytes(1 << 20);
  EXPECT_EQ(b.state(), BudgetTrip::Events);
  EXPECT_EQ(b.toStatus().code(), StatusCode::BudgetExceeded);
}

TEST(RunBudget, MemoryCeilingTracksPeak) {
  RunBudget b;
  b.setMaxResidentBytes(1000);
  b.chargeBytes(600);
  b.releaseBytes(600);
  b.chargeBytes(900);
  EXPECT_FALSE(b.tripped());
  EXPECT_EQ(b.peakResidentBytes(), 900);
  b.chargeBytes(200);  // 1100 resident
  EXPECT_EQ(b.state(), BudgetTrip::Memory);
  // Releasing does not un-trip (the degradation decision stays stable).
  b.releaseBytes(1000);
  EXPECT_EQ(b.state(), BudgetTrip::Memory);
}

TEST(RunBudget, CancellationWinsAndMapsToStatus) {
  RunBudget b;
  b.cancel();
  EXPECT_TRUE(b.cancelRequested());
  EXPECT_EQ(b.state(), BudgetTrip::Cancelled);
  EXPECT_EQ(b.toStatus().code(), StatusCode::Cancelled);
}

TEST(RunBudget, ExpiredDeadlineTrips) {
  RunBudget b;
  b.setDeadline(std::chrono::milliseconds(0));
  EXPECT_EQ(b.state(), BudgetTrip::Deadline);
}

TEST(TraceCursor, BudgetRefusesChunksOnlyAtBoundaries) {
  const auto p = dr::kernels::motionEstimation({.H = 32, .W = 32});
  dr::trace::AddressMap map(p);
  dr::trace::TraceFilter filter;
  filter.signal = p.findSignal("Old");

  dr::trace::TraceCursor cursor(p, map, filter);
  const i64 total = cursor.length();
  ASSERT_GT(total, 4096);

  RunBudget b;
  b.setMaxEvents(4096);
  cursor.attachBudget(&b);
  std::vector<i64> chunk;
  i64 got = 0, lastChunk = 0;
  while ((lastChunk = cursor.nextChunk(chunk, 1024)) > 0) got += lastChunk;
  EXPECT_TRUE(cursor.truncated());
  EXPECT_LT(got, total);
  EXPECT_EQ(got, cursor.position());
  // Whole chunks only: everything handed out arrived before the trip.
  EXPECT_GE(got, 4096);  // the tripping chunk itself was completed
  EXPECT_EQ(b.state(), BudgetTrip::Events);

  // reset() clears the truncation; detaching restores full streaming.
  cursor.attachBudget(nullptr);
  cursor.reset();
  EXPECT_FALSE(cursor.truncated());
  got = 0;
  while ((lastChunk = cursor.nextChunk(chunk)) > 0) got += lastChunk;
  EXPECT_EQ(got, total);
}

// --- ladder rung 1: exact streaming --------------------------------------

TEST(Ladder, UntrippedRunTagsExactStream) {
  const auto p = dr::kernels::motionEstimation({.H = 32, .W = 32});
  auto ex = dr::explorer::exploreSignal(p, p.findSignal("Old"));
  EXPECT_EQ(ex.curveFidelity, dr::simcore::Fidelity::ExactStream);
  ASSERT_FALSE(ex.simulatedCurve.points.empty());
  for (const auto& pt : ex.simulatedCurve.points)
    EXPECT_EQ(pt.fidelity, dr::simcore::Fidelity::ExactStream);
  EXPECT_TRUE(ex.simulationStats.completed);
  EXPECT_EQ(ex.simulationStats.trippedBy, BudgetTrip::None);
}

// --- ladder rung 2: certified fold ---------------------------------------

TEST(Ladder, CertifiedFoldTagsExactFold) {
  // A pure linear scan: every chunk is the previous one shifted by 32,
  // with no inter-chunk reuse — the steady state certifies immediately.
  dr::trace::LoweredNest nest;
  nest.loops.push_back({0, 1, 64});
  nest.loops.push_back({0, 1, 32});
  dr::trace::LoweredAccess acc;
  acc.levelCoeff = {32, 1};
  nest.accesses.push_back(acc);

  const auto pd = dr::trace::detectPeriod({nest});
  ASSERT_TRUE(pd.found);

  dr::trace::TraceCursor cursor({nest});
  dr::simcore::FoldedStats stats;
  const auto hist = dr::simcore::foldedStackHistogram(
      cursor, pd, dr::simcore::Policy::Opt, &stats);
  ASSERT_TRUE(stats.folded);
  EXPECT_TRUE(stats.exact);
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.fidelity, dr::simcore::Fidelity::ExactFold);
  EXPECT_EQ(hist.accesses, 64 * 32);
  EXPECT_EQ(hist.coldMisses, 64 * 32);  // all addresses distinct
}

// --- ladder rung 3: approximate fold after a budget trip ------------------

TEST(Ladder, BudgetTripAfterMeasuredChunkExtrapolates) {
  const auto p = dr::kernels::motionEstimation({});
  dr::trace::AddressMap map(p);
  dr::trace::TraceFilter filter;
  filter.signal = p.findSignal("Old");
  filter.nest = 0;
  filter.accessIndex = dr::kernels::oldAccessIndex();

  dr::trace::TraceCursor cursor(p, map, filter);
  const auto pd = dr::trace::detectPeriod(cursor.nests());
  ASSERT_TRUE(pd.found);

  // Enough for the warmup plus a few measured chunks, far short of the
  // 6.5M-event stream: the engine must extrapolate from the last chunk.
  RunBudget b;
  b.setMaxEvents(pd.warmup + 3 * pd.period);
  dr::simcore::FoldedCurveOptions opts;
  opts.budget = &b;
  dr::simcore::FoldedStats stats;
  const auto hist = dr::simcore::foldedStackHistogram(
      cursor, pd, dr::simcore::Policy::Opt, &stats, opts);

  EXPECT_TRUE(stats.completed);  // full-trace counts exist (extrapolated)
  EXPECT_TRUE(stats.folded);
  EXPECT_FALSE(stats.exact);
  EXPECT_EQ(stats.fidelity, dr::simcore::Fidelity::ApproxFold);
  EXPECT_EQ(stats.trippedBy, BudgetTrip::Events);
  EXPECT_EQ(hist.accesses, stats.totalEvents);
  EXPECT_LT(stats.simulatedEvents, stats.totalEvents);
}

// --- ladder rung 4: analytic-only fallback --------------------------------

TEST(Ladder, TightDeadlineFallsToAnalyticCurve) {
  const auto p = dr::kernels::motionEstimation({});
  RunBudget b;
  b.setDeadline(std::chrono::milliseconds(0));  // already expired

  dr::explorer::ExploreOptions opts;
  opts.budget = &b;
  // Completes without throwing even though no event was ever simulated.
  const auto ex = dr::explorer::exploreSignal(p, p.findSignal("Old"), opts);

  EXPECT_EQ(ex.curveFidelity, dr::simcore::Fidelity::Analytic);
  EXPECT_FALSE(ex.simulationStats.completed);
  EXPECT_EQ(ex.simulationStats.trippedBy, BudgetTrip::Deadline);
  ASSERT_FALSE(ex.simulatedCurve.points.empty());
  for (const auto& pt : ex.simulatedCurve.points)
    EXPECT_EQ(pt.fidelity, dr::simcore::Fidelity::Analytic);

  // Sorted by size, positive reuse everywhere.
  for (std::size_t i = 1; i < ex.simulatedCurve.points.size(); ++i)
    EXPECT_LT(ex.simulatedCurve.points[i - 1].size,
              ex.simulatedCurve.points[i].size);

  // The analytic rung reproduces the Fig. 4a knee positions: one point
  // inside each knee band of the pinned simulated curve
  // (test_folded_stream.cpp), topped by the full-frame point.
  const i64 bandLo[3] = {48, 150, 350};
  const i64 bandHi[3] = {72, 240, 680};
  for (int k = 0; k < 3; ++k) {
    bool found = false;
    for (const auto& pt : ex.simulatedCurve.points)
      if (pt.size >= bandLo[k] && pt.size <= bandHi[k]) found = true;
    EXPECT_TRUE(found) << "no analytic point in knee band " << k;
  }
  const auto& top = ex.simulatedCurve.points.back();
  EXPECT_EQ(top.size, ex.distinctElements);
  EXPECT_NEAR(top.reuseFactor, 213.64, 0.01);  // 6488064 / 30369
}

// --- the degraded rungs count the footprint from the level-0 windows -----

TEST(Ladder, ApproxFoldReportsExactDistinctElements) {
  // The approximate fold extrapolates its stack histogram, distinct count
  // included; the reported footprint, and the curve's top size with it,
  // must be the exact one — here also the signal's padded element count.
  const auto p = dr::kernels::motionEstimation({.H = 48, .W = 48});
  const int old = p.findSignal("Old");
  const auto exact = dr::explorer::exploreSignal(p, old);
  ASSERT_EQ(exact.distinctElements, 3969);
  EXPECT_EQ(dr::trace::AddressMap(p).paddedElementCount(old), 3969);

  RunBudget b;
  b.setMaxEvents(20000);
  dr::explorer::ExploreOptions opts;
  opts.budget = &b;
  const auto ex = dr::explorer::exploreSignal(p, old, opts);
  ASSERT_EQ(ex.curveFidelity, dr::simcore::Fidelity::ApproxFold);
  EXPECT_EQ(ex.distinctElements, exact.distinctElements);
  ASSERT_FALSE(ex.simulatedCurve.points.empty());
  EXPECT_EQ(ex.simulatedCurve.points.back().size,
            exact.simulatedCurve.points.back().size);
}

TEST(Ladder, AnalyticRungCountsTheUnionOfNests) {
  // SUSAN reads `image` in seven nests, one per mask row: the footprint is
  // the union of their level-0 windows, not the largest one.
  const auto p = dr::kernels::susan({40, 40});
  const int image = p.findSignal("image");
  const auto exact = dr::explorer::exploreSignal(p, image);
  ASSERT_EQ(exact.distinctElements, 1588);

  RunBudget b;
  b.setDeadline(std::chrono::milliseconds(0));  // already expired
  dr::explorer::ExploreOptions opts;
  opts.budget = &b;
  const auto ex = dr::explorer::exploreSignal(p, image, opts);
  ASSERT_EQ(ex.curveFidelity, dr::simcore::Fidelity::Analytic);
  EXPECT_EQ(ex.distinctElements, exact.distinctElements);
  EXPECT_EQ(ex.simulationStats.distinct, exact.distinctElements);
}

// --- checked facade -------------------------------------------------------

TEST(ExploreChecked, BadSignalIsInvalidInputNotAThrow) {
  const auto p = dr::kernels::motionEstimation({.H = 32, .W = 32});
  auto r = dr::explorer::exploreSignalChecked(p, 99);
  ASSERT_FALSE(r.hasValue());
  EXPECT_EQ(r.status().code(), StatusCode::InvalidInput);
}

TEST(ExploreChecked, ValidSignalReturnsExploration) {
  const auto p = dr::kernels::motionEstimation({.H = 32, .W = 32});
  auto r = dr::explorer::exploreSignalChecked(p, p.findSignal("Old"));
  ASSERT_TRUE(r.hasValue());
  EXPECT_EQ(r->curveFidelity, dr::simcore::Fidelity::ExactStream);
  EXPECT_GT(r->Ctot, 0);
}

TEST(OrderingSweep, TrippedBudgetLeavesDefaultsInsteadOfThrowing) {
  const auto p = dr::kernels::motionEstimation({.H = 32, .W = 32});
  RunBudget b;
  b.cancel();  // tripped before the sweep starts
  const auto results = dr::explorer::orderingSweep(
      p, p.findSignal("Old"), /*sizeBudget=*/256, /*fixedPrefix=*/2,
      /*validateTopK=*/2, &b);
  for (const auto& r : results) {
    EXPECT_FALSE(r.feasible);  // skipped slots keep caller defaults
    EXPECT_EQ(r.simMisses, -1);
  }
}

}  // namespace
