// Cross-module integration and robustness tests: frontend-to-explorer
// round trips, normalization trace equality under random strides,
// address-map injectivity, OPT bypass behaviour, and frontend fuzzing
// (corrupted sources must diagnose, never crash).

#include <gtest/gtest.h>

#include <set>

#include "explorer/explorer.h"
#include "frontend/frontend.h"
#include "frontend/lexer.h"
#include "frontend/sema.h"
#include "helpers.h"
#include "hierarchy/assign.h"
#include "hierarchy/collapse.h"
#include "kernels/motion_estimation.h"
#include "loopir/normalize.h"
#include "scbd/scbd.h"
#include "simcore/buffer_sim.h"
#include "support/rng.h"
#include "trace/lifetime.h"
#include "trace/single_assign.h"
#include "trace/walker.h"

namespace {

using dr::support::i64;
using dr::support::Rng;

// ---------------------------------------------------------------------------
// Normalization property: the access trace is invariant under loop
// normalization, for random strides and directions.

class NormalizeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NormalizeProperty, TraceInvariant) {
  Rng rng(GetParam());
  dr::loopir::Program p;
  int sig = dr::loopir::addSignal(p, "A", {4096}, 8);

  dr::loopir::LoopNest nest;
  int depth = static_cast<int>(rng.uniform(1, 3));
  for (int d = 0; d < depth; ++d) {
    dr::loopir::Loop loop;
    loop.name = "i" + std::to_string(d);
    i64 a = rng.uniform(-10, 10);
    i64 b = rng.uniform(-10, 10);
    i64 step = rng.uniform(1, 4);
    if (rng.uniform(0, 1)) {
      loop.begin = std::min(a, b);
      loop.end = std::max(a, b);
      loop.step = step;
    } else {
      loop.begin = std::max(a, b);
      loop.end = std::min(a, b);
      loop.step = -step;
    }
    nest.loops.push_back(loop);
  }
  dr::loopir::ArrayAccess acc;
  acc.signal = sig;
  acc.kind = dr::loopir::AccessKind::Read;
  dr::loopir::AffineExpr e(rng.uniform(-5, 5));
  for (int d = 0; d < depth; ++d) e.setCoeff(d, rng.uniform(-4, 4));
  acc.indices = {e};
  nest.body.push_back(acc);
  p.nests.push_back(nest);

  auto n = dr::loopir::normalized(p);
  ASSERT_TRUE(dr::loopir::isNormalized(n));
  dr::trace::AddressMap mp(p), mn(n);
  auto tp = dr::trace::readTrace(p, mp, 0);
  auto tn = dr::trace::readTrace(n, mn, 0);
  ASSERT_EQ(tp.length(), tn.length());
  // Addresses may shift by a constant (different padded bases), so
  // compare deltas against the first access.
  for (i64 i = 1; i < tp.length(); ++i)
    ASSERT_EQ(tp.addresses[static_cast<std::size_t>(i)] - tp.addresses[0],
              tn.addresses[static_cast<std::size_t>(i)] - tn.addresses[0])
        << "at access " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalizeProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// AddressMap injectivity: distinct multi-dimensional indices map to
// distinct flat addresses, even with halo accesses.

class AddressMapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AddressMapProperty, InjectiveOverAccessedIndices) {
  Rng rng(GetParam());
  dr::loopir::Program p;
  int dims = static_cast<int>(rng.uniform(1, 3));
  std::vector<i64> extents;
  for (int d = 0; d < dims; ++d) extents.push_back(rng.uniform(2, 6));
  int sig = dr::loopir::addSignal(p, "A", extents, 8);

  dr::loopir::LoopNest nest;
  nest.loops = {dr::loopir::Loop{"j", 0, rng.uniform(2, 6), 1},
                dr::loopir::Loop{"k", 0, rng.uniform(2, 6), 1}};
  dr::loopir::ArrayAccess acc;
  acc.signal = sig;
  acc.kind = dr::loopir::AccessKind::Read;
  for (int d = 0; d < dims; ++d) {
    dr::loopir::AffineExpr e(rng.uniform(-3, 3));
    e.setCoeff(0, rng.uniform(-2, 2));
    e.setCoeff(1, rng.uniform(-2, 2));
    acc.indices.push_back(e);
  }
  nest.body.push_back(acc);
  p.nests.push_back(nest);

  dr::trace::AddressMap map(p);
  // Walk and record (index tuple -> address); same tuple must give the
  // same address, different tuples different addresses.
  std::map<std::vector<i64>, i64> seen;
  std::set<i64> addrs;
  std::vector<i64> iters(2);
  for (i64 j = nest.loops[0].begin; j <= nest.loops[0].end; ++j)
    for (i64 k = nest.loops[1].begin; k <= nest.loops[1].end; ++k) {
      iters[0] = j;
      iters[1] = k;
      std::vector<i64> idx;
      for (const auto& e : acc.indices) idx.push_back(e.evaluate(iters));
      i64 addr = map.address(sig, idx);
      auto [it, inserted] = seen.try_emplace(idx, addr);
      if (!inserted) {
        ASSERT_EQ(it->second, addr);
      } else {
        ASSERT_TRUE(addrs.insert(addr).second)
            << "two index tuples alias one address";
      }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddressMapProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// OPT bypass capability (MIN): a streaming access must not evict a hot
// element from a tiny buffer.

TEST(OptBypass, HotElementSurvivesStream) {
  // H s1 H s2 H s3 ... : capacity 1 keeps H resident; every s misses.
  dr::trace::Trace t;
  for (i64 i = 0; i < 50; ++i) {
    t.addresses.push_back(1000);    // hot
    t.addresses.push_back(i);       // stream
  }
  auto r = dr::simcore::simulateOpt(t, 1);
  EXPECT_EQ(r.misses, 1 + 50);  // one compulsory hot miss + the stream
  EXPECT_EQ(r.hits, 49);
}

// ---------------------------------------------------------------------------
// Frontend fuzzing: randomly corrupted kernels must raise diagnostics,
// never crash or accept garbage silently as something else.

class FrontendFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrontendFuzz, CorruptedSourceDiagnosesCleanly) {
  const std::string valid = dr::kernels::motionEstimationSource({16, 16, 4, 2});
  Rng rng(GetParam());
  const std::string junk = "{}[]()=;.+-*/%#xyz019 \n\"";
  for (int trial = 0; trial < 50; ++trial) {
    std::string s = valid;
    int edits = static_cast<int>(rng.uniform(1, 4));
    for (int e = 0; e < edits; ++e) {
      std::size_t pos =
          static_cast<std::size_t>(rng.uniform(0, static_cast<i64>(s.size()) - 1));
      switch (rng.uniform(0, 2)) {
        case 0:  // replace
          s[pos] = junk[static_cast<std::size_t>(
              rng.uniform(0, static_cast<i64>(junk.size()) - 1))];
          break;
        case 1:  // delete
          s.erase(pos, 1);
          break;
        default:  // insert
          s.insert(pos, 1,
                   junk[static_cast<std::size_t>(
                       rng.uniform(0, static_cast<i64>(junk.size()) - 1))]);
      }
    }
    try {
      auto p = dr::frontend::compileKernel(s);
      // Surviving a corruption is fine (e.g. a digit changed inside a
      // constant) as long as the result is still structurally valid.
      EXPECT_TRUE(dr::loopir::validate(p).empty());
    } catch (const dr::frontend::ParseError&) {
    } catch (const dr::frontend::SemaError&) {
    } catch (const dr::support::ContractViolation&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontendFuzz,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// End-to-end: kernel text -> explorer -> assignment -> collapse -> SCBD.

TEST(EndToEnd, KernelTextToPhysicalMapping) {
  auto p = dr::frontend::compileKernel(R"(
    kernel pipeline {
      param N = 24;
      array A[N][N] bits 8;
      array w[3][3] bits 16;
      loop y = 1 .. N - 2 {
        loop x = 1 .. N - 2 {
          loop dy = -1 .. 1 {
            loop dx = -1 .. 1 {
              read A[y + dy][x + dx];
              read w[dy + 1][dx + 1];
            } } } }
    })");

  std::vector<std::vector<dr::hierarchy::SignalOption>> options;
  std::vector<dr::explorer::SignalExploration> explorations;
  for (const char* name : {"A", "w"}) {
    auto ex = dr::explorer::exploreSignal(p, p.findSignal(name));
    dr::explorer::designChains(p, ex);
    ASSERT_FALSE(ex.pareto.empty()) << name;
    std::vector<dr::hierarchy::SignalOption> opts;
    for (std::size_t i = 0; i < ex.pareto.size(); ++i)
      opts.push_back({ex.pareto[i].cost.power, ex.pareto[i].cost.onChipSize,
                      static_cast<int>(i)});
    options.push_back(std::move(opts));
    explorations.push_back(std::move(ex));
  }

  auto best = dr::hierarchy::assignLayers(options, 256);
  ASSERT_TRUE(best.feasible);
  EXPECT_LE(best.totalSize, 256);
  // The coefficient array w is tiny and heavily reused: a non-flat option
  // must win for it under any reasonable budget.
  const auto& wDesign =
      explorations[1].pareto[static_cast<std::size_t>(best.choice[1])];
  EXPECT_GT(wDesign.chain.depth(), 0);

  // Collapse the A chain onto a two-layer scratchpad and check bandwidth.
  const auto& aDesign =
      explorations[0].pareto[static_cast<std::size_t>(best.choice[0])];
  if (aDesign.chain.depth() > 0) {
    dr::hierarchy::PhysicalHierarchy phys;
    phys.layerSizes = {512, 32};
    auto mapped = dr::hierarchy::collapseOnto(aDesign.chain, phys);
    EXPECT_TRUE(mapped.validate().empty());
    auto loads = dr::scbd::chainLoads(mapped);
    EXPECT_GE(loads.size(), 1u);
    EXPECT_GE(dr::scbd::minimalCycleBudget(
                  mapped, std::vector<i64>(loads.size(), 1)),
              1);
  }
}

TEST(EndToEnd, LifetimeBoundsMatchExecutorOccupancy) {
  // The in-place lower bound (max simultaneously live elements, DTSE step
  // 6 flavor) can never exceed the analytic copy size for the window
  // pattern, and the OPT saturation size can never exceed either.
  auto p = dr::test::genericDoubleLoop({0, 19, 0, 7}, 1, 1);
  dr::trace::AddressMap map(p);
  auto t = dr::trace::readTrace(p, map, 0);
  auto m = dr::analytic::analyzePair(p.nests[0], p.nests[0].body[0], 0);
  ASSERT_TRUE(m.hasReuse);
  auto lifetimes = dr::trace::analyzeLifetimes(t);
  EXPECT_LE(dr::simcore::optSaturationSize(t), m.AMax);
  EXPECT_GE(lifetimes.maxLive, dr::simcore::optSaturationSize(t));
}

}  // namespace

// ---------------------------------------------------------------------------
// Producer/consumer programs: an intermediate signal written by one nest
// and read by the next (the shape of the paper's multi-stage motivating
// applications, e.g. the H.263 decoder pipeline).

namespace {

TEST(EndToEnd, IntermediateSignalAcrossNests) {
  auto p = dr::frontend::compileKernel(R"(
    kernel producer_consumer {
      param N = 16;
      array src[N][N] bits 8;
      array T[N][N] bits 16;
      loop y = 0 .. N - 1 {           # stage 1: produce T
        loop x = 0 .. N - 1 {
          read src[y][x];
          write T[y][x];
        }
      }
      loop y2 = 1 .. N - 2 {          # stage 2: 3x1 vertical filter on T
        loop x2 = 0 .. N - 1 {
          loop dy = -1 .. 1 {
            read T[y2 + dy][x2];
          }
        }
      }
    })");

  // Stage 1 writes each T element exactly once: single assignment holds.
  dr::trace::AddressMap map(p);
  EXPECT_TRUE(dr::trace::checkSingleAssignment(p, map).empty());

  // The reuse exploration only sees stage 2's reads of T.
  auto ex = dr::explorer::exploreSignal(p, p.findSignal("T"));
  dr::explorer::designChains(p, ex);
  EXPECT_EQ(ex.Ctot, 14LL * 16 * 3);
  ASSERT_FALSE(ex.combinedPoints.empty());
  ASSERT_FALSE(ex.pareto.empty());

  // The vertical 3-tap filter reuses two of three reads: max F_R ~ 3.
  double maxFr = 0;
  for (const auto& pt : ex.combinedPoints) maxFr = std::max(maxFr, pt.FR);
  EXPECT_GT(maxFr, 1.4);

  // Lifetime analysis of T (write-to-last-read): with the stages fully
  // serialized and every row read back (y2+dy spans 0..N-1), the whole T
  // is simultaneously live — fusing the stages, not in-place mapping, is
  // what would shrink this buffer.
  dr::trace::TraceFilter all;
  all.signal = p.findSignal("T");
  all.includeReads = true;
  all.includeWrites = true;
  auto t = dr::trace::collectTrace(p, map, all);
  auto stats = dr::trace::analyzeLifetimes(t);
  EXPECT_EQ(stats.maxLive, 16 * 16);  // every row is read back in stage 2
}

}  // namespace

// ---------------------------------------------------------------------------
// The umbrella header compiles and exposes the whole public API.

#include "datareuse.h"

namespace {

TEST(UmbrellaHeader, WholeApiReachable) {
  auto p = dr::kernels::conv2d({12, 12, 1});
  auto ex = dr::explorer::exploreSignal(p, p.findSignal("img"));
  std::string md = dr::report::signalReport(p, ex);
  EXPECT_FALSE(md.empty());
  EXPECT_FALSE(dr::loopir::toKernelSource(p).empty());
}

}  // namespace
