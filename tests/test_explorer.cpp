// End-to-end tests of the exploration facade: the curve stage (analytic
// -> knees -> simulate) plus designChains (chains -> Pareto) on the
// paper's test vehicles (scaled down so each test runs in milliseconds).

#include <gtest/gtest.h>

#include <cstdlib>

#include "explorer/explorer.h"
#include "kernels/conv2d.h"
#include "kernels/matmul.h"
#include "kernels/motion_estimation.h"
#include "kernels/susan.h"
#include "kernels/wavelet.h"
#include "support/contracts.h"

namespace {

using namespace dr::explorer;
using dr::support::i64;

TEST(Explorer, MotionEstimationEndToEnd) {
  dr::kernels::MotionEstimationParams mp;
  mp.H = 32;
  mp.W = 32;
  mp.n = 4;
  mp.m = 4;
  auto p = dr::kernels::motionEstimation(mp);
  SignalExploration ex = exploreSignal(p, p.findSignal("Old"));

  EXPECT_EQ(ex.signalName, "Old");
  EXPECT_EQ(ex.Ctot, 8LL * 8 * 8 * 8 * 4 * 4);
  EXPECT_EQ(ex.distinctElements, 39LL * 39);  // (H+2m-1)^2

  // Analytic points exist and include the level-3 maximum (A = n*(n-1)).
  ASSERT_EQ(ex.accesses.size(), 1u);
  bool l3max = false;
  for (const auto& pt : ex.combinedPoints)
    if (pt.gamma == -1 && pt.size == 4 * 3) l3max = true;
  EXPECT_TRUE(l3max);

  // The simulated curve is monotone and contains the analytic sizes.
  ASSERT_FALSE(ex.simulatedCurve.points.empty());
  bool found = false;
  for (const auto& sp : ex.simulatedCurve.points)
    if (sp.size == 12) {
      found = true;
      // Analytic reuse factor must sit on (not above) the Belady curve.
      for (const auto& ap : ex.combinedPoints)
        if (ap.size == 12 && !ap.bypass) {
          EXPECT_LE(ap.FR, sp.reuseFactor + 1e-9);
        }
    }
  EXPECT_TRUE(found);

  // Working-set knees: one nest, levels 0..5, knee 0 = whole footprint.
  ASSERT_EQ(ex.kneesPerNest.size(), 1u);
  EXPECT_EQ(ex.kneesPerNest[0].size(), 6u);
  EXPECT_EQ(ex.kneesPerNest[0][0].workingSetMax, ex.distinctElements);
  EXPECT_EQ(ex.kneesPerNest[0][0].misses, ex.distinctElements);

  // Chains exist, all valid, Pareto front non-trivial and improving. The
  // curve stage designs none; designChains does.
  EXPECT_TRUE(ex.chains.empty());
  EXPECT_TRUE(ex.pareto.empty());
  designChains(p, ex);
  ASSERT_GT(ex.chains.size(), 1u);
  for (const auto& d : ex.chains) EXPECT_TRUE(d.chain.validate().empty());
  ASSERT_GE(ex.pareto.size(), 2u);
  EXPECT_LT(ex.pareto.back().cost.normalizedPower, 0.7)
      << "hierarchy must cut power substantially";
  for (std::size_t i = 1; i < ex.pareto.size(); ++i)
    EXPECT_LT(ex.pareto[i].cost.power, ex.pareto[i - 1].cost.power);
}

TEST(Explorer, SusanCombinedCurve) {
  dr::kernels::SusanParams sp;
  sp.H = 32;
  sp.W = 32;
  auto p = dr::kernels::susan(sp);
  SignalExploration ex = exploreSignal(p, p.findSignal("image"));

  EXPECT_EQ(ex.accesses.size(), 7u);  // one per mask row
  // Combined points sum the per-row copy candidates.
  ASSERT_FALSE(ex.combinedPoints.empty());
  for (const auto& pt : ex.combinedPoints) {
    EXPECT_GT(pt.size, 0);
    EXPECT_GT(pt.FR, 1.0);
    EXPECT_NE(pt.label.find("combined"), std::string::npos);
  }
  // Bypass combined points must dominate non-bypass at equal gamma in
  // reuse factor (Section 6.2's conclusion).
  for (const auto& a : ex.combinedPoints)
    if (a.bypass)
      for (const auto& b : ex.combinedPoints)
        if (!b.bypass && b.gamma == a.gamma && a.gamma >= 0) {
          EXPECT_GT(a.FR, b.FR);
        }

  // Chains were built (per-nest knees are not combined for multi-nest
  // signals, but the analytic candidates are).
  designChains(p, ex);
  EXPECT_GT(ex.chains.size(), 1u);
  EXPECT_GE(ex.pareto.size(), 1u);
}

TEST(Explorer, MatmulBothSignals) {
  dr::kernels::MatmulParams mp;
  mp.N = 12;
  mp.K = 10;
  auto p = dr::kernels::matmul(mp);

  SignalExploration a = exploreSignal(p, p.findSignal("A"));
  // A[i][k] in pair (j,k): b'=0, c'=1, A_Max = K, F = N.
  bool rowPoint = false;
  for (const auto& pt : a.combinedPoints)
    if (pt.gamma == -1 && pt.size == 10) {
      rowPoint = true;
      EXPECT_NEAR(pt.FR, 12.0, 1e-9);
    }
  EXPECT_TRUE(rowPoint);

  SignalExploration b = exploreSignal(p, p.findSignal("B"));
  // B[k][j]: whole-matrix reuse across i (level 0, size repeat over j).
  bool wholeB = false;
  for (const auto& pt : b.combinedPoints)
    if (pt.gamma == -1 && pt.size == 10 * 12) {
      wholeB = true;
      EXPECT_NEAR(pt.FR, 12.0, 1e-9);
    }
  EXPECT_TRUE(wholeB);
}

TEST(Explorer, Conv2dImageReuse) {
  dr::kernels::Conv2dParams cp;
  cp.H = 20;
  cp.W = 20;
  cp.R = 1;
  auto p = dr::kernels::conv2d(cp);
  SignalExploration img = exploreSignal(p, p.findSignal("img"));
  EXPECT_FALSE(img.combinedPoints.empty());
  // w[] is Scalar in the (x,..,dx) pair: a 9-element copy reused per pixel.
  SignalExploration w = exploreSignal(p, p.findSignal("w"));
  bool coeffs = false;
  for (const auto& pt : w.combinedPoints)
    if (pt.size == 9) coeffs = true;
  EXPECT_TRUE(coeffs);
}

TEST(Explorer, AnalyticOnlyMode) {
  auto p = dr::kernels::motionEstimation({32, 32, 4, 4});
  ExploreOptions opts;
  opts.runSimulation = false;
  opts.includeWorkingSetKnees = false;
  SignalExploration ex = exploreSignal(p, p.findSignal("Old"), opts);
  EXPECT_TRUE(ex.simulatedCurve.points.empty());
  EXPECT_TRUE(ex.kneesPerNest.empty());
  EXPECT_FALSE(ex.combinedPoints.empty());
  designChains(p, ex, opts);
  EXPECT_FALSE(ex.chains.empty());
}

TEST(Explorer, SignalWithoutReads) {
  auto p = dr::kernels::motionEstimation({16, 16, 4, 2, true});
  EXPECT_THROW(exploreSignal(p, p.findSignal("Dist")),
               dr::support::ContractViolation);
  EXPECT_THROW(exploreSignal(p, 99), dr::support::ContractViolation);
}

TEST(Explorer, CandidatesConserveReads) {
  auto p = dr::kernels::motionEstimation({32, 32, 4, 4});
  SignalExploration ex = exploreSignal(p, p.findSignal("Old"));
  for (const auto& pt : ex.combinedPoints)
    EXPECT_EQ(pt.CtotCopyTotal + pt.CtotBypassTotal, ex.Ctot);
}

}  // namespace

// ---------------------------------------------------------------------------
// Loop interchange and the per-ordering reuse decision (Section 3 step 3).

#include "loopir/permute.h"

namespace {

TEST(Permute, RemapsCoefficientsAndTrace) {
  auto p = dr::kernels::matmul({6, 5});
  const auto& nest = p.nests[0];
  // Interchange j and k: (i, j, k) -> (i, k, j).
  auto swapped = dr::loopir::permuted(nest, {0, 2, 1});
  EXPECT_EQ(swapped.loops[1].name, "k");
  EXPECT_EQ(swapped.loops[2].name, "j");
  // A[i][k] now depends on the *middle* loop.
  EXPECT_EQ(swapped.body[0].indices[1].coeff(1), 1);
  EXPECT_EQ(swapped.body[0].indices[1].coeff(2), 0);
  EXPECT_EQ(swapped.iterationCount(), nest.iterationCount());

  // Identity permutation is a no-op.
  auto same = dr::loopir::permuted(nest, {0, 1, 2});
  EXPECT_EQ(same.body[0].indices[1].coeff(2),
            nest.body[0].indices[1].coeff(2));
  EXPECT_THROW(dr::loopir::permuted(nest, {0, 0, 1}),
               dr::support::ContractViolation);
}

TEST(Permute, OrderingEnumeration) {
  EXPECT_EQ(dr::loopir::loopOrderings(3).size(), 6u);
  EXPECT_EQ(dr::loopir::loopOrderings(4, 2).size(), 2u);
  EXPECT_EQ(dr::loopir::loopOrderings(1).size(), 1u);
  // Fixed prefix really is fixed.
  for (const auto& perm : dr::loopir::loopOrderings(4, 2)) {
    EXPECT_EQ(perm[0], 0);
    EXPECT_EQ(perm[1], 1);
  }
}

TEST(OrderingSweep, MatmulFindsRegisterReuseOrdering) {
  // A[i][k] reuse depends on the ordering: with j innermost the access is
  // invariant in the inner loop and a single register reaches F_R = N —
  // the sweep must discover that, beating the K-word row buffer of the
  // textbook (i,j,k) order at equal misses.
  auto p = dr::kernels::matmul({8, 6});
  auto results = dr::explorer::orderingSweep(p, p.findSignal("A"), 6);
  ASSERT_EQ(results.size(), 6u);
  ASSERT_TRUE(results.front().feasible);
  EXPECT_NEAR(results.front().bestFR, 8.0, 1e-9);
  EXPECT_EQ(results.front().bestSize, 1);  // j innermost: one register
  EXPECT_EQ(results.front().bestMisses, 48);  // compulsory only
  // Feasible orderings are sorted by background transfers, and some
  // ordering must be strictly worse than the best (k outermost streams A).
  bool strictlyWorse = false;
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (!results[i].feasible) continue;
    EXPECT_GE(results[i].bestMisses, results[i - 1].feasible
                                         ? results[i - 1].bestMisses
                                         : 0);
    if (results[i].bestMisses > results.front().bestMisses)
      strictlyWorse = true;
  }
  EXPECT_TRUE(strictlyWorse);
}

TEST(OrderingSweep, FixedPrefixRestricts) {
  auto p = dr::kernels::matmul({8, 6});
  auto results = dr::explorer::orderingSweep(p, p.findSignal("A"), 6, 2);
  EXPECT_EQ(results.size(), 1u);  // only k free -> single ordering
}

TEST(OrderingSweep, RejectsMultiNestSignals) {
  auto p = dr::kernels::susan({16, 16});
  EXPECT_THROW(dr::explorer::orderingSweep(p, p.findSignal("image"), 64),
               dr::support::ContractViolation);
}

TEST(Explorer, MultiLevelCandidatesImproveChains) {
  // The ML L1 closed-form point must appear among the ME chain designs.
  auto p = dr::kernels::motionEstimation({32, 32, 4, 4});
  auto ex = dr::explorer::exploreSignal(p, p.findSignal("Old"));
  dr::explorer::designChains(p, ex);
  bool found = false;
  for (const auto& d : ex.chains)
    if (d.label.find("ML L") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Determinism: the parallel sweeps must be byte-identical to serial runs.

std::string describeExploration(const dr::explorer::SignalExploration& ex) {
  std::string s;
  auto add = [&s](auto v) { s += std::to_string(v) + ","; };
  add(ex.Ctot);
  add(ex.distinctElements);
  for (const auto& pt : ex.simulatedCurve.points) {
    add(pt.size);
    add(pt.writes);
    add(pt.reads);
    add(pt.reuseFactor);
  }
  for (const auto& a : ex.accesses) {
    add(a.nest);
    add(a.accessIndex);
    add(a.occurrences);
    add(a.Ctot);
    for (const auto& pt : a.points) {
      add(pt.size);
      add(pt.CjTotal);
      add(pt.FR);
      s += pt.label + ",";
    }
    for (const auto& pt : a.multiLevel) {
      add(pt.level);
      add(pt.size);
      add(pt.misses);
    }
  }
  for (const auto& pt : ex.combinedPoints) {
    add(pt.size);
    add(pt.FR);
    s += pt.label + ",";
  }
  for (const auto& d : ex.chains) {
    add(d.cost.power);
    add(d.cost.onChipSize);
    s += d.label + ",";
  }
  for (const auto& d : ex.pareto) {
    add(d.cost.power);
    add(d.cost.onChipSize);
    s += d.label + ",";
  }
  return s;
}

std::string describeOrderings(
    const std::vector<dr::explorer::OrderingResult>& rs) {
  std::string s;
  for (const auto& r : rs) {
    for (int l : r.perm) s += std::to_string(l);
    s += ":" + std::to_string(r.bestSize) + "/" +
         std::to_string(r.bestMisses) + "/" + std::to_string(r.bestFR) + "/" +
         std::to_string(r.feasible) + "/" + std::to_string(r.exact) + ";";
  }
  return s;
}

TEST(Explorer, ParallelOutputIdenticalToSerial) {
  auto p = dr::kernels::motionEstimation({32, 32, 4, 4});
  const int signal = p.findSignal("Old");
  auto exploreAndDesign = [&] {
    auto ex = dr::explorer::exploreSignal(p, signal);
    dr::explorer::designChains(p, ex);
    return ex;
  };

  setenv("DR_THREADS", "1", 1);
  std::string serialEx = describeExploration(exploreAndDesign());
  std::string serialOrd =
      describeOrderings(dr::explorer::orderingSweep(p, signal, 200));
  unsetenv("DR_THREADS");  // default: hardware concurrency

  std::string parallelEx = describeExploration(exploreAndDesign());
  std::string parallelOrd =
      describeOrderings(dr::explorer::orderingSweep(p, signal, 200));

  EXPECT_EQ(parallelEx, serialEx);
  EXPECT_EQ(parallelOrd, serialOrd);
}

}  // namespace

// ---------------------------------------------------------------------------
// Identical-index-expression merging (paper Section 6.4).

#include "frontend/frontend.h"

namespace {

TEST(Merging, IdenticalAccessesShareOneCopy) {
  // The same element is read twice per iteration: the copy is filled once
  // and serves both reads, doubling the reuse factor of every point.
  auto once = dr::frontend::compileKernel(R"(
    kernel single {
      array A[64];
      loop j = 0 .. 9 { loop k = 0 .. 4 { read A[j + k]; } }
    })");
  auto twice = dr::frontend::compileKernel(R"(
    kernel dup {
      array A[64];
      loop j = 0 .. 9 { loop k = 0 .. 4 {
        read A[j + k];
        read A[j + k];
      } }
    })");

  auto ex1 = dr::explorer::exploreSignal(once, 0);
  auto ex2 = dr::explorer::exploreSignal(twice, 0);
  ASSERT_EQ(ex2.accesses.size(), 1u);  // merged, not two copies
  EXPECT_EQ(ex2.accesses[0].occurrences, 2);
  EXPECT_EQ(ex2.Ctot, 2 * ex1.Ctot);

  // Same copy sizes, doubled reuse factors, same fills.
  ASSERT_EQ(ex1.combinedPoints.size(), ex2.combinedPoints.size());
  for (std::size_t i = 0; i < ex1.combinedPoints.size(); ++i) {
    EXPECT_EQ(ex2.combinedPoints[i].size, ex1.combinedPoints[i].size);
    EXPECT_EQ(ex2.combinedPoints[i].CjTotal, ex1.combinedPoints[i].CjTotal);
    EXPECT_NEAR(ex2.combinedPoints[i].FR, 2.0 * ex1.combinedPoints[i].FR,
                1e-9);
  }
  // Candidate conservation still holds with the multiplier.
  for (const auto& pt : ex2.combinedPoints)
    EXPECT_EQ(pt.CtotCopyTotal + pt.CtotBypassTotal, ex2.Ctot);
  // And the merged analysis beats the single-read one on the Belady curve
  // check: the simulated trace has both reads too.
  EXPECT_EQ(ex2.distinctElements, ex1.distinctElements);
}

TEST(Merging, DifferentExpressionsStaySeparate) {
  auto p = dr::kernels::waveletLifting({4, 16});
  auto ex = dr::explorer::exploreSignal(p, 0);
  EXPECT_EQ(ex.accesses.size(), 3u);  // 2i, 2i+1, 2i+2 are distinct
  for (const auto& a : ex.accesses) EXPECT_EQ(a.occurrences, 1);
}

}  // namespace
