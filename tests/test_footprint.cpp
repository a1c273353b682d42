// Tests for the closed-form multi-level footprint model (the paper's
// "multiple level hierarchies" extension): per-dimension reachable-offset
// shapes, shifted-overlap counting, and the multi-level design points
// validated against Belady simulation. The closed forms on the query path
// are pinned field for field to their walks: the per-carry-level fills to
// multiLevelPointsByWalk, the interval shapes to a per-offset
// construction, and the working-set knees (shape products or one counted
// translate window per level) to the per-element walk. An explore without
// simulation takes its distinct-element count from the level-0 windows;
// that count is pinned to the trace's.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <set>
#include <string>

#include "analytic/curve.h"
#include "analytic/footprint.h"
#include "explorer/explorer.h"
#include "frontend/frontend.h"
#include "helpers.h"
#include "kernels/conv2d.h"
#include "kernels/matmul.h"
#include "kernels/motion_estimation.h"
#include "kernels/susan.h"
#include "kernels/wavelet.h"
#include "loopir/normalize.h"
#include "simcore/buffer_sim.h"
#include "support/rng.h"
#include "trace/walker.h"

namespace {

using namespace dr::analytic;
namespace loopir = dr::loopir;
using dr::support::i64;
using dr::test::PairBox;

loopir::LoopNest simpleNest(std::vector<std::pair<i64, i64>> ranges) {
  loopir::LoopNest nest;
  int i = 0;
  for (auto [lo, hi] : ranges)
    nest.loops.push_back(loopir::Loop{"i" + std::to_string(i++), lo, hi, 1});
  return nest;
}

TEST(DimShapeTest, ContiguousWindow) {
  auto nest = simpleNest({{0, 4}});
  loopir::AffineExpr e;
  e.setCoeff(0, 1);
  DimShape s = dimShape(e, nest, 0);
  EXPECT_EQ(s.span, 5);
  EXPECT_EQ(s.count, 5);
  EXPECT_TRUE(s.contiguous);
  EXPECT_EQ(s.overlapWithShift(0), 5);
  EXPECT_EQ(s.overlapWithShift(2), 3);
  EXPECT_EQ(s.overlapWithShift(-2), 3);
  EXPECT_EQ(s.overlapWithShift(5), 0);
}

TEST(DimShapeTest, GappyStride) {
  // 2*x, x in [0,2]: offsets {0, 2, 4}.
  auto nest = simpleNest({{0, 2}});
  loopir::AffineExpr e;
  e.setCoeff(0, 2);
  DimShape s = dimShape(e, nest, 0);
  EXPECT_EQ(s.span, 5);
  EXPECT_EQ(s.count, 3);
  EXPECT_FALSE(s.contiguous);
  EXPECT_EQ(s.overlapWithShift(2), 2);  // {2,4} overlap {0,2}
  EXPECT_EQ(s.overlapWithShift(1), 0);  // odd shift misses entirely
}

TEST(DimShapeTest, TwoLoopsCombine) {
  // x + 4*y, x in [0,2], y in [0,1]: {0,1,2,4,5,6}.
  auto nest = simpleNest({{0, 1}, {0, 2}});
  loopir::AffineExpr e;
  e.setCoeff(0, 4);
  e.setCoeff(1, 1);
  DimShape s = dimShape(e, nest, 0);
  EXPECT_EQ(s.span, 7);
  EXPECT_EQ(s.count, 6);
  EXPECT_FALSE(s.contiguous);
  // Restricting to the inner loop only: {0,1,2}.
  DimShape inner = dimShape(e, nest, 1);
  EXPECT_EQ(inner.count, 3);
  EXPECT_TRUE(inner.contiguous);
}

/// Reference shape of `e` over loops [level, depth) of `nest`: every value
/// over the iterator box, as a set, against which count, span and the
/// overlap at every shift are checked.
void expectShapeMatchesOffsets(const loopir::AffineExpr& e,
                               const loopir::LoopNest& nest, int level,
                               const std::string& what) {
  SCOPED_TRACE(what);
  std::set<i64> values{0};
  for (int d = level; d < nest.depth(); ++d) {
    const loopir::Loop& loop = nest.loops[static_cast<std::size_t>(d)];
    std::set<i64> next;
    for (i64 k = 0; k < loop.tripCount(); ++k)
      for (i64 v : values) next.insert(v + e.coeff(d) * loop.valueAt(k));
    values = std::move(next);
  }
  const i64 lo = *values.begin();
  const i64 span = *values.rbegin() - lo + 1;
  const DimShape shape = dimShape(e, nest, level);
  ASSERT_EQ(shape.span, span);
  ASSERT_EQ(shape.count, static_cast<i64>(values.size()));
  EXPECT_EQ(shape.contiguous, shape.count == shape.span);
  EXPECT_EQ(shape.reachable.empty(), shape.contiguous);
  for (i64 delta = -span - 1; delta <= span + 1; ++delta) {
    i64 overlap = 0;
    for (i64 v : values) overlap += values.count(v + delta) ? 1 : 0;
    ASSERT_EQ(shape.overlapWithShift(delta), overlap) << "shift " << delta;
  }
}

TEST(DimShapeTest, IntervalPathMatchesPerOffsetConstruction) {
  auto expr = [](std::vector<i64> coeffs) {
    loopir::AffineExpr e(3);
    for (std::size_t d = 0; d < coeffs.size(); ++d)
      e.setCoeff(static_cast<int>(d), coeffs[d]);
    return e;
  };
  // {0,2,4}: one stride-2 term is sparse from the start.
  expectShapeMatchesOffsets(expr({2}), simpleNest({{0, 2}}), 0, "{0,2,4}");
  // {0,1,3,4}: the stride-3 term steps past the reach 2 of the first.
  expectShapeMatchesOffsets(expr({3, 1}), simpleNest({{0, 1}, {0, 1}}), 0,
                            "{0,1,3,4}");
  // An interval only in ascending order: stride 2 (trip 3) after stride 1
  // (trip 2) covers [0, 5].
  expectShapeMatchesOffsets(expr({2, 1}), simpleNest({{0, 2}, {0, 1}}), 0,
                            "ascending order");
  // Single-trip terms add nothing, whatever their stride.
  expectShapeMatchesOffsets(expr({9, 1, -40}),
                            simpleNest({{4, 4}, {0, 3}, {-2, -2}}), 0,
                            "single-trip strides");
  expectShapeMatchesOffsets(expr({9, 2}), simpleNest({{4, 4}, {0, 3}}), 0,
                            "single-trip stride, sparse rest");
  // Steps scale the stride: i in -3..3 step 3 with coefficient 1 is
  // {0,3,6}; the stride-1 loop of trip 3 fills it to [0, 8].
  loopir::LoopNest stepped = simpleNest({{0, 2}});
  stepped.loops.insert(stepped.loops.begin(), loopir::Loop{"s", -3, 3, 3});
  expectShapeMatchesOffsets(expr({1}), stepped, 0, "step 3 alone");
  expectShapeMatchesOffsets(expr({1, 1}), stepped, 0, "step 3 filled");
  expectShapeMatchesOffsets(expr({-1, 2}), stepped, 0, "step 3, stride 2");

  dr::support::Rng rng(0x5348415045);
  for (int trial = 0; trial < 400; ++trial) {
    const int depth = static_cast<int>(rng.uniform(1, 4));
    loopir::LoopNest nest;
    loopir::AffineExpr e(rng.uniform(-3, 3));
    for (int d = 0; d < depth; ++d) {
      const i64 step = rng.uniform(0, 3) == 0 ? rng.uniform(-3, 3) | 1 : 1;
      const i64 begin = rng.uniform(-3, 3);
      const i64 trip = rng.uniform(1, 6);
      nest.loops.push_back(loopir::Loop{"i" + std::to_string(d), begin,
                                        begin + step * (trip - 1), step});
      e.setCoeff(d, rng.uniform(0, 3) == 0 ? 0 : rng.uniform(-5, 5));
    }
    expectShapeMatchesOffsets(e, nest, static_cast<int>(rng.uniform(0, depth)),
                              "trial " + std::to_string(trial));
  }
}

TEST(DimShapeTest, NegativeCoefficientsMirror) {
  auto nest = simpleNest({{0, 2}});
  loopir::AffineExpr pos;
  pos.setCoeff(0, 2);
  loopir::AffineExpr neg;
  neg.setCoeff(0, -2);
  DimShape a = dimShape(pos, nest, 0);
  DimShape b = dimShape(neg, nest, 0);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.span, b.span);
  EXPECT_EQ(a.overlapWithShift(2), b.overlapWithShift(2));
}

TEST(MultiLevel, MotionEstimationClosedForms) {
  // Full paper-scale kernel: the closed forms must reproduce the measured
  // curve values (EXPERIMENTS.md): footprint of one block row of windows
  // is (2m+n-1) x (W+2m-1) = 23*191 = 4393 with 30369 fills (= the
  // distinct element count: perfect inter-row overlap accounting).
  auto p = dr::kernels::motionEstimation({});
  auto pts = multiLevelPoints(p.nests[0],
                              p.nests[0].body[dr::kernels::oldAccessIndex()]);
  ASSERT_EQ(pts.size(), 6u);
  EXPECT_EQ(pts[0].size, 159 * 191);
  EXPECT_EQ(pts[0].misses, 159 * 191);
  EXPECT_EQ(pts[1].size, 23 * 191);   // A_1 knee
  EXPECT_EQ(pts[1].misses, 159 * 191);  // exact overlap: compulsory only
  EXPECT_EQ(pts[2].size, 23 * 23);    // A_2 knee
  EXPECT_EQ(pts[3].size, 8 * 23);     // A_3 knee
  EXPECT_EQ(pts[4].size, 8 * 8);
  for (const auto& pt : pts) EXPECT_TRUE(pt.exact);
  // Reuse factors decrease monotonically with level.
  for (std::size_t i = 1; i < pts.size(); ++i)
    EXPECT_LE(pts[i].FR.toDouble(), pts[i - 1].FR.toDouble() + 1e-9);
}

TEST(MultiLevel, PointsAreFeasibleAgainstBelady) {
  // Property: a buffer of the footprint size can achieve the predicted
  // fill count, so OPT at that size can only do better.
  dr::kernels::MotionEstimationParams mp{32, 32, 4, 4};
  auto p = dr::kernels::motionEstimation(mp);
  dr::trace::AddressMap map(p);
  auto t = dr::trace::readTrace(p, map, p.findSignal("Old"));
  auto nu = dr::simcore::computeNextUse(t);
  auto pts = multiLevelPoints(p.nests[0],
                              p.nests[0].body[dr::kernels::oldAccessIndex()]);
  for (const auto& pt : pts) {
    auto sim = dr::simcore::simulateOpt(t, pt.size, nu);
    EXPECT_LE(sim.misses, pt.misses) << "level " << pt.level;
    EXPECT_GE(pt.misses, t.distinctCount()) << "level " << pt.level;
  }
  // Level 1's overlap accounting is exact here (monotone row scans).
  EXPECT_EQ(pts[1].misses,
            dr::simcore::simulateOpt(t, pts[1].size, nu).misses);
}

class FootprintVsOpt : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FootprintVsOpt, RandomAffineAccesses) {
  dr::support::Rng rng(GetParam());
  PairBox box{0, rng.uniform(3, 10), 0, rng.uniform(3, 10)};
  auto p = dr::test::genericDoubleLoop(
      box, std::vector<dr::test::DimCoeffs>{
               {rng.uniform(-2, 2), rng.uniform(-2, 2), 0},
               {rng.uniform(-2, 2), rng.uniform(-2, 2), 0}});
  auto pts = multiLevelPoints(p.nests[0], p.nests[0].body[0]);
  dr::trace::AddressMap map(p);
  auto t = dr::trace::readTrace(p, map, 0);
  for (const auto& pt : pts) {
    if (!pt.exact) continue;
    EXPECT_EQ(pt.Ctot, t.length());
    auto sim = dr::simcore::simulateOpt(t, std::max<i64>(pt.size, 1));
    EXPECT_LE(sim.misses, pt.misses)
        << "level " << pt.level << " size " << pt.size;
    EXPECT_GE(pt.misses, t.distinctCount());
  }
  // Level 0 is always the whole footprint = the distinct element count
  // when the dimension factorization applies.
  if (pts[0].exact) {
    EXPECT_EQ(pts[0].size, t.distinctCount());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FootprintVsOpt,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(MultiLevel, SharedIteratorFlagsApproximate) {
  // A[j+k][k]: both dimensions driven by k -> the product factorization
  // does not hold and the points must be flagged.
  auto p = dr::test::genericDoubleLoop(
      {0, 5, 0, 5},
      std::vector<dr::test::DimCoeffs>{{1, 1, 0}, {0, 1, 0}});
  auto pts = multiLevelPoints(p.nests[0], p.nests[0].body[0]);
  EXPECT_FALSE(pts[0].exact);
  // The innermost level's windows only involve k in both dims too.
  EXPECT_FALSE(pts[1].exact);
}

TEST(MultiLevel, Conv2dFootprints) {
  dr::kernels::Conv2dParams cp{16, 16, 1};
  auto p = dr::kernels::conv2d(cp);
  auto pts = multiLevelPoints(p.nests[0], p.nests[0].body[0]);  // img
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0].size, 16 * 16);   // whole image
  EXPECT_EQ(pts[1].size, 3 * 16);    // three rows per y
  EXPECT_EQ(pts[2].size, 3 * 3);     // window per (y,x)
  // Coefficient array: scalar footprint of the whole 3x3 at every level.
  auto wpts = multiLevelPoints(p.nests[0], p.nests[0].body[1]);
  EXPECT_EQ(wpts[0].size, 9);
  EXPECT_EQ(wpts[1].size, 9);
  EXPECT_EQ(wpts[2].size, 9);
  EXPECT_EQ(wpts[3].size, 3);
}

TEST(MultiLevel, EightKFrameCountsStayExact) {
  // Overflow regression for the audited checked-arithmetic paths: a
  // 256-frame sweep over 8K frames (7680x4320) pushes Ctot, the level-0
  // footprint, and every per-level miss accumulation to 8,493,465,600 —
  // past 32 bits — and each must come through exact, not wrapped. (The
  // per-dimension access keeps the outer walks to ~1M tuples, so the
  // test stays fast at full 8K magnitudes.)
  loopir::LoopNest nest;
  nest.loops = {loopir::Loop{"t", 0, 255, 1}, loopir::Loop{"y", 0, 4319, 1},
                loopir::Loop{"x", 0, 7679, 1}};
  loopir::ArrayAccess acc;
  acc.kind = loopir::AccessKind::Read;
  for (int d = 0; d < 3; ++d) {
    loopir::AffineExpr e;
    e.setCoeff(d, 1);
    acc.indices.push_back(e);
  }

  const i64 total = i64{256} * 4320 * 7680;  // 8,493,465,600
  auto pts = multiLevelPoints(nest, acc);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0].size, total);  // whole sequence resident at once
  EXPECT_EQ(pts[1].size, i64{4320} * 7680);  // one 8K frame
  EXPECT_EQ(pts[2].size, 7680);              // one row
  for (const auto& pt : pts) {
    EXPECT_TRUE(pt.exact);
    EXPECT_EQ(pt.Ctot, total);
    EXPECT_EQ(pt.misses, total);  // no cross-frame or cross-row overlap
  }
}

// --- working-set knees: one translate window per level vs the walk -------
//
// workingSetKnees counts one window per level where the group's outer
// address coefficients agree and walks the rest; workingSetKneesByWalk
// walks every event. Knee sizes feed the explorer's planned curve sizes
// on every path, the reference engines included, so this comparison is
// the only check that catches a wrong knee.

/// Every read group of every nest of `p` (all reads of one signal in one
/// nest, as the explorer groups them, and each read alone), on `p` and on
/// its normalized form. Returns the number of groups compared.
int expectKneesMatchWalk(const loopir::Program& p, const std::string& what) {
  int groups = 0;
  for (const loopir::Program& q : {p, loopir::normalized(p)}) {
    const dr::trace::AddressMap map(q);
    auto compare = [&](int n, const std::vector<int>& group) {
      const auto fast = workingSetKnees(q, map, n, group);
      const auto walk = workingSetKneesByWalk(q, map, n, group);
      ASSERT_EQ(fast.size(), walk.size()) << what;
      for (std::size_t l = 0; l < fast.size(); ++l) {
        SCOPED_TRACE(what + " nest " + std::to_string(n) + " first access " +
                     std::to_string(group.front()) + " of " +
                     std::to_string(group.size()) + ", level " +
                     std::to_string(l));
        EXPECT_EQ(fast[l].level, walk[l].level);
        EXPECT_EQ(fast[l].workingSetMax, walk[l].workingSetMax);
        EXPECT_EQ(fast[l].misses, walk[l].misses);
        EXPECT_EQ(fast[l].Ctot, walk[l].Ctot);
        EXPECT_EQ(fast[l].FR, walk[l].FR);
      }
      ++groups;
    };
    for (std::size_t n = 0; n < q.nests.size(); ++n) {
      const loopir::LoopNest& nest = q.nests[n];
      for (std::size_t s = 0; s < q.signals.size(); ++s) {
        std::vector<int> group;
        for (std::size_t a = 0; a < nest.body.size(); ++a)
          if (nest.body[a].signal == static_cast<int>(s) &&
              nest.body[a].kind == loopir::AccessKind::Read)
            group.push_back(static_cast<int>(a));
        if (group.empty()) continue;
        compare(static_cast<int>(n), group);
        if (group.size() > 1)
          for (int a : group) compare(static_cast<int>(n), {a});
      }
    }
  }
  return groups;
}

TEST(KneeOracle, BuiltInKernels) {
  expectKneesMatchWalk(dr::kernels::motionEstimation({32, 32, 4, 4}), "me");
  expectKneesMatchWalk(dr::kernels::motionEstimation({24, 40, 8, 3}),
                       "me 24x40");
  expectKneesMatchWalk(dr::kernels::conv2d({20, 18, 2}), "conv2d");
  expectKneesMatchWalk(dr::kernels::matmul({12, 10}), "matmul");
  expectKneesMatchWalk(dr::kernels::susan({24, 20}), "susan");
  expectKneesMatchWalk(dr::kernels::waveletLifting({8, 16}), "wavelet");
}

TEST(KneeOracle, ExampleKernelFiles) {
  for (const char* name : {"hfilter", "downsample", "matvec"}) {
    const std::string path =
        std::string(DR_EXAMPLE_KERNELS_DIR) + "/" + name + ".krn";
    EXPECT_GT(expectKneesMatchWalk(dr::frontend::compileKernelFile(path), name),
              0);
  }
}

/// The eight cold-mix families of the exploration benchmark, parameters
/// drawn from the same ranges (unscaled).
loopir::Program drawColdMixKernel(int family, dr::support::Rng& rng) {
  auto param = [](const char* name, i64 v) {
    return std::string("param ") + name + " = " + std::to_string(v) + "; ";
  };
  switch (family) {
    case 0:
      return dr::kernels::motionEstimation(
          {4 * rng.uniform(3, 24), 4 * rng.uniform(3, 24),
           2 * rng.uniform(1, 2), rng.uniform(1, 3)});
    case 1:
      return dr::kernels::conv2d(
          {rng.uniform(12, 40), rng.uniform(12, 40), rng.uniform(1, 2)});
    case 2:
      return dr::kernels::matmul({rng.uniform(6, 40), rng.uniform(6, 40)});
    case 3:
      return dr::kernels::susan({rng.uniform(10, 50), rng.uniform(10, 50)});
    case 4:
      return dr::kernels::waveletLifting(
          {rng.uniform(6, 60), 2 * rng.uniform(6, 40)});
    case 5: {
      const i64 H = rng.uniform(8, 40), W = rng.uniform(12, 56),
                R = rng.uniform(1, 3);
      return dr::frontend::compileKernel(
          "kernel hfilter { " + param("H", H) + param("W", W) +
          param("R", R) +
          "array img[H][W]; loop y = 0 .. H - 1 { loop x = R .. W - 1 - R "
          "{ loop dx = -R .. R { read img[y][x + dx]; } } } }");
    }
    case 6: {
      const i64 N = rng.uniform(6, 32), M = rng.uniform(6, 40);
      return dr::frontend::compileKernel(
          "kernel matvec { " + param("N", N) + param("M", M) +
          "array A[N][M]; array x[M]; loop i = 0 .. N - 1 { loop j = 0 .. "
          "M - 1 { read A[i][j]; read x[j]; } } }");
    }
    default: {
      const i64 H = rng.uniform(10, 60), W = rng.uniform(10, 60);
      return dr::frontend::compileKernel(
          "kernel downsample { " + param("H", H) + param("W", W) +
          "array in[H][W]; loop y = 0 .. H - 3 step 2 { loop x = 0 .. W - "
          "3 step 2 { loop dy = 0 .. 2 { loop dx = 0 .. 2 { read in[y + "
          "dy][x + dx]; } } } } }");
    }
  }
}

TEST(KneeOracle, SeededColdMixFamilies) {
  dr::support::Rng rng(0x6b6e6565);
  for (int round = 0; round < 8; ++round)
    for (int family = 0; family < 8; ++family)
      expectKneesMatchWalk(drawColdMixKernel(family, rng),
                           "family " + std::to_string(family) + " round " +
                               std::to_string(round));
}

TEST(KneeOracle, MixedOuterCoefficientsFallBackToTheWalk) {
  // x[i] and x[j] disagree on i's coefficient, so the level-1 windows are
  // not translates: {i, 0..3} holds 4 elements for i < 4 and 5 after.
  const auto p = dr::frontend::compileKernel(R"(
    kernel mixed {
      array x[8];
      loop i = 0 .. 7 { loop j = 0 .. 3 { read x[i]; read x[j]; } }
    })");
  const dr::trace::AddressMap map(p);
  const auto knees = workingSetKnees(p, map, 0, {0, 1});
  ASSERT_EQ(knees.size(), 2u);
  EXPECT_EQ(knees[0].workingSetMax, 8);
  EXPECT_EQ(knees[0].misses, 8);
  EXPECT_EQ(knees[1].workingSetMax, 5);
  EXPECT_EQ(knees[1].misses, 4 * 4 + 4 * 5);
  EXPECT_EQ(knees[1].Ctot, 2 * 8 * 4);
  expectKneesMatchWalk(p, "mixed");

  // Agreement on the outer loop but not the middle one: level 1 is
  // counted, level 2 walked.
  expectKneesMatchWalk(dr::frontend::compileKernel(R"(
    kernel partial {
      array a[12][16];
      loop t = 0 .. 2 { loop i = 0 .. 5 { loop j = 0 .. 3 {
        read a[2 * t + i][j];
        read a[2 * t][j + i];
        read a[2 * t + 1][3 * j];
      } } }
    })"),
                       "partial");
}

TEST(KneeOracle, SparseWindowsCountWithoutABitmap) {
  // Level 0 spans ~300k addresses for 16 events: counted by sorting the
  // window's addresses instead of a bitmap over its range.
  const auto p = dr::frontend::compileKernel(R"(
    kernel sparse {
      array a[400000];
      loop i = 0 .. 3 { loop j = 0 .. 3 { read a[100000 * i + j]; } }
    })");
  const dr::trace::AddressMap map(p);
  const auto knees = workingSetKnees(p, map, 0, {0});
  ASSERT_EQ(knees.size(), 2u);
  EXPECT_EQ(knees[0].workingSetMax, 16);
  EXPECT_EQ(knees[1].workingSetMax, 4);
  expectKneesMatchWalk(p, "sparse");
}

TEST(KneeOracle, ZeroNegativeCoefficientsAndOffsetBegins) {
  expectKneesMatchWalk(dr::frontend::compileKernel(R"(
    kernel signs {
      param R = 2;
      array a[48];
      array b[12][12];
      loop i = 0 .. 5 {
        loop j = -R .. R {
          loop k = 1 .. 4 {
            read a[20 - 2 * i + j];
            read a[3 * k - j + 10];
            read a[0 * i + 7];
            read b[k][i];
            read b[5 - i][k + 3 - j];
            read b[k + 2][k + 2];
          }
        }
      }
    })"),
                       "signs");
  expectKneesMatchWalk(dr::frontend::compileKernel(R"(
    kernel steps {
      array a[64];
      loop i = 9 .. 1 step -2 { loop j = -3 .. 3 step 3 { loop k = 2 .. 6 {
        read a[4 * i - 2 * k + j + 20];
        read a[4 * i - 2 * k + j + 21];
      } } }
    })"),
                       "steps");
}

TEST(KneeOracle, ProductWindowsFromShapes) {
  // One access, and the same expression read twice: every window is the
  // product of the dimension shapes (a sparse stride-3 row at level 3).
  const auto p = dr::frontend::compileKernel(R"(
    kernel product {
      array a[40][48];
      loop t = 0 .. 3 { loop i = 0 .. 5 { loop j = -2 .. 2 { loop k = 0 .. 4 {
        read a[2 * t + i + 2][3 * k - j + 2];
        read a[2 * t + i + 2][3 * k - j + 2];
        read a[i + k][k];
      } } } }
    })");
  const dr::trace::AddressMap map(p);
  const loopir::LoopNest& nest = p.nests[0];
  for (const std::vector<int>& group :
       {std::vector<int>{0}, std::vector<int>{0, 1}}) {
    const auto knees = workingSetKnees(p, map, 0, group);
    const auto walk = workingSetKneesByWalk(p, map, 0, group);
    ASSERT_EQ(knees.size(), 4u);
    for (int l = 0; l < 4; ++l) {
      SCOPED_TRACE("group of " + std::to_string(group.size()) + ", level " +
                   std::to_string(l));
      const auto ul = static_cast<std::size_t>(l);
      const std::optional<i64> shaped = windowFootprint(nest, nest.body[0], l);
      ASSERT_TRUE(shaped.has_value());
      EXPECT_EQ(knees[ul].workingSetMax, *shaped);
      EXPECT_EQ(knees[ul].workingSetMax, walk[ul].workingSetMax);
      EXPECT_EQ(knees[ul].misses, walk[ul].misses);
      EXPECT_EQ(knees[ul].Ctot, walk[ul].Ctot);
      EXPECT_EQ(knees[ul].FR, walk[ul].FR);
    }
  }
  // Rows 2t+i+2 by columns 3k-j+2: 12 x 17 at level 0; 1 x {0,3,..,12}
  // at level 3.
  EXPECT_EQ(*windowFootprint(nest, nest.body[0], 0), 12 * 17);
  EXPECT_EQ(*windowFootprint(nest, nest.body[0], 3), 5);

  // a[i + k][k]: k drives both dimensions, so levels up to 3 are no
  // product (the shapes bound 10 x 5 = 50 tuples where 30 are read at
  // level 0) and count their first window instead.
  for (int l = 0; l < 4; ++l)
    EXPECT_FALSE(windowFootprint(nest, nest.body[2], l).has_value())
        << "level " << l;
  const auto coupled = workingSetKnees(p, map, 0, {2});
  EXPECT_EQ(coupled[0].workingSetMax, 30);
  EXPECT_EQ(coupled[3].workingSetMax, 5);
  expectKneesMatchWalk(p, "product");
}

// --- multi-level points: per-carry-level fills vs the outer walk ---------
//
// multiLevelPoints sums the fills over carry levels; multiLevelPointsByWalk
// walks every outer tuple. They must agree field for field on every read
// access, `exact` included, whether or not the factorization holds.

/// Every read access of every nest of normalized `p`. Returns the number
/// of accesses compared.
int expectMultiLevelMatchesWalk(const loopir::Program& p,
                                const std::string& what) {
  int accesses = 0;
  for (const loopir::LoopNest& nest : loopir::normalized(p).nests)
    for (std::size_t a = 0; a < nest.body.size(); ++a) {
      if (nest.body[a].kind != loopir::AccessKind::Read) continue;
      const auto fast = multiLevelPoints(nest, nest.body[a]);
      const auto walk = multiLevelPointsByWalk(nest, nest.body[a]);
      EXPECT_EQ(fast.size(), static_cast<std::size_t>(nest.depth())) << what;
      EXPECT_EQ(fast.size(), walk.size()) << what;
      for (std::size_t l = 0; l < std::min(fast.size(), walk.size()); ++l) {
        SCOPED_TRACE(what + " access " + std::to_string(a) + ", level " +
                     std::to_string(l));
        EXPECT_EQ(fast[l].level, walk[l].level);
        EXPECT_EQ(fast[l].size, walk[l].size);
        EXPECT_EQ(fast[l].misses, walk[l].misses);
        EXPECT_EQ(fast[l].Ctot, walk[l].Ctot);
        EXPECT_EQ(fast[l].FR, walk[l].FR);
        EXPECT_EQ(fast[l].exact, walk[l].exact);
      }
      ++accesses;
    }
  return accesses;
}

TEST(MultiLevelOracle, BuiltInKernels) {
  expectMultiLevelMatchesWalk(dr::kernels::motionEstimation({}), "me");
  expectMultiLevelMatchesWalk(dr::kernels::motionEstimation({24, 40, 8, 3}),
                              "me 24x40");
  expectMultiLevelMatchesWalk(dr::kernels::conv2d({20, 18, 2}), "conv2d");
  expectMultiLevelMatchesWalk(dr::kernels::matmul({12, 10}), "matmul");
  expectMultiLevelMatchesWalk(dr::kernels::susan({24, 20}), "susan");
  expectMultiLevelMatchesWalk(dr::kernels::waveletLifting({8, 16}),
                              "wavelet");
}

TEST(MultiLevelOracle, ExampleKernelFiles) {
  for (const char* name : {"hfilter", "downsample", "matvec"}) {
    const std::string path =
        std::string(DR_EXAMPLE_KERNELS_DIR) + "/" + name + ".krn";
    EXPECT_GT(expectMultiLevelMatchesWalk(
                  dr::frontend::compileKernelFile(path), name),
              0);
  }
}

TEST(MultiLevelOracle, SeededColdMixFamilies) {
  dr::support::Rng rng(0x6d6c6f72);
  for (int round = 0; round < 64; ++round)
    for (int family = 0; family < 8; ++family)
      expectMultiLevelMatchesWalk(drawColdMixKernel(family, rng),
                                  "family " + std::to_string(family) +
                                      " round " + std::to_string(round));
}

/// Every read signal of `p` explored without simulation: the footprint
/// from the level-0 windows equals the distinct count of the signal's
/// read trace. Returns the number of signals checked.
int expectNosimFootprintMatchesTrace(const loopir::Program& p,
                                     const std::string& what) {
  dr::explorer::ExploreOptions nosim;
  nosim.runSimulation = false;
  const loopir::Program pn = loopir::normalized(p);
  const dr::trace::AddressMap map(pn);
  int checked = 0;
  for (std::size_t s = 0; s < p.signals.size(); ++s) {
    const int signal = static_cast<int>(s);
    const dr::trace::Trace trace = dr::trace::readTrace(pn, map, signal);
    if (trace.length() == 0) continue;
    const auto ex = dr::explorer::exploreSignal(p, signal, nosim);
    EXPECT_EQ(ex.distinctElements, trace.distinctCount())
        << what << ", signal " << p.signals[s].name;
    EXPECT_EQ(ex.Ctot, trace.length()) << what;
    EXPECT_EQ(ex.simulationStats.totalEvents, trace.length()) << what;
    ++checked;
  }
  return checked;
}

TEST(AnalyticOnlyFootprint, BuiltInKernels) {
  int checked = 0;
  checked += expectNosimFootprintMatchesTrace(
      dr::kernels::motionEstimation({32, 32, 4, 4}), "me");
  checked += expectNosimFootprintMatchesTrace(
      dr::kernels::conv2d({20, 18, 2}), "conv2d");
  checked += expectNosimFootprintMatchesTrace(dr::kernels::matmul({12, 10}),
                                              "matmul");
  checked += expectNosimFootprintMatchesTrace(dr::kernels::susan({24, 20}),
                                              "susan");
  checked += expectNosimFootprintMatchesTrace(
      dr::kernels::waveletLifting({8, 16}), "wavelet");
  for (const char* name : {"hfilter", "downsample", "matvec"}) {
    const std::string path =
        std::string(DR_EXAMPLE_KERNELS_DIR) + "/" + name + ".krn";
    checked += expectNosimFootprintMatchesTrace(
        dr::frontend::compileKernelFile(path), name);
  }
  EXPECT_GE(checked, 10);
}

TEST(AnalyticOnlyFootprint, SeededColdMixFamilies) {
  dr::support::Rng rng(0x6e6f73696d);
  for (int round = 0; round < 8; ++round)
    for (int family = 0; family < 8; ++family)
      EXPECT_GT(expectNosimFootprintMatchesTrace(
                    drawColdMixKernel(family, rng),
                    "family " + std::to_string(family) + " round " +
                        std::to_string(round)),
                0);
}

TEST(AnalyticOnlyFootprint, MeNewCostsNoMoreWithoutSimulation) {
  // The paper's frame (144x176, n = m = 8). New is answered by the
  // symbolic rung, so skipping step 4 must never make the explore dearer.
  const auto p = dr::kernels::motionEstimation();
  const int signal = p.findSignal("New");
  dr::explorer::ExploreOptions full;
  dr::explorer::ExploreOptions nosim;
  nosim.runSimulation = false;
  const auto bestUs = [&](const dr::explorer::ExploreOptions& opts) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto ex = dr::explorer::exploreSignal(p, signal, opts);
    EXPECT_GT(ex.distinctElements, 0);
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  i64 fullUs = std::numeric_limits<i64>::max();
  i64 nosimUs = std::numeric_limits<i64>::max();
  for (int rep = 0; rep < 15; ++rep) {
    fullUs = std::min<i64>(fullUs, bestUs(full));
    nosimUs = std::min<i64>(nosimUs, bestUs(nosim));
  }
  EXPECT_LE(nosimUs, fullUs) << "best of 15: " << nosimUs
                             << " us without simulation, " << fullUs
                             << " us with it";
}

TEST(MultiLevelOracle, PreconditionBreakers) {
  // Two dimensions sharing an inner iterator: not exact, same numbers.
  const auto shared = dr::frontend::compileKernel(R"(
    kernel shared {
      array b[24][24];
      loop i = 0 .. 4 { loop j = 0 .. 3 { loop k = 0 .. 5 {
        read b[i + k + 2][2 * k - j + 3];
        read b[j + i][j + 1];
      } } }
    })");
  for (const auto& acc : shared.nests[0].body)
    EXPECT_FALSE(multiLevelPoints(shared.nests[0], acc).front().exact);
  expectMultiLevelMatchesWalk(shared, "shared iterator");
  expectMultiLevelMatchesWalk(
      dr::test::genericDoubleLoop(
          {0, 5, 0, 5}, std::vector<dr::test::DimCoeffs>{{1, 1, 0}, {0, 1, 0}}),
      "A[j+k][k]");

  // Zero and negative coefficients, offset begins, single-trip loops and
  // a stride-3 (sparse) dimension.
  expectMultiLevelMatchesWalk(dr::frontend::compileKernel(R"(
    kernel signs {
      array a[64];
      array b[16][40];
      loop t = 3 .. 3 { loop i = -2 .. 3 { loop u = 1 .. 1 { loop j = 1 .. 4 {
        read a[2 * t + 3 * i - j + 20];
        read a[0 * i + 7];
        read b[5 - i][30 - 2 * j];
        read b[u + i + 2][3 * j - 2 * i + 6];
        read b[i + 4][7 * u + j];
      } } } }
    })"),
                              "signs");
  expectMultiLevelMatchesWalk(dr::frontend::compileKernel(R"(
    kernel steps {
      array a[64];
      loop i = 9 .. 1 step -2 { loop j = -3 .. 3 step 3 { loop k = 2 .. 6 {
        read a[4 * i - 2 * k + j + 20];
      } } }
    })"),
                              "steps");

  // Depth 1: one level, the whole footprint filled once.
  const auto flat = dr::frontend::compileKernel(R"(
    kernel flat { array a[40]; loop i = 2 .. 11 { read a[3 * i + 1]; } })");
  EXPECT_EQ(expectMultiLevelMatchesWalk(flat, "depth 1"), 1);
  const auto pts = multiLevelPoints(flat.nests[0], flat.nests[0].body[0]);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].size, 10);
  EXPECT_EQ(pts[0].misses, 10);
}

}  // namespace
