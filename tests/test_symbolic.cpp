// Symbolic reuse-profile engine (analytic/symbolic_hist.h): the closed
// forms must be byte-identical to the brute-force stack accumulators on
// every covered kernel and every covered random nest, reject everything
// else with an actionable reason, reproduce the paper's Fig. 4a knees
// without walking a single trace event, and plug into the explorer as
// the top fidelity rung.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analytic/symbolic_curve.h"
#include "analytic/symbolic_hist.h"
#include "explorer/explorer.h"
#include "kernels/conv2d.h"
#include "kernels/matmul.h"
#include "kernels/motion_estimation.h"
#include "kernels/susan.h"
#include "kernels/wavelet.h"
#include "loopir/normalize.h"
#include "report/report.h"
#include "service/metrics.h"
#include "simcore/folded_curve.h"
#include "simcore/reuse_curve.h"
#include "simcore/stream_stack.h"
#include "trace/period.h"
#include "trace/stream.h"
#include "trace/walker.h"

namespace {

using dr::support::i64;
using dr::loopir::Program;
using dr::simcore::Policy;
using dr::simcore::StackHistogram;

/// Element-wise reference: the whole filtered read stream through the
/// plain stack accumulators.
StackHistogram brute(const Program& pn, int signal, Policy pol) {
  dr::trace::AddressMap map(pn);
  dr::trace::TraceFilter f;
  f.signal = signal;
  const auto [lo, hi] = [&] {
    dr::trace::TraceCursor c(pn, map, f);
    return c.addressRange();
  }();
  dr::simcore::LruStackAccumulator lru;
  dr::simcore::OptStackAccumulator opt;
  dr::simcore::StreamingDensifier den(lo, hi);
  dr::trace::walk(pn, map, f, [&](const dr::trace::AccessEvent& ev) {
    const i64 id = den.idOf(ev.address);
    if (pol == Policy::Lru)
      lru.push(id);
    else
      opt.push(id);
  });
  return pol == Policy::Lru ? lru.finalize() : opt.finalize();
}

void expectSameHist(const StackHistogram& a, const StackHistogram& b,
                    const std::string& tag) {
  EXPECT_EQ(a.accesses, b.accesses) << tag;
  EXPECT_EQ(a.coldMisses, b.coldMisses) << tag;
  EXPECT_EQ(a.histogram, b.histogram) << tag;
}

int sigOf(const Program& p, const char* name) {
  const int s = p.findSignal(name);
  EXPECT_GE(s, 0) << name;
  return s;
}

/// Symbolic must accept and match the brute-force histogram bin for bin.
void checkMatches(const Program& p, int signal, Policy pol,
                  const std::string& tag) {
  auto sym = dr::analytic::symbolicStackHistogram(p, signal, pol);
  ASSERT_TRUE(sym.hasValue()) << tag << ": " << sym.status().str();
  expectSameHist(sym->hist, brute(dr::loopir::normalized(p), signal, pol),
                 tag);
}

TEST(SymbolicVsBrute, MotionEstimationZoo) {
  struct MP { i64 H, W, n, m; };
  // Covers the explicit path, each single-axis banding, and both-axes
  // banding (272 is frame-scale relative to the 4/2 window geometry).
  for (MP mp : {MP{16, 16, 4, 2}, MP{24, 16, 4, 4}, MP{32, 32, 8, 2},
                MP{272, 16, 4, 2}, MP{16, 272, 4, 2}, MP{272, 272, 4, 2}}) {
    dr::kernels::MotionEstimationParams par;
    par.H = mp.H; par.W = mp.W; par.n = mp.n; par.m = mp.m;
    const Program p = dr::kernels::motionEstimation(par);
    const std::string tag = "ME " + std::to_string(mp.H) + "x" +
                            std::to_string(mp.W) + " n" +
                            std::to_string(mp.n) + " m" +
                            std::to_string(mp.m);
    // Old: sliding-window class, LRU only (OPT asserted separately).
    checkMatches(p, sigOf(p, "Old"), Policy::Lru, tag + " Old LRU");
    // New: cyclic class, policy-agnostic — both policies must hold.
    checkMatches(p, sigOf(p, "New"), Policy::Lru, tag + " New LRU");
    checkMatches(p, sigOf(p, "New"), Policy::Opt, tag + " New OPT");
  }
}

TEST(SymbolicVsBrute, Conv2dAndMatmul) {
  for (i64 HW : {8, 12}) {
    dr::kernels::Conv2dParams cp;
    cp.H = HW; cp.W = HW; cp.R = 1;
    const Program p = dr::kernels::conv2d(cp);
    const std::string tag = "conv2d " + std::to_string(HW);
    checkMatches(p, sigOf(p, "img"), Policy::Lru, tag + " img LRU");
    checkMatches(p, sigOf(p, "w"), Policy::Lru, tag + " w LRU");
    checkMatches(p, sigOf(p, "w"), Policy::Opt, tag + " w OPT");
  }
  dr::kernels::MatmulParams mp;
  mp.N = 5; mp.K = 4;
  const Program p = dr::kernels::matmul(mp);
  for (const char* sig : {"A", "B"}) {
    checkMatches(p, sigOf(p, sig), Policy::Lru,
                 std::string("matmul ") + sig + " LRU");
    checkMatches(p, sigOf(p, sig), Policy::Opt,
                 std::string("matmul ") + sig + " OPT");
  }
}

TEST(Symbolic, RejectionReasonsAreActionable) {
  // OPT on a sliding-window signal: slot occupancy drifts, only the LRU
  // closed form exists. The reason names both halves of the failure.
  {
    const Program p = dr::kernels::motionEstimation({});
    auto r = dr::analytic::symbolicStackHistogram(p, sigOf(p, "Old"),
                                                  Policy::Opt);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.status().code(), dr::support::StatusCode::InvalidInput);
    EXPECT_NE(r.status().message().find("LRU-only"), std::string::npos)
        << r.status().str();
  }
  // Wavelet lifting reads x[2*i + ...]: the level image has holes, the
  // sliding-window geometry does not apply.
  {
    const Program p = dr::kernels::waveletLifting({});
    auto r = dr::analytic::symbolicStackHistogram(p, sigOf(p, "x"),
                                                  Policy::Lru);
    ASSERT_FALSE(r.hasValue());
    EXPECT_NE(r.status().message().find("not dense"), std::string::npos)
        << r.status().str();
  }
  // SUSAN reads the image across a series of nests; the closed forms
  // cover one nest.
  {
    const Program p = dr::kernels::susan({});
    auto r = dr::analytic::symbolicStackHistogram(p, sigOf(p, "image"),
                                                  Policy::Lru);
    ASSERT_FALSE(r.hasValue());
    EXPECT_NE(r.status().message().find("single nest"), std::string::npos)
        << r.status().str();
  }
}

TEST(Symbolic, OutOfRangeFramesSurfaceAsStatus) {
  // Absurd frame sizes must come back as a checked status — a distance
  // past the histogram bound or an i64 overflow in the event count —
  // never as a wrong histogram or a crash.
  for (const i64 side : {i64{1} << 22, i64{1} << 31}) {
    dr::kernels::MotionEstimationParams par;
    par.H = side;
    par.W = side;
    const Program p = dr::kernels::motionEstimation(par);
    auto r = dr::analytic::symbolicStackHistogram(p, sigOf(p, "Old"),
                                                  Policy::Lru);
    ASSERT_FALSE(r.hasValue()) << side;
    EXPECT_TRUE(r.status().code() == dr::support::StatusCode::Overflow ||
                r.status().code() == dr::support::StatusCode::InvalidInput)
        << r.status().str();
  }
}

TEST(Symbolic, QcifMatchesFoldedLruAndQueryCostIsFrameIndependent) {
  // QCIF: the symbolic LRU curve must be byte-identical to the folded
  // LRU engine at every queried size.
  dr::kernels::MotionEstimationParams par;
  par.H = 144; par.W = 176; par.n = 8; par.m = 8;
  const Program p = dr::kernels::motionEstimation(par);
  const int old = sigOf(p, "Old");
  auto cur = dr::analytic::symbolicReuseCurve(p, old, Policy::Lru);
  ASSERT_TRUE(cur.hasValue()) << cur.status().str();

  const Program pn = dr::loopir::normalized(p);
  dr::trace::AddressMap map(pn);
  dr::trace::TraceFilter tf;
  tf.signal = old;
  dr::trace::TraceCursor cursor(pn, map, tf);
  const auto period = dr::trace::detectPeriod(cursor.nests());
  dr::simcore::FoldedStats stats;
  const StackHistogram h = dr::simcore::foldedStackHistogram(
      cursor, period, Policy::Lru, &stats, {});
  for (const auto& pt : cur->curve.points) {
    const auto r = h.resultAt(pt.size);
    EXPECT_EQ(pt.writes, r.misses) << "size " << pt.size;
    EXPECT_EQ(pt.reads, r.accesses) << "size " << pt.size;
    EXPECT_EQ(pt.fidelity, dr::simcore::Fidelity::Symbolic);
  }

  // Frame-size independence: the iteration-class space the engine
  // enumerates is a function of the window geometry, not the frame, so
  // the work (explicit cells) is identical from QCIF to 8K.
  dr::kernels::MotionEstimationParams hd = par;
  hd.H = 4320; hd.W = 7680;
  auto hdHist = dr::analytic::symbolicStackHistogram(
      dr::kernels::motionEstimation(hd), old, Policy::Lru);
  ASSERT_TRUE(hdHist.hasValue()) << hdHist.status().str();
  EXPECT_EQ(hdHist->explicitCells, cur->detail.explicitCells);
  EXPECT_EQ(hdHist->bandedLevels, cur->detail.bandedLevels);
}

TEST(Symbolic, MotionEstimationKneesQcif) {
  // The four discontinuities A_1..A_4 of Fig. 4a (FR 5.6 / ~32 / ~84 /
  // 213.6), reproduced from the symbolic engine's output alone — no
  // trace, no fold, no simulation anywhere in this test.
  dr::kernels::MotionEstimationParams par;
  par.H = 144; par.W = 176; par.n = 8; par.m = 8;
  const Program p = dr::kernels::motionEstimation(par);
  auto cur = dr::analytic::symbolicReuseCurve(p, sigOf(p, "Old"),
                                              Policy::Lru);
  ASSERT_TRUE(cur.hasValue()) << cur.status().str();

  const auto knees = dr::simcore::findKnees(cur->curve, 1.2);
  ASSERT_EQ(knees.size(), 4u);
  const i64 expectedLo[4] = {48, 150, 350, 2500};
  const i64 expectedHi[4] = {72, 240, 680, 4500};
  const double expectedFr[4] = {5.6, 32.0, 84.0, 213.6};
  const double frTol[4] = {0.5, 4.0, 6.0, 0.5};
  for (int i = 0; i < 4; ++i) {
    const auto& pt = cur->curve.points[knees[static_cast<std::size_t>(i)]];
    EXPECT_GE(pt.size, expectedLo[i]) << "knee " << i;
    EXPECT_LE(pt.size, expectedHi[i]) << "knee " << i;
    EXPECT_NEAR(pt.reuseFactor, expectedFr[i], frTol[i]) << "knee " << i;
  }
}

TEST(ExplorerSymbolic, AutoUpgradesCoveredSignalsToSymbolic) {
  // ME New is cyclic under both policies: the Auto engine answers it
  // symbolically — zero simulated events, exact, top rung.
  dr::kernels::MotionEstimationParams par;
  par.H = 32; par.W = 32; par.n = 4; par.m = 2;
  const Program p = dr::kernels::motionEstimation(par);
  const int sig = sigOf(p, "New");

  dr::explorer::ExploreOptions opts;
  const auto ex = dr::explorer::exploreSignal(p, sig, opts);
  EXPECT_EQ(ex.curveFidelity, dr::simcore::Fidelity::Symbolic);
  EXPECT_EQ(ex.simulationStats.fidelity, dr::simcore::Fidelity::Symbolic);
  EXPECT_EQ(ex.simulationStats.simulatedEvents, 0);
  EXPECT_TRUE(ex.simulationStats.exact);
  EXPECT_TRUE(ex.simulationStats.completed);
  for (const auto& pt : ex.simulatedCurve.points)
    EXPECT_EQ(pt.fidelity, dr::simcore::Fidelity::Symbolic);

  // Byte-identity with the forced streaming pipeline: same sizes, same
  // counts, only the fidelity tag differs.
  dr::explorer::ExploreOptions stream = opts;
  stream.engine = dr::explorer::SimEngine::Streaming;
  const auto ref = dr::explorer::exploreSignal(p, sig, stream);
  ASSERT_EQ(ex.simulatedCurve.points.size(),
            ref.simulatedCurve.points.size());
  for (std::size_t i = 0; i < ex.simulatedCurve.points.size(); ++i) {
    EXPECT_EQ(ex.simulatedCurve.points[i].size,
              ref.simulatedCurve.points[i].size);
    EXPECT_EQ(ex.simulatedCurve.points[i].writes,
              ref.simulatedCurve.points[i].writes);
    EXPECT_EQ(ex.simulatedCurve.points[i].reads,
              ref.simulatedCurve.points[i].reads);
  }
  EXPECT_EQ(ex.Ctot, ref.Ctot);
  EXPECT_EQ(ex.distinctElements, ref.distinctElements);
}

TEST(ExplorerSymbolic, AutoFallsBackWhereClosedFormsDoNotApply) {
  // ME Old is sliding-window (LRU-only), so the OPT sweep cannot use the
  // symbolic engine: Auto falls through to the fold, same as before.
  dr::kernels::MotionEstimationParams par;
  par.H = 32; par.W = 32; par.n = 4; par.m = 2;
  const Program p = dr::kernels::motionEstimation(par);
  const auto ex = dr::explorer::exploreSignal(p, sigOf(p, "Old"), {});
  EXPECT_NE(ex.curveFidelity, dr::simcore::Fidelity::Symbolic);
  EXPECT_GT(ex.simulationStats.simulatedEvents, 0);
}

TEST(ExplorerSymbolic, StrictEngineRejectsUncoveredSignals) {
  const Program p = dr::kernels::susan({});
  dr::explorer::ExploreOptions opts;
  opts.engine = dr::explorer::SimEngine::Symbolic;
  auto ex = dr::explorer::exploreSignalChecked(p, sigOf(p, "image"), opts);
  ASSERT_FALSE(ex.hasValue());
  EXPECT_EQ(ex.status().code(), dr::support::StatusCode::InvalidInput);
  EXPECT_NE(ex.status().message().find("symbolic"), std::string::npos)
      << ex.status().str();
}

TEST(ExplorerSymbolic, StrictEngineMatchesStreamingCounts) {
  dr::kernels::Conv2dParams cp;
  cp.H = 16; cp.W = 16; cp.R = 1;
  const Program p = dr::kernels::conv2d(cp);
  const int sig = sigOf(p, "w");

  dr::explorer::ExploreOptions symOpts;
  symOpts.engine = dr::explorer::SimEngine::Symbolic;
  auto sym = dr::explorer::exploreSignalChecked(p, sig, symOpts);
  ASSERT_TRUE(sym.hasValue()) << sym.status().str();

  dr::explorer::ExploreOptions strOpts;
  strOpts.engine = dr::explorer::SimEngine::Streaming;
  auto str = dr::explorer::exploreSignalChecked(p, sig, strOpts);
  ASSERT_TRUE(str.hasValue()) << str.status().str();

  ASSERT_EQ(sym->simulatedCurve.points.size(),
            str->simulatedCurve.points.size());
  for (std::size_t i = 0; i < sym->simulatedCurve.points.size(); ++i) {
    EXPECT_EQ(sym->simulatedCurve.points[i].size,
              str->simulatedCurve.points[i].size);
    EXPECT_EQ(sym->simulatedCurve.points[i].writes,
              str->simulatedCurve.points[i].writes);
    EXPECT_EQ(sym->simulatedCurve.points[i].reads,
              str->simulatedCurve.points[i].reads);
  }
  EXPECT_EQ(sym->curveFidelity, dr::simcore::Fidelity::Symbolic);
}

TEST(ServiceMetrics, EngineMixCountersRenderAndReport) {
  dr::service::Metrics m;
  m.recordEngine(
      static_cast<std::uint8_t>(dr::simcore::Fidelity::Symbolic), {});
  dr::simcore::FoldedStats runs;
  runs.runGranularity = true;
  runs.runsDecoded = 120;
  runs.runFastEvents = 900;
  runs.simulatedEvents = 1000;
  m.recordEngine(static_cast<std::uint8_t>(dr::simcore::Fidelity::ExactFold),
                 runs);
  for (const auto rung :
       {dr::simcore::Fidelity::ExactStream, dr::simcore::Fidelity::ApproxFold,
        dr::simcore::Fidelity::Analytic})
    m.recordEngine(static_cast<std::uint8_t>(rung), {});
  const auto s = m.snapshot();
  // Each rung lands on its own counter, once.
  EXPECT_EQ(s.curvesSymbolic, 1);
  EXPECT_EQ(s.curvesExactStream, 1);
  EXPECT_EQ(s.curvesExactFold, 1);
  EXPECT_EQ(s.curvesApproxFold, 1);
  EXPECT_EQ(s.curvesAnalytic, 1);
  EXPECT_EQ(s.runsDecoded, 120);
  EXPECT_EQ(s.runFastEvents, 900);
  EXPECT_EQ(s.runFallbackEvents, 100);  // 1000 simulated - 900 fast

  const std::string rendered = dr::service::Metrics::render(s);
  EXPECT_NE(rendered.find("curves_symbolic 1"), std::string::npos);
  EXPECT_NE(rendered.find("run_fallback_events 100"), std::string::npos);

  const std::string report = dr::report::metricsReport(s);
  EXPECT_NE(report.find("Engine mix"), std::string::npos);
  EXPECT_NE(report.find("symbolic (closed form)"), std::string::npos);
  EXPECT_NE(report.find("fell back to per-element pushes"),
            std::string::npos);
}

}  // namespace
