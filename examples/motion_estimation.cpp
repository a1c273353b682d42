// Full data-reuse exploration of the paper's main test vehicle: the
// full-search full-pixel motion estimation kernel (paper Fig. 3).
//
//   $ ./examples/motion_estimation [--H 144] [--W 176] [--n 8] [--m 8]
//                                  [--no-sim] [--emit-code] [--gamma G]
//
// Reproduces, at the selected scale: the per-level pair analysis (Section
// 6.3 closed forms), the simulated reuse-factor curve (Fig. 4a), the
// power/size Pareto front (Fig. 4b) and optionally the transformed code
// (Fig. 8).

#include <cstdio>

#include "analytic/pair_analysis.h"
#include "codegen/executor.h"
#include "codegen/templates.h"
#include "explorer/explorer.h"
#include "kernels/motion_estimation.h"
#include "loopir/printer.h"
#include "support/cli.h"
#include "trace/single_assign.h"

namespace {

int runMotionEstimation(int argc, char** argv) {
  dr::support::CliOptions cli(argc, argv);
  dr::kernels::MotionEstimationParams mp;
  mp.H = cli.getInt("H", 144);
  mp.W = cli.getInt("W", 176);
  mp.n = cli.getInt("n", 8);
  mp.m = cli.getInt("m", 8);
  bool runSim = !cli.getBool("no-sim", false);
  bool emitCode = cli.getBool("emit-code", false);
  long long gamma = cli.getInt("gamma", -1);
  for (const auto& name : cli.unusedNames())
    std::fprintf(stderr, "warning: unknown option --%s\n", name.c_str());

  auto p = dr::kernels::motionEstimation(mp);
  std::printf("%s\n", dr::loopir::programToString(p).c_str());

  // DTSE step 1: verify single assignment (trivially true here — the
  // kernel is read-only on the analyzed signals).
  dr::trace::AddressMap map(p);
  auto violations = dr::trace::checkSingleAssignment(p, map);
  std::printf("single-assignment check: %s\n\n",
              violations.empty() ? "clean" : "VIOLATED");

  // Per-level pair analysis of the Old access (Sections 5-6).
  int oldIdx = dr::kernels::oldAccessIndex();
  const auto& nest = p.nests[0];
  std::printf("pair analysis of the Old access per loop level:\n");
  for (int level = nest.depth() - 2; level >= 0; --level) {
    auto m = dr::analytic::analyzePair(nest, nest.body[oldIdx], level);
    std::printf("  %s\n", m.str().c_str());
  }
  std::printf("\n");

  // Full exploration.
  dr::explorer::ExploreOptions opts;
  opts.runSimulation = runSim;
  auto ex = dr::explorer::exploreSignal(p, p.findSignal("Old"), opts);
  dr::explorer::designChains(p, ex, opts);

  if (runSim) {
    std::printf("simulated reuse-factor curve (Belady, excerpt):\n");
    std::size_t stride = ex.simulatedCurve.points.size() > 20
                             ? ex.simulatedCurve.points.size() / 20
                             : 1;
    for (std::size_t i = 0; i < ex.simulatedCurve.points.size(); i += stride)
      std::printf("  size %6lld  F_R %8.2f\n",
                  static_cast<long long>(ex.simulatedCurve.points[i].size),
                  ex.simulatedCurve.points[i].reuseFactor);
    std::printf("\n");
  }

  std::printf("Pareto-optimal hierarchies (normalized power):\n");
  for (const auto& d : ex.pareto)
    std::printf("  size %7lld  power %.4f  |  %s\n",
                static_cast<long long>(d.cost.onChipSize),
                d.cost.normalizedPower, d.label.c_str());

  if (emitCode) {
    auto m = dr::analytic::analyzePair(nest, nest.body[oldIdx], 3);
    dr::codegen::TemplateSpec spec;
    if (gamma >= 0) spec.gamma = gamma;
    auto code = dr::codegen::generateCopyTemplate(p, 0, oldIdx, m, spec);
    std::printf("\ntransformed code:\n%s\n", code.transformedCode.c_str());
    auto counts = dr::codegen::executeCopyTemplate(p, 0, oldIdx, m, spec, map);
    std::printf("template execution: %lld copy writes, %lld copy reads, "
                "%lld bypassed, values %s\n",
                static_cast<long long>(counts.copyWrites),
                static_cast<long long>(counts.copyReads),
                static_cast<long long>(counts.bypassReads),
                counts.valuesCorrect ? "correct" : "WRONG");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dr::support::guardedMain(
      [&] { return runMotionEstimation(argc, argv); });
}
