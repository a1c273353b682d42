// DTSE steps 3-5 end to end: per-signal data reuse exploration, the
// *global hierarchy layer assignment* across all signals under a shared
// on-chip size budget (paper Section 3, step 3), mapping the winning
// virtual chains onto a predefined physical hierarchy (Section 1's
// software-controlled-cache scenario), and the SCBD bandwidth check.
//
//   $ ./examples/global_assignment [--H 64] [--W 64] [--n 8] [--m 8]
//                                  [--budget-max 4096]

#include <algorithm>
#include <cstdio>

#include "explorer/explorer.h"
#include "hierarchy/assign.h"
#include "hierarchy/collapse.h"
#include "kernels/motion_estimation.h"
#include "scbd/scbd.h"
#include "support/cli.h"

namespace {

int runGlobalAssignment(int argc, char** argv) {
  dr::support::CliOptions cli(argc, argv);
  dr::kernels::MotionEstimationParams mp;
  mp.H = cli.getInt("H", 64);
  mp.W = cli.getInt("W", 64);
  mp.n = cli.getInt("n", 8);
  mp.m = cli.getInt("m", 8);
  long long budgetMax = cli.getInt("budget-max", 4096);
  for (const auto& name : cli.unusedNames())
    std::fprintf(stderr, "warning: unknown option --%s\n", name.c_str());

  auto p = dr::kernels::motionEstimation(mp);

  // Step "data reuse": per-signal Pareto sets (Old and New both read).
  std::vector<dr::explorer::SignalExploration> explorations;
  std::vector<std::vector<dr::hierarchy::SignalOption>> options;
  for (const char* name : {"Old", "New"}) {
    auto ex = dr::explorer::exploreSignal(p, p.findSignal(name));
    dr::explorer::designChains(p, ex);
    std::printf("signal %-4s: C_tot %9lld, %zu Pareto designs\n", name,
                static_cast<long long>(ex.Ctot), ex.pareto.size());
    std::vector<dr::hierarchy::SignalOption> opts;
    for (std::size_t i = 0; i < ex.pareto.size(); ++i)
      opts.push_back({ex.pareto[i].cost.power,
                      ex.pareto[i].cost.onChipSize, static_cast<int>(i)});
    options.push_back(std::move(opts));
    explorations.push_back(std::move(ex));
  }

  // Step "global hierarchy layer assignment": best per-signal choice under
  // a shared budget, swept to a system-level Pareto curve.
  std::printf("\nglobal layer assignment (budget sweep):\n");
  std::printf("  %8s  %10s  %10s  %s\n", "budget", "total_size",
              "total_power", "per-signal choices");
  std::vector<dr::support::i64> budgets;
  for (dr::support::i64 b = 0; b <= budgetMax; b += budgetMax / 8)
    budgets.push_back(b);
  auto sweep = dr::hierarchy::assignmentSweep(options, budgets);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (!sweep[i].feasible) continue;
    std::string choices;
    for (std::size_t s = 0; s < sweep[i].choice.size(); ++s) {
      const auto& design =
          explorations[s].pareto[static_cast<std::size_t>(
              sweep[i].choice[s])];
      choices += explorations[s].signalName + ":[" + design.label + "] ";
    }
    std::printf("  %8lld  %10lld  %10.1f  %s\n",
                static_cast<long long>(budgets[i]),
                static_cast<long long>(sweep[i].totalSize),
                sweep[i].totalPower, choices.c_str());
  }

  // Step "collapse onto a predefined hierarchy" for the largest budget:
  // a processor-style scratchpad pair (L1 small, L2 larger).
  dr::hierarchy::PhysicalHierarchy phys;
  phys.layerSizes = {2048, 128};
  std::printf("\ncollapsing the Old chain onto physical layers {2048, 128}:\n");
  const auto& best = sweep.back();
  const auto& oldDesign =
      explorations[0].pareto[static_cast<std::size_t>(best.choice[0])];
  auto collapsed = dr::hierarchy::collapseOnto(oldDesign.chain, phys);
  for (int j = 1; j <= collapsed.depth(); ++j) {
    const auto& level =
        collapsed.levels[static_cast<std::size_t>(j - 1)];
    std::printf("  layer %d: %lld words, %lld writes, %lld direct reads "
                "(%s)\n",
                j, static_cast<long long>(level.size),
                static_cast<long long>(level.writes),
                static_cast<long long>(level.directReads),
                level.label.c_str());
  }

  // Step SCBD: bandwidth feasibility of the collapsed chain.
  auto loads = dr::scbd::chainLoads(collapsed);
  std::printf("\nSCBD bandwidth (cycle budget = accesses of the flat "
              "solution):\n");
  dr::support::i64 cycleBudget = collapsed.Ctot;
  for (const auto& load : loads)
    std::printf("  level %d: %lld accesses/frame -> %lld port(s) within "
                "%lld cycles\n",
                load.level, static_cast<long long>(load.accesses()),
                static_cast<long long>(load.requiredPorts(cycleBudget)),
                static_cast<long long>(cycleBudget));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dr::support::guardedMain(
      [&] { return runGlobalAssignment(argc, argv); });
}
