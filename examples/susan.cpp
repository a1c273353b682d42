// Data-reuse exploration of the SUSAN principle (paper Section 6.4): the
// image is scanned with a 37-pixel circular mask, pre-processed into a
// series of loop nests (one per mask row).
//
//   $ ./examples/susan [--H 144] [--W 176] [--no-sim]
//
// Prints the per-row analytical analysis, the combined reuse points, the
// combined power/size Pareto front (Fig. 11) and the achieved power
// reduction band (paper: a factor of 1.6 to 6).

#include <algorithm>
#include <cstdio>

#include "analytic/pair_analysis.h"
#include "explorer/explorer.h"
#include "kernels/susan.h"
#include "loopir/printer.h"
#include "support/cli.h"

namespace {

int runSusan(int argc, char** argv) {
  dr::support::CliOptions cli(argc, argv);
  dr::kernels::SusanParams sp;
  sp.H = cli.getInt("H", 144);
  sp.W = cli.getInt("W", 176);
  bool runSim = !cli.getBool("no-sim", false);
  for (const auto& name : cli.unusedNames())
    std::fprintf(stderr, "warning: unknown option --%s\n", name.c_str());

  auto p = dr::kernels::susan(sp);
  std::printf("SUSAN pre-processed to %zu loop nests (one per mask row):\n\n",
              p.nests.size());
  for (std::size_t n = 0; n < p.nests.size(); ++n)
    std::printf("row %zu: %s", n,
                dr::loopir::nestToString(p, p.nests[n]).c_str());

  // Per-row pair analysis at the innermost carrying level (x, dx).
  std::printf("\nper-row analysis of the image access:\n");
  for (std::size_t n = 0; n < p.nests.size(); ++n) {
    auto m = dr::analytic::analyzePair(p.nests[n], p.nests[n].body[0], 1);
    std::printf("  row %zu: %s\n", n, m.str().c_str());
  }

  dr::explorer::ExploreOptions opts;
  opts.runSimulation = runSim;
  auto ex = dr::explorer::exploreSignal(p, p.findSignal("image"), opts);
  dr::explorer::designChains(p, ex, opts);

  std::printf("\ncombined analytic points (copy-candidates of all rows):\n");
  for (const auto& pt : ex.combinedPoints)
    std::printf("  %-22s size %4lld  F_R %.3f\n", pt.label.c_str(),
                static_cast<long long>(pt.size), pt.FR);

  std::printf("\nPareto-optimal hierarchies (normalized power):\n");
  double best = 1.0;
  for (const auto& d : ex.pareto) {
    std::printf("  size %6lld  power %.4f  (%.2fx)  |  %s\n",
                static_cast<long long>(d.cost.onChipSize),
                d.cost.normalizedPower, 1.0 / d.cost.normalizedPower,
                d.label.c_str());
    best = std::min(best, d.cost.normalizedPower);
  }
  std::printf("\npower reduction up to %.1fx (paper band: 1.6x .. 6x)\n",
              1.0 / best);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dr::support::guardedMain([&] { return runSusan(argc, argv); });
}
