// Quickstart: the whole library in one small program.
//
// A kernel is written in the kernel description language, compiled to the
// loop IR, and run through the full data-reuse exploration flow: the
// analytical model of the paper (max/partial/bypass points), the Belady
// simulation cross-check, the power/size Pareto front, and finally the
// generated copy-candidate code (paper Fig. 8).
//
//   $ ./examples/quickstart

#include <cstdio>

#include "analytic/pair_analysis.h"
#include "codegen/templates.h"
#include "explorer/explorer.h"
#include "frontend/frontend.h"
#include "support/cli.h"
#include "support/strings.h"

namespace {

// A small horizontal-filter kernel: every pixel reads a 5-wide window, so
// consecutive x iterations share 4 of their 5 reads.
const char* kKernel = R"(
kernel hfilter {
  param H = 64;
  param W = 64;
  param R = 2;
  array img[H][W] bits 8;
  loop y = 0 .. H - 1 {
    loop x = R .. W - 1 - R {
      loop dx = -R .. R {
        read img[y][x + dx];
      }
    }
  }
}
)";

int runQuickstart() {
  // 1. Compile the kernel text to the loop IR.
  dr::loopir::Program program = dr::frontend::compileKernel(kKernel);
  std::printf("kernel '%s': %lld array reads\n\n", program.name.c_str(),
              static_cast<long long>(program.totalAccessCount()));

  // 2. Explore the data reuse of the image signal.
  int img = program.findSignal("img");
  dr::explorer::SignalExploration ex =
      dr::explorer::exploreSignal(program, img);
  dr::explorer::designChains(program, ex);

  std::printf("C_tot = %lld reads of %lld distinct elements\n\n",
              static_cast<long long>(ex.Ctot),
              static_cast<long long>(ex.distinctElements));

  // 3. Analytical design points (paper eqs. (12)-(22)).
  std::printf("analytic copy-candidate points:\n");
  for (const auto& pt : ex.combinedPoints)
    std::printf("  %-14s size %4lld  F_R = %s (%.2f)\n", pt.label.c_str(),
                static_cast<long long>(pt.size), pt.FRExact.str().c_str(),
                pt.FR);

  // 4. The power / on-chip size Pareto front.
  std::printf("\nPareto-optimal memory hierarchies (power normalized to "
              "the no-hierarchy baseline):\n");
  for (const auto& d : ex.pareto)
    std::printf("  size %5lld  power %.3f  |  %s\n",
                static_cast<long long>(d.cost.onChipSize),
                d.cost.normalizedPower, d.label.c_str());

  // 5. Generate the transformed code for the maximum-reuse copy.
  const auto& nest = program.nests[0];
  auto analysis = dr::analytic::analyzePair(nest, nest.body[0],
                                            /*outerLevel=*/1);
  auto code = dr::codegen::generateCopyTemplate(program, 0, 0, analysis);
  std::printf("\ngenerated copy-candidate code (paper Fig. 8):\n\n%s\n",
              code.transformedCode.c_str());
  return 0;
}

}  // namespace

int main() { return dr::support::guardedMain(runQuickstart); }
