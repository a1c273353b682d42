// E2 — Paper Fig. 4b: power vs memory-size Pareto curve for array Old[][]
// of the motion estimation kernel, obtained "by considering all possible
// hierarchies combining points on the data reuse factor curve" and
// evaluating eq. (3). As in the paper, power is normalized to the cost
// when all accesses are external memory accesses.

#include "bench_util.h"

#include "explorer/explorer.h"
#include "hierarchy/pareto.h"
#include "kernels/motion_estimation.h"
#include "support/dataset.h"

namespace {

void printFigureData() {
  dr::bench::heading(
      "Fig. 4b  |  Motion estimation: power vs memory-size Pareto curve "
      "(array Old)");

  dr::kernels::MotionEstimationParams mp;
  if (dr::bench::smallScale()) {
    mp.H = 32;
    mp.W = 32;
    mp.n = 4;
    mp.m = 4;
  }
  auto p = dr::kernels::motionEstimation(mp);

  // Chains combine analytic points, working-set knees AND selected points
  // of the simulated Belady curve — as the paper does ("considering all
  // possible hierarchies combining points on the data reuse factor
  // curve").
  auto ex = dr::explorer::exploreSignal(p, p.findSignal("Old"));
  dr::explorer::designChains(p, ex);

  dr::support::DataSet all("all enumerated hierarchies (chain designs)",
                           {"onchip_size", "normalized_power", "levels"});
  for (const auto& d : ex.chains)
    all.addRow({static_cast<double>(d.cost.onChipSize),
                d.cost.normalizedPower,
                static_cast<double>(d.chain.depth())});
  all.sortByColumn(0);
  dr::bench::emitDataSet(all, "fig4b_me_all_chains");

  dr::support::DataSet front("Pareto curve (power normalized to "
                             "no-hierarchy cost)",
                             {"onchip_size", "normalized_power", "levels"});
  std::printf("Pareto-optimal hierarchies:\n");
  for (const auto& d : ex.pareto) {
    front.addRow({static_cast<double>(d.cost.onChipSize),
                  d.cost.normalizedPower,
                  static_cast<double>(d.chain.depth())});
    std::printf("  size %7lld  power %.4f  |  %s\n",
                static_cast<long long>(d.cost.onChipSize),
                d.cost.normalizedPower, d.label.c_str());
  }
  std::printf("\n");
  dr::bench::emitDataSet(front, "fig4b_me_pareto");

  double best = 1.0;
  for (const auto& d : ex.pareto) best = std::min(best, d.cost.normalizedPower);
  std::printf("paper:    \"power consumption can be drastically reduced\" "
              "(normalized plots, proprietary models)\n");
  std::printf("measured: best normalized power %.3f (a %.1fx reduction)\n",
              best, 1.0 / best);
}

void BM_ChainEnumeration(benchmark::State& state) {
  auto p = dr::kernels::motionEstimation({32, 32, 4, 4});
  dr::explorer::ExploreOptions opts;
  opts.runSimulation = false;
  opts.includeWorkingSetKnees = false;
  const auto base = dr::explorer::exploreSignal(p, p.findSignal("Old"), opts);
  for (auto _ : state) {
    auto ex = base;
    dr::explorer::designChains(p, ex, opts);
    benchmark::DoNotOptimize(ex.chains.size());
  }
}
BENCHMARK(BM_ChainEnumeration)->Unit(benchmark::kMillisecond);

void BM_ParetoFilter(benchmark::State& state) {
  std::vector<std::pair<double, double>> pts;
  for (int i = 0; i < 4096; ++i)
    pts.emplace_back((i * 37) % 1024, ((i * 91) % 512) / 3.0);
  for (auto _ : state) {
    auto keep = dr::hierarchy::paretoFilter(pts);
    benchmark::DoNotOptimize(keep.size());
  }
}
BENCHMARK(BM_ParetoFilter);

}  // namespace

DR_BENCH_MAIN(printFigureData)
