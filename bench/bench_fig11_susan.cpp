// E5/E6 — Paper Fig. 11: the SUSAN principle (Section 6.4). (a) Combined
// data reuse factor curve for the image pixel accesses of the 37-pixel
// circular mask (one loop nest per mask row, copy-candidates of the rows
// combined); (b) combined power - memory size Pareto curve. The paper
// reports "a factor of 1.6 to 6 decrease in power consumption", with
// bypass gaining most at small copy sizes.

#include "bench_util.h"

#include "analytic/pair_analysis.h"
#include "explorer/explorer.h"
#include "kernels/susan.h"
#include "support/dataset.h"

namespace {

void printFigureData() {
  dr::bench::heading(
      "Fig. 11  |  SUSAN principle: combined reuse curve and Pareto curve "
      "for the image accesses");

  dr::kernels::SusanParams sp;  // 144 x 176 by default (QCIF)
  if (dr::bench::smallScale()) {
    sp.H = 32;
    sp.W = 32;
  }
  auto p = dr::kernels::susan(sp);
  auto ex = dr::explorer::exploreSignal(p, p.findSignal("image"));
  dr::explorer::designChains(p, ex);

  std::printf("image reads C_tot = %lld, distinct pixels %lld, "
              "%zu mask-row accesses\n\n",
              static_cast<long long>(ex.Ctot),
              static_cast<long long>(ex.distinctElements),
              ex.accesses.size());

  // Per-access analysis, as the paper does ("each of the accesses is
  // handled separately"): one copy-candidate per mask row.
  dr::support::DataSet rows("per-mask-row pair analysis (x, dx)",
                            {"mask_row_dy", "row_width", "FRmax", "AMax"});
  const auto& half = dr::kernels::susanMaskHalfWidths();
  for (std::size_t row = 0; row < p.nests.size(); ++row) {
    auto m = dr::analytic::analyzePair(p.nests[row], p.nests[row].body[0], 1);
    rows.addRow({static_cast<double>(row) - 3.0,
                 static_cast<double>(2 * half[row] + 1),
                 m.FRmax.toDouble(), static_cast<double>(m.AMax)});
  }
  dr::bench::emitDataSet(rows, "fig11_per_row");

  // (a) combined curve: simulated + combined analytic points.
  dr::support::DataSet sim("Fig. 11a: simulated combined reuse factor",
                           {"size", "FR_simulated"});
  for (const auto& pt : ex.simulatedCurve.points)
    sim.addRow({static_cast<double>(pt.size), pt.reuseFactor});
  dr::bench::emitDataSet(sim, "fig11a_simulated");

  dr::support::DataSet ana("Fig. 11a: combined analytic points",
                           {"size", "FR_analytic", "gamma", "bypass"});
  for (const auto& pt : ex.combinedPoints)
    ana.addRow({static_cast<double>(pt.size), pt.FR,
                static_cast<double>(pt.gamma), pt.bypass ? 1.0 : 0.0});
  dr::bench::emitDataSet(ana, "fig11a_analytic");

  // (b) Pareto curve over enumerated chains.
  dr::support::DataSet front("Fig. 11b: combined power - size Pareto curve",
                             {"onchip_size", "normalized_power",
                              "power_reduction_x"});
  for (const auto& d : ex.pareto)
    front.addRow({static_cast<double>(d.cost.onChipSize),
                  d.cost.normalizedPower, 1.0 / d.cost.normalizedPower});
  dr::bench::emitDataSet(front, "fig11b_pareto");

  double bestReduction = 1.0, smallReduction = 1.0;
  for (const auto& d : ex.pareto) {
    bestReduction = std::max(bestReduction, 1.0 / d.cost.normalizedPower);
    if (d.cost.onChipSize > 0 && d.cost.onChipSize <= 64)
      smallReduction = std::max(smallReduction,
                                1.0 / d.cost.normalizedPower);
  }
  std::printf("paper:    power reduction factor 1.6 .. 6 (bypass best at "
              "small sizes)\n");
  std::printf("measured: up to %.1fx overall, %.1fx already with <= 64 "
              "words on-chip\n",
              bestReduction, smallReduction);
}

void BM_SusanExploration(benchmark::State& state) {
  dr::kernels::SusanParams sp;
  sp.H = 32;
  sp.W = 32;
  auto p = dr::kernels::susan(sp);
  dr::explorer::ExploreOptions opts;
  opts.runSimulation = false;
  opts.includeWorkingSetKnees = false;
  for (auto _ : state) {
    auto ex = dr::explorer::exploreSignal(p, p.findSignal("image"), opts);
    benchmark::DoNotOptimize(ex.combinedPoints.size());
  }
}
BENCHMARK(BM_SusanExploration)->Unit(benchmark::kMillisecond);

}  // namespace

DR_BENCH_MAIN(printFigureData)
