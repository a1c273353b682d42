#pragma once

#include <vector>

#include "simcore/buffer_sim.h"

/// \file reuse_curve.h
/// Data-reuse-factor curves: F_R as a function of the copy-candidate size
/// (paper Fig. 4a / Fig. 10a), produced by sweeping the buffer simulator,
/// plus knee (discontinuity) detection — the A_1..A_4 sizes where maximum
/// reuse is reached for a subset of inner loops.

namespace dr::simcore {

/// Provenance of a curve point, ordered from most to least trustworthy —
/// the rungs of the explorer's graceful-degradation ladder. A tripped
/// RunBudget (support/budget.h) moves a run down the ladder instead of
/// failing it; every emitted point carries the rung it came from so
/// report/ can label what the numbers mean.
enum class Fidelity {
  /// Closed-form histogram from the nest description alone
  /// (analytic/symbolic_hist.h): exact counts, no trace — instant at any
  /// frame size, which is why it sits above even a full simulation.
  Symbolic,
  ExactStream,  ///< full trace simulated (streamed or materialized)
  ExactFold,    ///< steady-state fold, certified cycle => exact counts
  ApproxFold,   ///< fold extrapolated from measured chunks, uncertified
  Analytic,     ///< closed-form footprint/reuse bounds only, no simulation
};

/// True for the rungs with exact counts (Symbolic, ExactStream,
/// ExactFold): the only curves the journal persists and the service
/// caches.
constexpr bool isExact(Fidelity f) {
  return f == Fidelity::Symbolic || f == Fidelity::ExactStream ||
         f == Fidelity::ExactFold;
}

/// Human-readable rung name ("exact", "exact-fold", ...).
const char* fidelityName(Fidelity f);

/// One point of a reuse-factor curve.
struct ReusePoint {
  i64 size = 0;            ///< copy-candidate size A_j, in elements
  i64 writes = 0;          ///< C_j: writes into the copy-candidate
  i64 reads = 0;           ///< C_tot
  double reuseFactor = 1;  ///< F_Rj = C_tot / C_j
  Fidelity fidelity = Fidelity::ExactStream;
};

struct ReuseCurve {
  std::vector<ReusePoint> points;  ///< sorted ascending by size

  /// Largest reuse factor over all points.
  double maxReuseFactor() const;

  /// Smallest size reaching `factor` (within relative `tol`); -1 if none.
  i64 smallestSizeReaching(double factor, double tol = 1e-9) const;
};

/// Logarithmic-ish size grid from 1 to maxSize inclusive: all sizes up to
/// `denseUpTo`, then multiplicative steps of `growth`.
std::vector<i64> sizeGrid(i64 maxSize, i64 denseUpTo = 64,
                          double growth = 1.25);

/// Simulate the curve at the given sizes (deduplicated, sorted).
ReuseCurve simulateReuseCurve(const Trace& trace, std::vector<i64> sizes,
                              Policy policy = Policy::Opt);

/// Smallest capacity at which OPT reaches its saturation reuse factor
/// (all misses compulsory). Uses the inclusion property of OPT for a
/// binary search. Returns the capacity.
i64 optSaturationSize(const Trace& trace);

/// Knees: points where the reuse factor jumps by more than `jumpRatio`
/// per log2-size step relative to the previous grid point (paper
/// Fig. 4a's A_1..A_4 are such discontinuities). The per-step
/// normalization keeps a smooth climb over a sparse geometric grid from
/// masquerading as a knee; consecutive qualifying intervals coalesce into
/// the steepest one. Returns indices into curve.points.
std::vector<std::size_t> findKnees(const ReuseCurve& curve,
                                   double jumpRatio = 1.2);

}  // namespace dr::simcore
