#include "simcore/reuse_curve.h"

#include <algorithm>
#include <cmath>

#include "simcore/lru_stack.h"
#include "simcore/opt_stack.h"
#include "support/contracts.h"
#include "support/parallel.h"

namespace dr::simcore {

const char* fidelityName(Fidelity f) {
  switch (f) {
    case Fidelity::Symbolic: return "symbolic";
    case Fidelity::ExactStream: return "exact";
    case Fidelity::ExactFold: return "exact-fold";
    case Fidelity::ApproxFold: return "approx-fold";
    case Fidelity::Analytic: return "analytic";
  }
  return "?";
}

double ReuseCurve::maxReuseFactor() const {
  double best = 1.0;
  for (const ReusePoint& p : points) best = std::max(best, p.reuseFactor);
  return best;
}

i64 ReuseCurve::smallestSizeReaching(double factor, double tol) const {
  for (const ReusePoint& p : points)
    if (p.reuseFactor >= factor * (1.0 - tol)) return p.size;
  return -1;
}

std::vector<i64> sizeGrid(i64 maxSize, i64 denseUpTo, double growth) {
  DR_REQUIRE(maxSize >= 1);
  DR_REQUIRE(denseUpTo >= 1);
  DR_REQUIRE(growth > 1.0);
  std::vector<i64> sizes;
  for (i64 s = 1; s <= std::min(denseUpTo, maxSize); ++s) sizes.push_back(s);
  // Integer stepping: advance by at least 1 each round so a growth factor
  // close to 1 can neither stall nor emit duplicates.
  i64 s = std::min(denseUpTo, maxSize);
  while (s < maxSize) {
    const double scaled = static_cast<double>(s) * growth;
    const i64 next = scaled >= static_cast<double>(maxSize)
                         ? maxSize
                         : static_cast<i64>(scaled);
    s = std::max(s + 1, next);
    if (s > maxSize) s = maxSize;
    sizes.push_back(s);
  }
  if (sizes.empty() || sizes.back() != maxSize) sizes.push_back(maxSize);
  return sizes;
}

namespace {

ReusePoint pointFrom(const SimResult& r, i64 size) {
  ReusePoint p;
  p.size = size;
  p.writes = r.misses;
  p.reads = r.accesses;
  p.reuseFactor = r.reuseFactor();
  return p;
}

}  // namespace

ReuseCurve simulateReuseCurve(const Trace& trace, std::vector<i64> sizes,
                              Policy policy) {
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  DR_REQUIRE(sizes.empty() || sizes.front() >= 0);

  ReuseCurve curve;
  if (sizes.empty()) return curve;
  curve.points.resize(sizes.size());

  const dr::trace::DenseTrace dense = dr::trace::densify(trace);
  switch (policy) {
    case Policy::Opt: {
      // One trace pass answers every size: exact Belady-MIN misses come
      // from the OPT stack-distance histogram (opt_stack.h).
      const OptStackDistances stack(dense);
      for (std::size_t i = 0; i < sizes.size(); ++i)
        curve.points[i] = pointFrom(stack.resultAt(sizes[i]), sizes[i]);
      break;
    }
    case Policy::Lru: {
      // LRU is a stack algorithm too: one Mattson pass covers all sizes.
      const LruStackDistances stack(dense);
      for (std::size_t i = 0; i < sizes.size(); ++i)
        curve.points[i] = pointFrom(stack.resultAt(sizes[i]), sizes[i]);
      break;
    }
    case Policy::Fifo: {
      // FIFO is not a stack algorithm — no one-pass histogram exists, so
      // sweep per size, in parallel (results are positionally slotted,
      // so the output order is deterministic).
      dr::support::parallelFor(
          static_cast<i64>(sizes.size()), [&](i64 i) {
            const std::size_t u = static_cast<std::size_t>(i);
            curve.points[u] =
                pointFrom(simulateFifo(dense, sizes[u]), sizes[u]);
          });
      break;
    }
  }
  return curve;
}

i64 optSaturationSize(const Trace& trace) {
  // The stack-distance histogram's largest occupied bin *is* the smallest
  // capacity at which every remaining miss is compulsory — no binary
  // search over re-simulations needed.
  return OptStackDistances(trace).saturationSize();
}

std::vector<std::size_t> findKnees(const ReuseCurve& curve, double jumpRatio) {
  DR_REQUIRE(jumpRatio > 1.0);
  // The grid spacing is roughly geometric, so a smooth curve climbs more
  // per interval where the grid is sparse: the jump test is normalized per
  // log2-size step (an interval spanning s doublings must beat
  // jumpRatio^s), and consecutive qualifying intervals — one knee smeared
  // across several grid points — coalesce into the interval with the
  // steepest per-step climb.
  std::vector<std::size_t> knees;
  std::size_t runBest = 0;
  double runBestScore = 0.0;
  bool inRun = false;
  auto closeRun = [&] {
    if (inRun) knees.push_back(runBest);
    inRun = false;
  };
  for (std::size_t i = 1; i < curve.points.size(); ++i) {
    const ReusePoint& a = curve.points[i - 1];
    const ReusePoint& b = curve.points[i];
    if (a.reuseFactor <= 0 || a.size <= 0 || b.size <= a.size) {
      closeRun();
      continue;
    }
    const double steps = std::max(
        1.0, std::log2(static_cast<double>(b.size) /
                       static_cast<double>(a.size)));
    const double ratio = b.reuseFactor / a.reuseFactor;
    if (ratio >= std::pow(jumpRatio, steps)) {
      const double score = std::pow(ratio, 1.0 / steps);
      if (!inRun || score > runBestScore) {
        runBest = i;
        runBestScore = score;
      }
      inRun = true;
    } else {
      closeRun();
    }
  }
  closeRun();
  return knees;
}

}  // namespace dr::simcore
