#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

/// \file stats.h
/// Sample statistics for the benchmark. A percentile is only reported
/// when at least ten samples lie beyond it, so a tail figure never rests
/// on one or two outliers; the sample count travels with the value.

namespace perfbench {

struct Percentile {
  double value = 0.0;
  std::int64_t samples = 0;  ///< sample count the value was taken from
  bool ok = false;           ///< false: fewer than 10 samples beyond q
};

/// Samples strictly beyond the q-quantile of n samples: floor(n * (1 - q)).
inline std::int64_t samplesBeyond(std::int64_t n, double q) {
  return static_cast<std::int64_t>(
      std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

/// Nearest-rank q-quantile of `v` (sorted in place). Refused (ok = false,
/// value 0) when fewer than ten samples lie beyond it.
inline Percentile percentile(std::vector<double>& v, double q) {
  Percentile p;
  p.samples = static_cast<std::int64_t>(v.size());
  if (v.empty() || samplesBeyond(p.samples, q) < 10) return p;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  p.value = v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
  p.ok = true;
  return p;
}

/// The q-quantile taken per window of `window` consecutive samples, and
/// the median of those: one stall of the machine then moves one window
/// instead of the whole figure. With fewer than two windows' worth of
/// samples this is percentile(v, q). A window must itself have ten
/// samples beyond q, or the result is refused.
inline Percentile windowedPercentile(const std::vector<double>& v, double q,
                                     std::size_t window) {
  const std::size_t windows = window ? v.size() / window : 0;
  if (windows < 2) {
    std::vector<double> all = v;
    return percentile(all, q);
  }
  Percentile out;
  out.samples = static_cast<std::int64_t>(v.size());
  std::vector<double> tails;
  for (std::size_t w = 0; w < windows; ++w) {
    // The last window takes the remainder.
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto last = w + 1 == windows
                          ? v.end()
                          : first + static_cast<std::ptrdiff_t>(window);
    std::vector<double> part(first, last);
    const Percentile p = percentile(part, q);
    if (!p.ok) return out;
    tails.push_back(p.value);
  }
  std::sort(tails.begin(), tails.end());
  const std::size_t m = tails.size() / 2;
  out.value = tails.size() % 2 ? tails[m] : 0.5 * (tails[m - 1] + tails[m]);
  out.ok = true;
  return out;
}

/// Median without the ten-beyond rule (used for per-call layer timings
/// and repeated set-ups, where every sample is a full measurement).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
