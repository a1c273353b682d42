#pragma once

#include <cstdint>

#include "support/contracts.h"

/// \file rng.h
/// Small deterministic RNG (SplitMix64) for property tests and synthetic
/// workload generation. Deterministic across platforms so test sweeps and
/// generated frames are reproducible.

namespace dr::support {

/// Deterministic seed for a (stream, task, attempt) triple: SplitMix64's
/// finalizer over the combined words. Retry backoff jitter draws from
/// Rng(mixSeed(seed, task, attempt)), so reruns see identical schedules
/// regardless of which thread happens to execute which task.
constexpr std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t a,
                                std::uint64_t b = 0) noexcept {
  std::uint64_t z = seed;
  z += 0x9e3779b97f4a7c15ULL * (a + 1);
  z += 0x94d049bb133111ebULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// SplitMix64 generator; passes BigCrush for this use, trivially seedable.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    DR_REQUIRE(lo <= hi);
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next());  // full range
    return lo + static_cast<std::int64_t>(next() % span);
  }

  /// Uniform double in [0, 1).
  double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

}  // namespace dr::support
