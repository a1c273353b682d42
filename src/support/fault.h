#pragma once

#include <cstdint>

#include "support/intmath.h"

/// \file fault.h
/// Deterministic, seed-driven fault injection for the robustness test
/// suite. Hooks sit on the error-prone seams (allocation growth in the
/// streaming engines, dataset file writes, budget deadlines); each hook
/// calls shouldFail(site) and takes its error path when told to. The
/// whole machinery compiles to constant-false no-ops unless the build
/// enables -DDR_FAULT_INJECT (CMake option of the same name), so release
/// binaries pay nothing.
///
/// Two arming modes, both deterministic:
///   - arm(site, n): probe number n (1-based) of `site` fails, once;
///   - armRandom(site, seed, p): every probe fails independently with
///     probability p, driven by a SplitMix64 stream of `seed` — the same
///     seed replays the same failure schedule.
/// Probes are counted per site; disarmAll() resets counters and schedules
/// (tests run it in SetUp/TearDown). Counters are process-wide and
/// thread-safe; a multi-threaded sweep sees an arbitrary but complete
/// interleaving of probe numbers.

namespace dr::support::fault {

enum class FaultSite {
  Alloc,         ///< engine/densifier growth (throws std::bad_alloc)
  DatasetWrite,  ///< dataset file open/write/rename (reports IoError)
  Deadline,      ///< RunBudget deadline check (trips as expired)
  ServiceIo,     ///< service connection read/write (drops the connection)
  DiskFull,      ///< journal/cache-dir writes (reports ENOSPC as IoError)
};
inline constexpr int kFaultSiteCount = 5;

#ifdef DR_FAULT_INJECT

inline constexpr bool kCompiledIn = true;

/// Fail probe number `failOnProbe` (1-based) of `site`; <= 0 disarms the
/// site. Replaces any previous schedule for the site.
void arm(FaultSite site, i64 failOnProbe);

/// Fail each probe of `site` independently with probability `p` in
/// [0, 1], driven deterministically by `seed`.
void armRandom(FaultSite site, std::uint64_t seed, double p);

/// Disarm every site and reset all probe counters.
void disarmAll();

/// Called by the hooks: counts the probe and reports whether this one
/// must fail. Always false for a disarmed site.
bool shouldFail(FaultSite site);

/// Probes seen by `site` since the last disarmAll() (to size schedules).
i64 probeCount(FaultSite site);

#else

inline constexpr bool kCompiledIn = false;

inline void arm(FaultSite, i64) {}
inline void armRandom(FaultSite, std::uint64_t, double) {}
inline void disarmAll() {}
inline bool shouldFail(FaultSite) { return false; }
inline i64 probeCount(FaultSite) { return 0; }

#endif

}  // namespace dr::support::fault
