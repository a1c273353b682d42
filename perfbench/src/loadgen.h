#pragma once

#include <cstdint>
#include <functional>
#include <vector>

/// \file loadgen.h
/// Load generation. A closed loop sends the next request when the last
/// one returns; an open loop sends request i at its due time whatever
/// happened before, from at most `threads` sender threads, and times it
/// from that due time — so a stall is charged to every request it
/// delays, and the generator's own lateness is reported as lag.

namespace perfbench {

/// What one request returned, as the harness sees it.
struct Outcome {
  bool ok = false;      ///< a decoded Ok reply
  bool exact = false;   ///< ok and served at an exact fidelity rung
  bool cached = false;  ///< ok and answered without computing
};

struct OpenLoopResult {
  /// Per request, in index order: latency from due time to reply (ms)
  /// and lag from due time to send (ms).
  std::vector<double> latencyMs;
  std::vector<double> lagMs;
  std::vector<Outcome> outcomes;
  double elapsedS = 0.0;  ///< first due time to last reply
  /// The backlog grew: the last tenth of the requests went out later
  /// (median lag) than `backlogLimitMs`.
  bool backlogGrowing = false;
};

/// Send request i (0 <= i < dueNs.size()) at dueNs[i] nanoseconds after
/// the start, on `threads` sender threads. `send` must be thread-safe.
OpenLoopResult runOpenLoop(const std::vector<std::int64_t>& dueNs, int threads,
                           double backlogLimitMs,
                           const std::function<Outcome(std::size_t)>& send);

/// Evenly spaced due times: `count` requests at `rate` per second.
std::vector<std::int64_t> evenSchedule(double rate, std::size_t count);

/// One ladder rung as measured.
struct Rung {
  double rate = 0.0;
  double p99Ms = 0.0;
  bool p99Ok = false;  ///< enough samples beyond the 99th percentile
  bool backlogGrowing = false;
  double failedFrac = 0.0;
  bool pass = false;
};

struct LadderResult {
  std::vector<Rung> rungs;  ///< in the order measured
  /// Rate of the highest rung found passing; 0 when none passed.
  double maxRate = 0.0;
};

/// Highest passing rung of the geometric ladder lowRate * ratio^k,
/// k = 0 .. rungs-1, by bisection over k: about log2(rungs) measurements
/// in a fixed time, and where pass and fail are random near capacity it
/// settles where a rung passes about half the time. A rung passes when
/// its p99 is resolved, at most `limitMs`, without a growing backlog or
/// failed requests.
LadderResult searchLadder(double lowRate, double ratio, int rungs,
                          double limitMs,
                          const std::function<Rung(double rate)>& measure);

}  // namespace perfbench
