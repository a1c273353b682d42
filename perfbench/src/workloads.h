#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file workloads.h
/// The three benchmark workloads. Each starts its daemon(s) in-process,
/// drives them from this process, checks every reply, and returns its
/// metrics: the end-to-end set on an untraced run, the per-layer set on
/// a traced one.
///
///   cold_explore  closed loop, one client, distinct queries on a fresh
///                 cache: the compute layers do all the work.
///   warm_hits     open loop over a hot set already computed in set-up:
///                 zero simulations, the service path does all the work.
///   routed_mix    open loop through a Router over two TCP shards: Zipf
///                 hot set plus cold misses, concurrent duplicates and
///                 Advise queries.

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory for sockets, caches, traces
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false
};

const std::vector<std::string>& workloadNames();

/// Run one workload. Throws std::runtime_error when the harness itself
/// cannot run (a daemon that does not start, an unknown workload).
RunResult runWorkload(const RunConfig& cfg);

}  // namespace perfbench
