#include "service/metrics.h"

#include <algorithm>
#include <bit>

#include "simcore/reuse_curve.h"

namespace dr::service {

void Metrics::recordEngine(std::uint8_t fidelity, bool runGranularity,
                           i64 runsDecoded, i64 runFastEvents,
                           i64 simulatedEvents) {
  switch (static_cast<simcore::Fidelity>(fidelity)) {
    case simcore::Fidelity::Symbolic:
      add(curvesSymbolic_);
      break;
    case simcore::Fidelity::ExactStream:
      add(curvesExactStream_);
      break;
    case simcore::Fidelity::ExactFold:
      add(curvesExactFold_);
      break;
    case simcore::Fidelity::ApproxFold:
      add(curvesApproxFold_);
      break;
    case simcore::Fidelity::Analytic:
      add(curvesAnalytic_);
      break;
  }
  if (!runGranularity) return;
  add(runsDecoded_, runsDecoded);
  add(runFastEvents_, runFastEvents);
  add(runFallbackEvents_, simulatedEvents - runFastEvents);
}

void Metrics::Histogram::record(i64 us) {
  if (us < 0) us = 0;
  // Bucket i collects us with bit_width(us) == i, i.e. [2^(i-1), 2^i).
  int bucket = std::bit_width(static_cast<std::uint64_t>(us));
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  buckets[static_cast<std::size_t>(bucket)].fetch_add(
      1, std::memory_order_relaxed);
  count.fetch_add(1, std::memory_order_relaxed);
  totalUs.fetch_add(us, std::memory_order_relaxed);
  i64 prev = maxUs.load(std::memory_order_relaxed);
  while (prev < us &&
         !maxUs.compare_exchange_weak(prev, us, std::memory_order_relaxed)) {
  }
}

LatencySummary Metrics::Histogram::summarize() const {
  LatencySummary lat;
  lat.count = count.load(std::memory_order_relaxed);
  lat.totalUs = totalUs.load(std::memory_order_relaxed);
  lat.maxUs = maxUs.load(std::memory_order_relaxed);
  if (lat.count <= 0) return lat;
  // Percentile = upper bound of the bucket holding that rank. Snapshot
  // under concurrent updates is a consistent-enough approximation: each
  // bucket is read once, monotone counters only grow.
  std::array<i64, kBuckets> copy;
  i64 total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    copy[static_cast<std::size_t>(i)] =
        buckets[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    total += copy[static_cast<std::size_t>(i)];
  }
  const auto percentile = [&](double q) -> i64 {
    const i64 rank = static_cast<i64>(q * static_cast<double>(total - 1));
    i64 seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += copy[static_cast<std::size_t>(i)];
      if (seen > rank) return i == 0 ? 0 : (i64{1} << i) - 1;
    }
    return lat.maxUs;
  };
  lat.p50Us = std::min(percentile(0.50), lat.maxUs);
  lat.p95Us = std::min(percentile(0.95), lat.maxUs);
  return lat;
}

MetricsSnapshot Metrics::snapshot() const {
  MetricsSnapshot s;
  const auto get = [](const std::atomic<i64>& c) {
    return c.load(std::memory_order_relaxed);
  };
  s.connectionsAccepted = get(connectionsAccepted_);
  s.connectionsDropped = get(connectionsDropped_);
  s.requests = get(requests_);
  s.exploreRequests = get(exploreRequests_);
  s.statsRequests = get(statsRequests_);
  s.shutdownRequests = get(shutdownRequests_);
  s.healthRequests = get(healthRequests_);
  s.protocolErrors = get(protocolErrors_);
  s.exploreErrors = get(exploreErrors_);
  s.degradedReplies = get(degradedReplies_);
  s.queueDepthHighWater = get(queueDepthHighWater_);
  s.shedQueueFull = get(shedQueueFull_);
  s.shedQueueWait = get(shedQueueWait_);
  s.overloadReplies = get(overloadReplies_);
  s.expiredRequests = get(expiredRequests_);
  s.deadlinesTightened = get(deadlinesTightened_);
  s.inflightJoins = get(inflightJoins_);
  s.simulations = get(simulations_);
  s.adviseRequests = get(adviseRequests_);
  s.adviseErrors = get(adviseErrors_);
  s.adviseCacheHits = get(adviseCacheHits_);
  s.adviseFallbacks = get(adviseFallbacks_);
  s.curvesSymbolic = get(curvesSymbolic_);
  s.curvesExactStream = get(curvesExactStream_);
  s.curvesExactFold = get(curvesExactFold_);
  s.curvesApproxFold = get(curvesApproxFold_);
  s.curvesAnalytic = get(curvesAnalytic_);
  s.runsDecoded = get(runsDecoded_);
  s.runFastEvents = get(runFastEvents_);
  s.runFallbackEvents = get(runFallbackEvents_);

  s.exploreLatency = exploreLatency_.summarize();
  s.adviseSolveLatency = adviseSolveLatency_.summarize();
  return s;
}

std::string Metrics::render(const MetricsSnapshot& s) {
  std::string out;
  const auto line = [&out](const char* name, i64 v) {
    out += name;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  };
  line("connections_accepted", s.connectionsAccepted);
  line("connections_dropped", s.connectionsDropped);
  line("requests", s.requests);
  line("explore_requests", s.exploreRequests);
  line("stats_requests", s.statsRequests);
  line("shutdown_requests", s.shutdownRequests);
  line("health_requests", s.healthRequests);
  line("protocol_errors", s.protocolErrors);
  line("explore_errors", s.exploreErrors);
  line("degraded_replies", s.degradedReplies);
  line("queue_depth_hwm", s.queueDepthHighWater);
  line("shed_queue_full", s.shedQueueFull);
  line("shed_queue_wait", s.shedQueueWait);
  line("overload_replies", s.overloadReplies);
  line("expired_requests", s.expiredRequests);
  line("deadlines_tightened", s.deadlinesTightened);
  line("client_retries", s.clientRetries);
  line("client_retry_after_honored", s.clientRetryAfterHonored);
  line("client_retry_after_successes", s.clientRetryAfterSuccesses);
  line("breaker_trips", s.breakerTrips);
  line("breaker_resets", s.breakerResets);
  line("breaker_fast_fails", s.breakerFastFails);
  line("cache_hits", s.cacheHits);
  line("cache_warm_hits", s.warmHits);
  line("cache_misses", s.cacheMisses);
  line("cache_evictions", s.cacheEvictions);
  line("cache_entries", s.cacheEntries);
  line("cache_bytes", s.cacheBytes);
  line("cache_max_bytes", s.cacheMaxBytes);
  line("cache_journal_failures", s.cacheJournalFailures);
  line("inflight_joins", s.inflightJoins);
  line("simulations", s.simulations);
  line("curves_symbolic", s.curvesSymbolic);
  line("curves_exact_stream", s.curvesExactStream);
  line("curves_exact_fold", s.curvesExactFold);
  line("curves_approx_fold", s.curvesApproxFold);
  line("curves_analytic", s.curvesAnalytic);
  line("runs_decoded", s.runsDecoded);
  line("run_fast_events", s.runFastEvents);
  line("run_fallback_events", s.runFallbackEvents);
  line("advise_requests", s.adviseRequests);
  line("advise_errors", s.adviseErrors);
  line("advise_cache_hits", s.adviseCacheHits);
  line("advise_fallbacks", s.adviseFallbacks);
  line("explore_latency_count", s.exploreLatency.count);
  line("explore_latency_p50_us", s.exploreLatency.p50Us);
  line("explore_latency_p95_us", s.exploreLatency.p95Us);
  line("explore_latency_max_us", s.exploreLatency.maxUs);
  line("explore_latency_total_us", s.exploreLatency.totalUs);
  line("advise_solve_count", s.adviseSolveLatency.count);
  line("advise_solve_p50_us", s.adviseSolveLatency.p50Us);
  line("advise_solve_p95_us", s.adviseSolveLatency.p95Us);
  line("advise_solve_max_us", s.adviseSolveLatency.maxUs);
  line("advise_solve_total_us", s.adviseSolveLatency.totalUs);
  return out;
}

}  // namespace dr::service
