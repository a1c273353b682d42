#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "simcore/folded_curve.h"
#include "support/intmath.h"

/// \file metrics.h
/// Lock-cheap live counters and latency histograms for the exploration
/// service. Every mutation is a relaxed atomic op (no mutex anywhere on
/// the request path); snapshot() copies the counters into a plain struct
/// that the `stats` verb ships to clients and report/ renders as markdown.
///
/// Each ledger is one X-macro table, one line per counter: the daemon's
/// below, the router's (router.h) and the client's (client.h). A new
/// counter is one table line plus its increment site.

namespace dr::service {

using dr::support::i64;

/// How a counter folds across daemon instances (the shards of a fleet, a
/// restarted daemon's generations): Max for high-water marks and gauges.
enum class Fold { Sum, Max };

/// Column helpers: skip a line, or declare column 1 as field or enumerator.
#define DR_LEDGER_SKIP(...)
#define DR_LEDGER_I64(field, ...) i64 field = 0;
#define DR_LEDGER_ENUM(field, ...) field,

/// The result cache's ledger, counted under the cache's own mutex:
///   X(MetricsSnapshot field, "stats_name", fold, CacheStats field)
#define DR_CACHE_LEDGER(X)                                           \
  X(cacheHits, "cache_hits", Sum, hits) /* memory layer */           \
  X(warmHits, "cache_warm_hits", Sum, warmHits) /* warm journal */   \
  X(cacheMisses, "cache_misses", Sum, misses) /* computed a point */ \
  X(cacheEvictions, "cache_evictions", Sum, evictions)               \
  X(cacheEntries, "cache_entries", Max, entries)                     \
  X(cacheBytes, "cache_bytes", Max, bytes)                           \
  X(cacheMaxBytes, "cache_max_bytes", Max, maxBytes)                 \
  X(cacheJournalFailures, "cache_journal_failures", Sum, journalFailures)

/// The daemon's ledger in `stats` line order. X(MetricsSnapshot field,
/// "stats_name", fold) lines are Metrics' relaxed atomics, CACHE lines
/// are copied in by Server::metricsSnapshot, and LATENCY(field, "prefix")
/// lines are histograms of five `stats` lines each.
#define DR_DAEMON_LEDGER(X, CACHE, LATENCY)                              \
  X(connectionsAccepted, "connections_accepted", Sum)                    \
  X(connectionsDropped, "connections_dropped", Sum) /* mid-query resets */ \
  X(requests, "requests", Sum)                                           \
  X(exploreRequests, "explore_requests", Sum)                            \
  X(statsRequests, "stats_requests", Sum)                                \
  X(shutdownRequests, "shutdown_requests", Sum)                          \
  X(healthRequests, "health_requests", Sum)                              \
  X(protocolErrors, "protocol_errors", Sum) /* corrupt frames */         \
  X(exploreErrors, "explore_errors", Sum)                                \
  X(degradedReplies, "degraded_replies", Sum) /* below the exact rungs */ \
  /* Overload sheds (admission.h); every shed is a structured reply. */  \
  X(queueDepthHighWater, "queue_depth_hwm", Max)                         \
  X(shedQueueFull, "shed_queue_full", Sum)                               \
  X(shedQueueWait, "shed_queue_wait", Sum) /* accept deadline hit */     \
  X(overloadReplies, "overload_replies", Sum) /* all sheds */            \
  X(expiredRequests, "expired_requests", Sum) /* budget gone in queue */ \
  DR_CACHE_LEDGER(CACHE)                                                 \
  X(inflightJoins, "inflight_joins", Sum) /* shared a leader's result */ \
  X(simulations, "simulations", Sum) /* leaders that ran curve points */ \
  /* Leader computations, in simcore::Fidelity order of the served rung */ \
  X(curvesSymbolic, "curves_symbolic", Sum)                              \
  X(curvesExactStream, "curves_exact_stream", Sum)                       \
  X(curvesExactFold, "curves_exact_fold", Sum)                           \
  X(curvesApproxFold, "curves_approx_fold", Sum)                         \
  X(curvesAnalytic, "curves_analytic", Sum)                              \
  /* Run-granularity stack engine (simcore::FoldedStats) of leaders. */  \
  X(runsDecoded, "runs_decoded", Sum)                                    \
  X(runFastEvents, "run_fast_events", Sum)                               \
  X(runFallbackEvents, "run_fallback_events", Sum)                       \
  /* Partitioning advisor (Advise verb, src/partition/). */              \
  X(adviseRequests, "advise_requests", Sum)                              \
  X(adviseErrors, "advise_errors", Sum)                                  \
  X(adviseCacheHits, "advise_cache_hits", Sum) /* whole reports */       \
  X(adviseFallbacks, "advise_fallbacks", Sum) /* greedy, not the DP */   \
  LATENCY(exploreLatency, "explore_latency") /* end to end */            \
  LATENCY(adviseSolveLatency, "advise_solve") /* partition solver */

/// Percentile summary of one latency histogram.
struct LatencySummary {
  i64 count = 0;
  i64 p50Us = 0;   ///< bucket upper bound containing the median
  i64 p95Us = 0;   ///< bucket upper bound containing the 95th percentile
  i64 maxUs = 0;   ///< exact maximum observed
  i64 totalUs = 0; ///< exact sum (throughput math)
};

/// Plain-data copy of every counter: what `stats` serializes. Free of
/// service types, so report/ formats it without linking the service.
struct MetricsSnapshot {
#define DR_LATENCY_FIELD(field, prefix) LatencySummary field;
  DR_DAEMON_LEDGER(DR_LEDGER_I64, DR_LEDGER_I64, DR_LATENCY_FIELD)
#undef DR_LATENCY_FIELD
};

/// One `stats` body line: "name value\n".
void appendStatLine(std::string& out, std::string_view name, i64 value);

/// Raise `slot` to at least `value` (monotone CAS max).
void raiseTo(std::atomic<i64>& slot, i64 value);

/// Relaxed atomic counters indexed by a ledger's enum, whose last value
/// is kCount: one relaxed atomic op per mutation, no lock, no allocation.
template <class Key>
class CounterArray {
 public:
  /// Add `n`; returns the value before the add.
  i64 count(Key k, i64 n = 1) {
    return slots_[index(k)].fetch_add(n, std::memory_order_relaxed);
  }
  void raise(Key k, i64 value) { raiseTo(slots_[index(k)], value); }
  i64 get(Key k) const {
    return slots_[index(k)].load(std::memory_order_relaxed);
  }

 private:
  static std::size_t index(Key k) { return static_cast<std::size_t>(k); }

  std::array<std::atomic<i64>, static_cast<std::size_t>(Key::kCount)>
      slots_{};
};

/// A latency histogram in power-of-two microsecond buckets (relaxed
/// atomics throughout), so a percentile is a bucket upper bound — honest
/// to within 2x, which is all a live dashboard needs.
class LatencyHistogram {
 public:
  void record(i64 us);
  i64 count() const { return count_.load(std::memory_order_relaxed); }
  i64 meanUs() const {  ///< 0 before the first sample
    return count() > 0 ? totalUs_.load(std::memory_order_relaxed) / count()
                       : 0;
  }

  /// Upper bound of the bucket holding quantile `q`, not clamped to the
  /// maximum (the exact maximum when the buckets read empty).
  i64 percentileUs(double q) const;
  /// p50/p95 as bucket bounds clamped to the exact maximum.
  LatencySummary summarize() const;

 private:
  static constexpr int kBuckets = 48;  ///< bucket i: us < 2^i

  std::array<std::atomic<i64>, kBuckets> buckets_{};
  std::atomic<i64> count_{0};
  std::atomic<i64> totalUs_{0};
  std::atomic<i64> maxUs_{0};
};

/// The daemon's counters by name: `metrics.count(Counter::inflightJoins)`.
enum class Counter {
  DR_DAEMON_LEDGER(DR_LEDGER_ENUM, DR_LEDGER_SKIP, DR_LEDGER_SKIP) kCount
};

/// The live counters of one daemon's or router's front door.
class Metrics : public CounterArray<Counter> {
 public:
#define DR_HISTOGRAM(field, prefix) LatencyHistogram field;
  DR_DAEMON_LEDGER(DR_LEDGER_SKIP, DR_LEDGER_SKIP, DR_HISTOGRAM)
#undef DR_HISTOGRAM

  /// Count one leader computation's served rung (simcore::Fidelity) and
  /// its run-decoding counters (fallbacks: per-element pushes in pushRun).
  void recordEngine(std::uint8_t fidelity, const simcore::FoldedStats& sim);

  /// Copy the counters; the `cache*` fields are the server's to fill.
  MetricsSnapshot snapshot() const;

  /// The `stats` verb body: one "name value\n" line per field.
  static std::string render(const MetricsSnapshot& s);
};

}  // namespace dr::service
