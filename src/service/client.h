#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "service/metrics.h"
#include "service/protocol.h"
#include "service/transport.h"
#include "support/intmath.h"
#include "support/status.h"

/// \file client.h
/// Resilient client for the exploration daemon. The first client cut
/// (examples/datareuse_query.cpp) connected once, blocked forever, and
/// surfaced every hiccup to the caller; this library wraps one
/// request/reply exchange in the full resilience stack:
///
///   - **Timeouts.** Every socket op (connect, send, recv) carries a
///     bounded timeout, so a hung or black-holed daemon costs a bounded
///     wait, never a parked caller thread.
///   - **Retries.** Transport failures and structured Unavailable
///     (load-shed) replies retry on a *fresh connection* — which is what
///     makes a daemon restart invisible — under bounded exponential
///     backoff with deterministic jitter: attempt k of call c sleeps
///     backoff(k) + Rng(mixSeed(seed, c, k)).uniform(0, backoff(k)/2),
///     never less than the server's retry-after hint. Same seed, same
///     schedule — reruns of a load test are reproducible.
///   - **Deadline propagation.** explore() charges connect time, queue
///     time (via the v2 remaining-budget field) and backoff sleeps
///     against the request's own deadline; when the budget is gone the
///     call fails locally with BudgetExceeded instead of burning a
///     daemon slot on an answer nobody is waiting for.
///   - **Circuit breaker.** breakerThreshold *consecutive transport
///     failures* trip the breaker open; while open, attempts fast-fail
///     without touching the socket until the cooldown elapses, then a
///     single half-open probe decides (success closes, failure re-trips).
///     Unavailable replies do NOT count toward the trip threshold — a
///     shedding daemon is alive, and hammering it less is the backoff's
///     job, not the breaker's.
///
/// The breaker is each Client's own, for standalone callers such as
/// datareuse_query and the load harness. The shard router builds its
/// clients with the breaker off: its own up/down marks decide where a
/// request goes (router.h).
///
/// Thread-safe: one Client may be shared across caller threads (the load
/// harness does); the breaker and stats are shared state by design —
/// N threads observing a dead daemon should trip one breaker, not N.

namespace dr::service {

struct ClientOptions {
  /// Endpoint spec (transport.h): Unix socket path or host:port.
  std::string endpoint;
  i64 connectTimeoutMs = 2000;  ///< whole connect; <= 0 = kernel default
  i64 sendTimeoutMs = 2000;     ///< per send() syscall; <= 0 = unlimited
  i64 recvTimeoutMs = 5000;     ///< per recv() syscall; <= 0 = unlimited
  /// Total attempts per call (first try included); 1 disables retries.
  int maxAttempts = 5;
  i64 backoffBaseMs = 20;   ///< attempt k (0-based) waits base << k ...
  i64 backoffCapMs = 2000;  ///< ... capped here, + seeded jitter
  /// Consecutive transport failures that trip the breaker; <= 0 disables.
  int breakerThreshold = 5;
  i64 breakerCooldownMs = 1000;  ///< open -> half-open probe delay
  std::uint64_t seed = 0x5eedULL;  ///< jitter stream (mixSeed per attempt)
};

/// InvalidInput for an unparseable endpoint, non-positive attempt budget,
/// or inverted backoff band; Ok otherwise.
support::Status validateClientOptions(const ClientOptions& opts);

/// The client's resilience ledger, one line per counter: X(field). It has
/// no `stats` lines; its owners (datareuse_query, the load harness) print
/// the fields they report.
#define DR_CLIENT_LEDGER(X)                                           \
  X(calls)                                                            \
  X(retries) /* attempts after the first, across calls */             \
  X(retryAfterHonored) /* backoffs stretched to a shed reply's hint */ \
  X(retryAfterSuccesses) /* honored hints whose next attempt won */   \
  X(transportFailures) /* connect/send/recv/short-reply failures */   \
  X(breakerTrips)                                                     \
  X(breakerResets)                                                    \
  X(breakerFastFails) /* attempts refused while the breaker is open */

struct ClientStats {
  DR_CLIENT_LEDGER(DR_LEDGER_I64)
};

/// Three-state circuit breaker of one Client. Thread-safe; the trip
/// threshold and cooldown are fixed at construction.
class CircuitBreaker {
 public:
  enum class State { Closed, Open, HalfOpen };

  /// threshold <= 0 disables the breaker (admit() always passes).
  CircuitBreaker(int threshold, i64 cooldownMs)
      : threshold_(threshold), cooldownMs_(cooldownMs) {}

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// Admission for one attempt. Returns 0 to proceed (and, when the
  /// breaker was Open past its cooldown, moves to HalfOpen with this
  /// attempt as the probe); returns the ms until the next probe window
  /// when the attempt must fast-fail.
  i64 admit();

  /// Record a transport failure; true when this one tripped the breaker
  /// (Closed past the threshold, or a failed HalfOpen probe).
  bool onFailure();

  /// Record a decoded reply (any verdict — the peer is alive); true when
  /// this reset an Open/HalfOpen breaker back to Closed.
  bool onSuccess();

  State state() const;

 private:
  const int threshold_;
  const i64 cooldownMs_;

  mutable std::mutex mutex_;
  State state_ = State::Closed;
  int consecutiveFailures_ = 0;
  std::chrono::steady_clock::time_point openUntil_{};
  bool probeInFlight_ = false;  ///< HalfOpen admits exactly one probe
};

class Client {
 public:
  using BreakerState = CircuitBreaker::State;

  /// The breaker is built from opts.breakerThreshold/breakerCooldownMs.
  explicit Client(ClientOptions opts);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One explore query under the full stack: retries (fresh connection
  /// each attempt), breaker gating, and deadline propagation — each
  /// attempt re-encodes the request with remainingBudgetMs = what is
  /// left of req.deadlineMs, and a budget exhausted between attempts
  /// fails locally with BudgetExceeded. With req.deadlineMs <= 0 the
  /// call has no budget and only maxAttempts bounds it.
  support::Expected<proto::Reply> explore(const proto::ExploreRequest& req);

  /// One partitioning-advisor query under the same stack as explore():
  /// per-attempt remaining-budget stamping, fresh-connection retries,
  /// breaker gating.
  support::Expected<proto::Reply> advise(const proto::AdviseRequest& req);

  /// One non-explore exchange (Stats / Health / Shutdown) under retries
  /// and the breaker, with no deadline budget.
  support::Expected<proto::Reply> call(proto::Verb verb,
                                       const std::string& payload);

  ClientStats stats() const;
  BreakerState breakerState() const { return breaker_.state(); }
  const ClientOptions& options() const { return opts_; }

  /// The deterministic backoff schedule (exposed for tests): delay before
  /// the retry after attempt `attempt` (0-based) of call `callIdx`, at
  /// least `retryAfterMs` when the server sent a hint.
  static i64 retryDelayMs(const ClientOptions& opts, std::uint64_t callIdx,
                          int attempt, i64 retryAfterMs);

 private:
  /// The shared retry loop. `encode` builds the payload for one attempt
  /// from the budget left (<= 0 = unlimited); `deadlineMs` caps the whole
  /// call, sleeps included.
  support::Expected<proto::Reply> run(
      proto::Verb verb, i64 deadlineMs,
      const std::function<std::string(i64 remainingMs)>& encode);

  /// One request/reply exchange on a fresh connection with socket
  /// timeouts applied. IoError = transport failure (retryable).
  support::Expected<proto::Reply> attemptOnce(proto::Verb verb,
                                              const std::string& payload);

  void onTransportFailure();
  void onTransportSuccess();

  enum class ClientCounter { DR_CLIENT_LEDGER(DR_LEDGER_ENUM) kCount };

  ClientOptions opts_;
  CircuitBreaker breaker_;
  CounterArray<ClientCounter> counters_;
};

}  // namespace dr::service
