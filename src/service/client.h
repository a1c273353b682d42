#pragma once

#include <cstdint>
#include <functional>
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
/// request/reply exchange in timeouts, retries and deadline propagation:
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
///     schedule — reruns of a load test are reproducible. The jitter is
///     what spreads the retries of a restart burst across callers.
///   - **Deadline propagation.** explore() charges connect time, queue
///     time (via the v2 remaining-budget field) and backoff sleeps
///     against the request's own deadline; when the budget is gone the
///     call fails locally with BudgetExceeded instead of burning a
///     daemon slot on an answer nobody is waiting for.
///
/// The options are validated and the endpoint parsed once, at
/// construction; a misconfigured client fails every call with the same
/// InvalidInput status. The shard router builds its forward clients with
/// maxAttempts = 1 and retries a dead transport itself, so a shed goes
/// straight back to its routing walk (router.h).
///
/// Thread-safe: one Client may be shared across caller threads (the load
/// harness does); its stats are shared state.

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
  X(transportFailures) /* connect/send/recv/short-reply failures */

struct ClientStats {
  DR_CLIENT_LEDGER(DR_LEDGER_I64)
};

class Client {
 public:
  /// Validates `opts` and parses its endpoint (validateClientOptions);
  /// a failure is returned by every call.
  explicit Client(ClientOptions opts);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One explore query under the full stack: retries (fresh connection
  /// each attempt) and deadline propagation — each attempt re-encodes
  /// the request with remainingBudgetMs = what is left of req.deadlineMs,
  /// and a budget exhausted between attempts fails locally with
  /// BudgetExceeded. With req.deadlineMs <= 0 the call has no budget and
  /// only maxAttempts bounds it.
  support::Expected<proto::Reply> explore(const proto::ExploreRequest& req);

  /// One partitioning-advisor query under the same stack as explore():
  /// per-attempt remaining-budget stamping and fresh-connection retries.
  support::Expected<proto::Reply> advise(const proto::AdviseRequest& req);

  /// One non-explore exchange (Stats / Health / Shutdown) under retries,
  /// with no deadline budget.
  support::Expected<proto::Reply> call(proto::Verb verb,
                                       const std::string& payload);

  ClientStats stats() const;
  const ClientOptions& options() const { return opts_; }

  /// The deterministic backoff schedule (the router's forward retries
  /// use it too): delay before the retry after attempt `attempt`
  /// (0-based) of call `callIdx`, at least `retryAfterMs` when the server
  /// sent a hint.
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

  enum class ClientCounter { DR_CLIENT_LEDGER(DR_LEDGER_ENUM) kCount };

  ClientOptions opts_;
  /// opts_.endpoint parsed, or why the options are invalid.
  support::Expected<transport::Endpoint> endpoint_;
  CounterArray<ClientCounter> counters_;
};

}  // namespace dr::service
