#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "service/admission.h"
#include "service/cache.h"
#include "service/front_door.h"
#include "service/kernel_memo.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/singleflight.h"
#include "service/transport.h"
#include "support/budget.h"
#include "support/status.h"

/// \file server.h
/// The exploration daemon: a front door (front_door.h) over a
/// Unix-domain or TCP listener (transport.h) dispatching framed requests
/// (protocol.h) onto a small worker pool. Every explore request flows
///
///   kernel facts (kernel_memo.h: memoized, or compile and learn)
///     -> resolve signal -> config hash
///     -> single-flight (one computation per concurrent identical burst)
///     -> result cache (memory LRU, then the warm journal layer)
///     -> explorer (under a per-request RunBudget deadline)
///
/// so a burst of N identical cold queries costs one simulation, a warm
/// query never simulates at all, and a memory-layer hit on a memoized
/// kernel does not compile it either: the Program is compiled only when
/// the warm journal or the explorer needs it. A tripped deadline degrades the reply
/// down the fidelity ladder (PR 3) instead of failing it; degraded
/// results are served but never cached. Faults are connection-scoped: a
/// malformed frame, a mid-query disconnect, or an injected
/// FaultSite::ServiceIo failure closes that connection and nothing else —
/// workers swallow per-request exceptions into error replies.
///
/// Overload never grows memory or hangs clients (admission.h): accepted
/// connections enter a bounded queue, and at capacity — or past the
/// per-connection accept deadline — the daemon sheds with a structured
/// Unavailable reply carrying a retry-after hint. Shedding is the one
/// overload control. Queue wait is charged against the request's own
/// budget (proto v2 remaining-budget field); a request that expired
/// while queued is rejected outright.
///
/// Shutdown (the verb or requestShutdown()) drains gracefully: the
/// listener stops accepting, in-flight and already-queued connections
/// finish their current requests, then the workers exit and wait()
/// returns.

namespace dr::service {

struct ServerOptions {
  /// Endpoint spec (transport.h): a Unix socket path, "unix:PATH", or
  /// "host:port" / "tcp:host:port". A TCP listener may use port 0 to
  /// draw an ephemeral port; boundEndpoint() reports the resolved one.
  std::string endpoint;
  int workers = 4;
  /// Per-request deadline applied when the request doesn't carry its own
  /// (explore requests may override per query); <= 0 = unlimited.
  support::i64 defaultDeadlineMs = 0;
  ResultCache::Options cache;
  AdmissionOptions admission;
};

/// Full pre-flight check of a configuration: InvalidInput for a missing
/// or unparseable endpoint spec, non-positive or absurd worker counts, a
/// non-positive cache byte budget, or out-of-range admission limits.
/// start() runs this before spawning anything, so a broken configuration
/// is a clean error, never a half-started pool.
support::Status validateServerOptions(const ServerOptions& opts);

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();  ///< requestShutdown() + wait()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Validate options (validateServerOptions), bind + listen on
  /// options().endpoint (replacing a stale Unix socket file) and spawn
  /// the accept thread and worker pool. InvalidInput for a bad
  /// configuration, IoError when the endpoint is unusable; calling
  /// start() twice is a contract violation.
  support::Status start();

  /// Begin a graceful drain (idempotent, callable from any thread —
  /// including a worker serving the Shutdown verb).
  void requestShutdown();

  /// Block until the drain finishes and every thread has exited.
  void wait();

  bool draining() const { return door_.draining(); }

  const ServerOptions& options() const { return opts_; }

  /// The endpoint the listener actually bound — equal to the parsed
  /// options().endpoint except that a TCP port 0 is resolved to the
  /// concrete ephemeral port. Valid after a successful start().
  const transport::Endpoint& boundEndpoint() const { return door_.bound(); }

  /// Live counters with the cache's own ledger folded in — the body of
  /// the `stats` verb and the feed of report::metricsReport.
  MetricsSnapshot metricsSnapshot() const;

 private:
  proto::Reply handleExplore(const proto::ExploreRequest& req,
                             support::i64 queueWaitMs);
  proto::Reply handleAdvise(const proto::AdviseRequest& req,
                            support::i64 queueWaitMs);

  /// The RunBudget deadline of a request with `budgetMs` left (<= 0 =
  /// the client set none): the client's budget, else the server default
  /// less the queue wait. 0 = unlimited.
  support::i64 effectiveDeadlineMs(support::i64 budgetMs,
                                   support::i64 queueWaitMs) const;

  /// One signal's curve for either verb, under default ExploreOptions
  /// with `budget` (null = unlimited), keyed by the facts' config hash:
  /// computed outright under kFlagNoCache, otherwise through
  /// single-flight and every cache layer, compiling `kernel` only below
  /// the memory layer. Counts joins, simulations and the engine mix;
  /// `*computed` reports whether any curve point was recomputed for this
  /// request.
  support::Expected<CachedCurve> fetchCurve(RequestKernel& kernel,
                                            int signal,
                                            support::RunBudget* budget,
                                            bool noCache, bool* computed);

  /// One cached advisor answer — everything an AdviseResult body needs.
  /// Keyed by partition::adviseConfigHash; only reports whose curves all
  /// came from exact fidelity rungs enter (mirroring ResultCache: a
  /// deadline-degraded placement can never poison a later idle query).
  struct AdviseEntry {
    std::uint64_t hash = 0;
    std::uint8_t fidelity = 0;
    bool usedFallback = false;
    support::i64 baselineMisses = 0;
    support::i64 partitionedMisses = 0;
    std::string csv;
  };
  std::optional<AdviseEntry> adviseCacheGet(std::uint64_t hash);
  void adviseCachePut(AdviseEntry entry);

  ServerOptions opts_;
  Metrics metrics_;
  KernelMemo memo_;
  ResultCache cache_;
  SingleFlight flight_;

  /// Whole-report advise cache (the per-signal curves already live in
  /// cache_; this avoids re-solving and re-rendering on repeat advise
  /// queries). Small and entry-capped: reports are a few hundred bytes.
  static constexpr std::size_t kAdviseCacheEntries = 256;
  std::mutex adviseMutex_;
  std::list<AdviseEntry> adviseLru_;  ///< most recent first
  std::unordered_map<std::uint64_t, std::list<AdviseEntry>::iterator>
      adviseIndex_;

  /// Listener, admission queue and worker pool (front_door.h). Declared
  /// last: its threads use every member above.
  FrontDoor door_;
};

}  // namespace dr::service
