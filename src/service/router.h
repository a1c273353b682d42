#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/admission.h"
#include "service/client.h"
#include "service/front_door.h"
#include "service/kernel_memo.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/transport.h"
#include "support/intmath.h"
#include "support/status.h"

/// \file router.h
/// Shard router for the exploration service: one front door over N
/// independent backend daemons, turning a single fault domain into N.
/// Placement is a consistent-hash ring keyed by the same
/// explorer::exploreConfigHash both cache layers use — the router takes
/// it from its own kernel memo (kernel_memo.h), compiling the kernel on
/// a memo miss, so every query for one configuration lands on the same
/// shard (its memory and warm caches stay hot) and a malformed kernel is
/// rejected at the front door without burning a shard slot.
///
/// Failure handling, from fastest to slowest signal:
///
///   - **Passive accounting.** Every forwarded reply marks its shard up;
///     every failed forward (a dead transport after the forward's
///     in-place retries) marks one strike. kHealthFailureThreshold
///     consecutive strikes take the shard Down. These marks and the
///     probes below are the router's one failure detector, so a shard a
///     probe marks up is served at once.
///   - **Active probes.** A background thread sends the Health verb to
///     every shard each `healthIntervalMs` on a short timeout, so a dead
///     shard is discovered within one probe interval even with zero
///     traffic, and a recovered one comes back without waiting for a
///     request to gamble on it.
///   - **Failover.** Explore and Advise take one routing walk: the ring
///     preference order, skipping Down shards; a dead transport or an
///     Unavailable (shedding) reply moves to the next replica. A shed is
///     never retried on the shedding shard: the forward hands any decoded
///     reply straight back to the walk. When every candidate is down or
///     shedding, the router answers a structured Unavailable with a
///     retry-after hint — the same contract a single overloaded daemon
///     honors.
///   - **Hedging.** Optionally, an Explore to a slow shard launches one
///     hedge to the next replica after a p99-derived delay (or the fixed
///     `hedgeDelayMs`); the first reply wins, the loser's thread drains
///     in the background bounded by its socket timeouts. Hedges respect
///     the caller's propagated budget and are never launched when no
///     healthy replica exists. Advise is never hedged: it fans out to
///     one exploration per signal on the shard, so a speculative
///     duplicate costs far more than a late reply.
///
/// The front door (listener, admission queue with its shed replies,
/// worker pool, drain) is the daemon's own (front_door.h), counting into
/// the router's Metrics. All routing sleeps and forwards are charged to
/// the caller's propagated remainingBudgetMs, exactly like the
/// single-daemon path.

namespace dr::service {

/// Consistent-hash ring over the shard endpoints: each shard owns
/// `virtualNodes` pseudo-random points (mixSeed of the endpoint's FNV-1a
/// and the replica index); a key is served by the shard owning the next
/// point clockwise. Public so tests and the chaos harness can compute
/// placement and preference orders without a live router.
class ShardRing {
 public:
  ShardRing(const std::vector<std::string>& endpoints, int virtualNodes);

  int shardCount() const { return shards_; }

  /// The shard index owning `key` (the failover walk's first stop).
  int primary(std::uint64_t key) const;

  /// Every shard index, ordered by ring walk from `key`: preference[0]
  /// is the primary, preference[1] the first failover replica, and so
  /// on — each shard exactly once.
  std::vector<int> preference(std::uint64_t key) const;

 private:
  struct Point {
    std::uint64_t hash;
    int shard;
  };
  std::vector<Point> ring_;  ///< sorted by hash
  int shards_ = 0;
};

/// Consecutive strikes (failed forwards or probes) that take a shard Down.
constexpr int kHealthFailureThreshold = 2;
/// Bounds of the p99-derived hedge delay; the ceiling also applies before
/// the p99 has enough samples.
constexpr i64 kHedgeMinDelayMs = 10;
constexpr i64 kHedgeMaxDelayMs = 250;

struct RouterOptions {
  /// Front-door endpoint spec (transport.h); TCP port 0 = ephemeral.
  std::string listen;
  /// Backend shard endpoint specs, each a running datareuse_serve.
  std::vector<std::string> shards;
  int workers = 4;
  int virtualNodes = 64;  ///< ring points per shard

  // Health probing.
  i64 healthIntervalMs = 250;  ///< probe cadence; <= 0 disables probes
  i64 healthTimeoutMs = 500;   ///< per-probe connect/recv bound

  // Hedged requests.
  bool hedge = true;
  i64 hedgeDelayMs = 0;  ///< fixed hedge delay; 0 = derive from p99

  /// Template for the per-shard forward clients. The endpoint is
  /// overridden per shard, and each forward client makes one exchange
  /// per call: `maxAttempts`, the backoff band and the seed set the
  /// router's own in-place retries of a dead transport (Router::forward),
  /// while a decoded reply, a shed included, goes straight back to the
  /// routing walk. Defaults to 2 attempts: transient blips retry in
  /// place, real failures fail over to the next replica instead of
  /// hammering a dead socket through five backoffs.
  ClientOptions client = defaultForwardClientOptions();

  AdmissionOptions admission;

  static ClientOptions defaultForwardClientOptions() {
    ClientOptions o;
    o.maxAttempts = 2;
    o.backoffBaseMs = 10;
    o.backoffCapMs = 200;
    return o;
  }
};

/// InvalidInput for an unparseable listen spec, no shards, a duplicate
/// or unparseable shard spec, non-positive workers/virtual nodes, or a
/// broken client template.
support::Status validateRouterOptions(const RouterOptions& opts);

/// The router's ledger in `stats` line order (the shard daemons keep
/// their own). DOOR(field, "stats_name") lines copy the router's
/// front-door Metrics counter of the same name; OWN(field, "stats_name")
/// lines are the routing walk's own relaxed atomics.
#define DR_ROUTER_LEDGER(DOOR, OWN)                                      \
  DOOR(requests, "router_requests")                                      \
  DOOR(exploreRequests, "router_explore_requests")                       \
  DOOR(adviseRequests, "router_advise_requests")                         \
  DOOR(healthRequests, "router_health_requests")                         \
  DOOR(statsRequests, "router_stats_requests")                           \
  DOOR(protocolErrors, "router_protocol_errors")                         \
  OWN(failovers, "router_failovers") /* moved to the next replica */     \
  OWN(hedgesLaunched, "router_hedges_launched")                          \
  OWN(hedgesWon, "router_hedges_won") /* hedge beat the primary */       \
  OWN(healthProbes, "router_health_probes")                              \
  OWN(healthProbeFailures, "router_health_probe_failures")               \
  OWN(healthFlaps, "router_health_flaps") /* Up<->Down transitions */    \
  OWN(shardDownSkips, "router_shard_down_skips") /* marked Down */       \
  OWN(exhausted, "router_exhausted") /* ran out of replicas */           \
  DOOR(shedQueueFull, "router_shed_queue_full")                          \
  DOOR(shedQueueWait, "router_shed_queue_wait") /* accept deadline */    \
  DOOR(expiredRequests, "router_expired_requests") /* budget gone */

struct RouterStats {
  DR_ROUTER_LEDGER(DR_LEDGER_I64, DR_LEDGER_I64)
  std::vector<bool> shardUp;
  std::vector<i64> shardForwards;  ///< replies obtained from each shard
};

class Router {
 public:
  explicit Router(RouterOptions opts);
  ~Router();  ///< requestShutdown() + wait()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Validate, bind the front door, spawn accept/worker/probe threads.
  support::Status start();

  void requestShutdown();

  /// Block until the drain finishes, the probe thread exits, and every
  /// outstanding hedge thread has drained.
  void wait();

  bool draining() const { return door_.draining(); }

  const RouterOptions& options() const { return opts_; }
  const transport::Endpoint& boundEndpoint() const { return door_.bound(); }
  const ShardRing& ring() const { return ring_; }

  RouterStats stats() const;

  /// The stats verb body: one "name value" line per counter plus
  /// per-shard `shard_<i>_up` / `shard_<i>_forwards` lines.
  static std::string render(const RouterStats& s);

  /// The live hedge delay: options().hedgeDelayMs when fixed, otherwise
  /// the p99 of forwarded explore latencies clamped to
  /// [kHedgeMinDelayMs, kHedgeMaxDelayMs] (the ceiling until enough
  /// samples exist). Exposed for tests.
  i64 currentHedgeDelayMs() const;

 private:
  /// Health + forwarding state for one shard.
  struct Shard {
    std::unique_ptr<Client> client;  ///< one exchange per call
    ClientOptions probeOptions;      ///< single-attempt, short-timeout probe

    std::mutex mutex;
    bool up = true;
    int consecutiveFailures = 0;
    std::atomic<i64> forwards{0};
    /// Forward calls so far, the call index of the retry jitter.
    std::atomic<std::uint64_t> calls{0};
  };

  /// Counts in-flight detached forward threads (hedge losers included)
  /// so wait() never returns while one could still touch the router.
  class ActivityGate {
   public:
    void enter();
    void leave();
    void waitIdle();

   private:
    std::mutex mutex_;
    std::condition_variable cv_;
    i64 active_ = 0;
  };

  /// The routing walk, for an Explore or an Advise: charge the queue
  /// wait, place the request by its config hash (an Advise by its
  /// kernel's first read signal, whose shard holds the warmest curves
  /// for the kernel), then forward along the ring preference order.
  template <class Request>
  proto::Reply route(const Request& req, i64 queueWaitMs);

  /// Forward one request to one shard with what is left of the budget
  /// (`budgetMs` <= 0 = unlimited). A dead transport is retried in place,
  /// up to the client template's maxAttempts on its backoff schedule,
  /// sleeps charged to the budget; any decoded reply, a shed included,
  /// returns at once. Marks the shard up on a reply and strikes it once
  /// when every attempt's transport failed.
  template <class Request>
  support::Expected<proto::Reply> forward(const Request& req, int shardIdx,
                                          i64 budgetMs);

  /// Forward an Explore to `primaryIdx`, hedging to `hedgeIdx` after the
  /// live hedge delay when the primary has not answered.
  support::Expected<proto::Reply> forwardWithHedge(
      const proto::ExploreRequest& req, int primaryIdx, int hedgeIdx,
      i64 budgetMs);

  void probeLoop();
  void markShardUp(int idx);
  void markShardStrike(int idx);
  bool shardUp(int idx) const;

  enum class RouterCounter {
    DR_ROUTER_LEDGER(DR_LEDGER_SKIP, DR_LEDGER_ENUM) kCount
  };

  RouterOptions opts_;
  ShardRing ring_;
  KernelMemo memo_;  ///< placement facts, so a repeat kernel skips compile
  std::vector<std::unique_ptr<Shard>> shards_;
  Metrics metrics_;  ///< front-door counts (requests, sheds, expiry)
  ActivityGate gate_;

  std::mutex probeWakeMutex_;
  std::condition_variable probeWakeCv_;

  CounterArray<RouterCounter> counters_;  ///< the OWN lines of the ledger
  /// Successful Explore forwards, feeding the p99-derived hedge delay.
  LatencyHistogram forwardLatency_;

  /// Listener, admission queue and worker pool (front_door.h). Declared
  /// after every member its threads use.
  FrontDoor door_;
  std::thread probeThread_;
};

}  // namespace dr::service
