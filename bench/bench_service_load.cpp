// Chaos/load harness for the exploration service: an in-process daemon
// under a mixed hot/cold/malformed query stream at a configurable
// offered rate, with optional fault injection (FaultSite::ServiceIo,
// needs -DDR_FAULT_INJECT=ON) and periodic kill/restart of the daemon on
// the same cache directory: every --kill-every-ms it goes dark for a
// fifth of that period, so the clients' retries pile up and land on the
// restarted daemon as a burst that overflows its admission queue. The
// burst comes from the retries alone, spread by the client's jittered
// backoff. Clients ride the resilient client library (service/client.h),
// so a restart costs retries, not failures.
//
// The one invariant that must never break, overloaded or not: every
// successfully returned *exact-fidelity* curve is byte-identical to the
// cold CLI run of the same query (explore_kernel --curve-out). Overload
// may degrade a reply (tagged by fidelity) or shed it (structured
// Unavailable with a retry-after hint) — it may never corrupt one.
// The harness recomputes the reference curve in-process through the same
// explorer entry point the CLI uses and exits nonzero on any mismatch.
//
//   $ ./bench/bench_service_load [--duration-ms N] [--qps N]
//       [--threads N] [--workers N] [--queue-depth N]
//       [--deadline-ms N] [--kill-every-ms N] [--fault-p P]
//       [--shards N] [--hedge-delay-ms N]
//       [--seed N] [--out BENCH_service_load.json]
//
// --shards N > 0 switches to the fault-domain topology: N daemons on
// ephemeral TCP ports (each with its own cache dir), a shard router
// (service/router.h) in front, and the kill thread taking out the shard
// that owns the query kernel's placement — every query's primary — for a
// dwell of a fifth of --kill-every-ms before restarting it in place. The
// kills alternate between a blackholed shard (a bare listener on its port
// accepts and never answers: forwards stall past the hedge delay and the
// hedge to the next replica wins) and a dark one (nothing listens:
// forwards are refused and fail over), so every run of two kills or more
// crosses both routing paths while the byte-identity invariant still
// holds on every exact reply. The dwell is what makes the failure paths
// reachable: a bare restart leaves the listener dark for under 5 ms, and
// every query of this kernel answers well inside the hedge delay and
// faster than the offered load can fill a queue. --shards 0 (default) is
// the single-daemon harness.
//
// Emits a JSON record (p50/p99 latency, shed rate, degraded-reply rate,
// retry counts, corrupt-curve count, router failover/hedge counters) for
// the CI chaos-smoke and router-chaos-smoke jobs.

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "explorer/explorer.h"
#include "frontend/frontend.h"
#include "kernels/motion_estimation.h"
#include "report/report.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/router.h"
#include "service/server.h"
#include "service/transport.h"
#include "simcore/reuse_curve.h"
#include "support/cli.h"
#include "support/dataset.h"
#include "support/fault.h"
#include "support/rng.h"

namespace {

namespace proto = dr::service::proto;
using dr::service::Client;
using dr::service::ClientOptions;
using dr::service::ClientStats;
using dr::service::Server;
using dr::service::ServerOptions;
using dr::support::i64;
using dr::support::Status;
using dr::support::StatusCode;
using Clock = std::chrono::steady_clock;

struct LoadConfig {
  i64 durationMs = 3000;
  i64 qps = 200;        ///< offered load across all threads
  int threads = 8;      ///< client threads
  int workers = 2;      ///< daemon worker pool
  int queueDepth = 8;   ///< admission queue bound (small: provoke sheds)
  i64 deadlineMs = 500; ///< per-query client deadline (propagated)
  i64 killEveryMs = 0;  ///< take the daemon down this often; 0 = never
  int shards = 0;       ///< > 0: TCP shard fleet behind the router
  i64 hedgeDelayMs = 20;  ///< router hedge delay; 0 = p99-derived
  double faultP = 0.0;  ///< ServiceIo fault probability (DR_FAULT_INJECT)
  std::uint64_t seed = 42;
  std::string outPath;
};

/// Shared tally across client threads.
struct Tally {
  std::atomic<i64> sent{0};
  std::atomic<i64> okExact{0};
  std::atomic<i64> okDegraded{0};
  std::atomic<i64> shed{0};       ///< final answer was Unavailable
  std::atomic<i64> expired{0};    ///< BudgetExceeded (queue ate the budget)
  std::atomic<i64> malformedRejected{0};  ///< error reply to a bad query
  std::atomic<i64> transportLost{0};      ///< retries exhausted on IoError
  std::atomic<i64> corrupt{0};    ///< exact reply != reference CSV
  std::atomic<i64> otherErrors{0};

  std::mutex latencyMutex;
  std::vector<i64> latenciesUs;  ///< successful replies only
};

i64 percentileUs(std::vector<i64>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

std::string uniquePath(const char* stem, const char* suffix) {
  return std::string("/tmp/") + stem + "_" + std::to_string(::getpid()) +
         suffix;
}

/// Fold `part`'s counters into `total` by the daemon ledger's fold
/// column, so every counter survives a restart and adds up over shards.
/// Latency summaries are left alone: percentiles do not add.
void fold(dr::service::MetricsSnapshot& total,
          const dr::service::MetricsSnapshot& part) {
  using dr::service::Fold;
#define DR_FOLD(field, name, how, ...)                                  \
  total.field = Fold::how == Fold::Max ? std::max(total.field, part.field) \
                                       : total.field + part.field;
  DR_DAEMON_LEDGER(DR_FOLD, DR_FOLD, DR_LEDGER_SKIP)
#undef DR_FOLD
}

/// The daemon under chaos: the harness owns it and the kill thread
/// restarts it in place on the same options (same cache dir), exactly
/// like an operator bouncing the process.
class ChaosServer {
 public:
  explicit ChaosServer(ServerOptions opts) : opts_(std::move(opts)) {}

  Status start() {
    std::lock_guard<std::mutex> lock(mutex_);
    server_ = std::make_unique<Server>(opts_);
    ++starts_;
    Status st = server_->start();
    // Pin the resolved endpoint: a TCP shard asked to listen on port 0
    // must come back on the same concrete port after every restart, or
    // the router and clients would be chasing a moving target.
    if (st.isOk())
      opts_.endpoint =
          dr::service::transport::toString(server_->boundEndpoint());
    return st;
  }

  std::string endpoint() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return opts_.endpoint;
  }

  /// Shut the daemon down, listener included, until bringUp().
  void takeDown() {
    std::lock_guard<std::mutex> lock(mutex_);
    server_->requestShutdown();
    server_->wait();
    fold(retired_, server_->metricsSnapshot());
  }

  /// A fresh instance on the same options (same endpoint and cache dir).
  Status bringUp() {
    std::lock_guard<std::mutex> lock(mutex_);
    server_ = std::make_unique<Server>(opts_);
    ++starts_;
    return server_->start();
  }

  void stop() {
    std::lock_guard<std::mutex> lock(mutex_);
    server_->requestShutdown();
    server_->wait();
  }

  /// Whole-run counters: each instance's metrics die with it on restart,
  /// so retired instances are folded into a running total here and the
  /// live instance added on top — the JSON covers the whole chaotic run,
  /// not just the last survivor.
  dr::service::MetricsSnapshot metrics() const {
    std::lock_guard<std::mutex> lock(mutex_);
    dr::service::MetricsSnapshot s = server_->metricsSnapshot();
    fold(s, retired_);
    return s;
  }

  int starts() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return starts_;
  }

 private:
  ServerOptions opts_;
  mutable std::mutex mutex_;
  std::unique_ptr<Server> server_;
  dr::service::MetricsSnapshot retired_;
  int starts_ = 0;
};

/// A downed shard that still looks alive: a bare listener on its
/// endpoint accepts every connection and never answers, until destroyed.
class Blackhole {
 public:
  explicit Blackhole(const std::string& endpoint) {
    auto ep = dr::service::transport::parseEndpoint(endpoint);
    if (!ep.hasValue()) {
      status_ = ep.status();
      return;
    }
    auto listener = dr::service::transport::listenOn(*ep);
    if (!listener.hasValue()) {
      status_ = listener.status();
      return;
    }
    fd_ = listener->fd;
    acceptor_ = std::thread([this] {
      while (!closing_.load(std::memory_order_acquire)) {
        pollfd pfd{fd_, POLLIN, 0};
        if (::poll(&pfd, 1, 10) <= 0) continue;
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn >= 0) held_.push_back(conn);
      }
    });
  }

  ~Blackhole() {
    closing_.store(true, std::memory_order_release);
    if (acceptor_.joinable()) acceptor_.join();
    for (int conn : held_) ::close(conn);
    if (fd_ >= 0) ::close(fd_);
  }

  Blackhole(const Blackhole&) = delete;
  Blackhole& operator=(const Blackhole&) = delete;

  const Status& status() const { return status_; }

 private:
  Status status_ = Status::ok();
  int fd_ = -1;
  std::atomic<bool> closing_{false};
  std::vector<int> held_;  ///< accepted connections, never read
  std::thread acceptor_;
};

int runHarness(const LoadConfig& cfg) {
  const std::string kernel =
      dr::kernels::motionEstimationSource({32, 32, 4, 4});
  const std::string signal = "Old";

  // Reference curve: the same entry point explore_kernel uses, no
  // budget — the cold CLI run every exact service reply must match.
  auto compiled = dr::frontend::compileKernelChecked(kernel);
  if (!compiled.hasValue()) {
    std::fprintf(stderr, "%s\n", compiled.status().str().c_str());
    return 1;
  }
  const int sig = compiled->findSignal(signal);
  dr::explorer::ExploreOptions xopts;
  auto reference = dr::explorer::exploreSignalChecked(*compiled, sig, xopts);
  if (!reference.hasValue()) {
    std::fprintf(stderr, "%s\n", reference.status().str().c_str());
    return 1;
  }
  const std::string referenceCsv =
      dr::report::curveCsv(reference->signalName, reference->simulatedCurve);

  // --shards 0: the original single daemon on a Unix socket.
  // --shards N: N TCP shards (ephemeral ports, pinned after the first
  // bind) with per-shard cache dirs, behind one router front door.
  const bool routed = cfg.shards > 0;
  const int nShards = routed ? cfg.shards : 1;
  std::vector<std::unique_ptr<ChaosServer>> fleet;
  fleet.reserve(static_cast<std::size_t>(nShards));
  for (int s = 0; s < nShards; ++s) {
    ServerOptions sopts;
    sopts.endpoint =
        routed ? "127.0.0.1:0" : uniquePath("dr_load", ".sock");
    sopts.workers = cfg.workers;
    sopts.admission.maxQueueDepth = cfg.queueDepth;
    const std::string suffix = routed ? "_" + std::to_string(s) : "";
    const std::string cacheDir = uniquePath("dr_load_cache", suffix.c_str());
    ::mkdir(cacheDir.c_str(), 0777);
    sopts.cache.warmDir = cacheDir;
    fleet.push_back(std::make_unique<ChaosServer>(sopts));
  }

  if (cfg.faultP > 0.0) {
    if (!dr::support::fault::kCompiledIn)
      std::fprintf(stderr,
                   "warning: --fault-p ignored (built without "
                   "DR_FAULT_INJECT)\n");
    dr::support::fault::armRandom(dr::support::fault::FaultSite::ServiceIo,
                                  cfg.seed, cfg.faultP);
  }

  for (auto& shard : fleet)
    if (Status st = shard->start(); !st.isOk()) {
      std::fprintf(stderr, "%s\n", st.str().c_str());
      return 1;
    }

  std::unique_ptr<dr::service::Router> router;
  std::string target;
  if (routed) {
    dr::service::RouterOptions ropts;
    ropts.listen = "127.0.0.1:0";
    for (auto& shard : fleet) ropts.shards.push_back(shard->endpoint());
    // The router must never be the bottleneck under the offered load —
    // one worker per client thread, and a queue sized for the fleet.
    ropts.workers = std::max(4, cfg.threads);
    ropts.admission.maxQueueDepth = cfg.queueDepth * nShards;
    ropts.healthIntervalMs = 100;  // discover kills within ~a probe tick
    ropts.hedgeDelayMs = cfg.hedgeDelayMs;
    router = std::make_unique<dr::service::Router>(std::move(ropts));
    if (Status st = router->start(); !st.isOk()) {
      std::fprintf(stderr, "%s\n", st.str().c_str());
      return 1;
    }
    target = dr::service::transport::toString(router->boundEndpoint());
  } else {
    target = fleet.front()->endpoint();
  }

  ClientOptions copts;
  copts.endpoint = target;
  copts.maxAttempts = 6;
  copts.backoffBaseMs = 10;
  copts.backoffCapMs = 250;
  copts.seed = cfg.seed;
  Client client(copts);  // shared across every thread: one ledger

  Tally tally;
  std::atomic<bool> running{true};
  const auto t0 = Clock::now();

  // Kill thread, on a fixed cadence from the start: take the daemon (in
  // router mode, the shard owning the kernel's placement) down for a
  // fifth of the cadence, then restart it in place. Router mode
  // blackholes it on the first, third, ... kill; otherwise it is dark.
  const int owner =
      routed ? router->ring().primary(dr::explorer::exploreConfigHash(
                   *compiled, sig, {}))
             : 0;
  const auto dwell = std::chrono::milliseconds(cfg.killEveryMs / 5);
  std::thread killer;
  if (cfg.killEveryMs > 0)
    killer = std::thread([&] {
      ChaosServer& victim = *fleet[static_cast<std::size_t>(owner)];
      for (int kill = 0; running.load(std::memory_order_acquire); ++kill) {
        std::this_thread::sleep_until(
            t0 + std::chrono::milliseconds(cfg.killEveryMs * (kill + 1)));
        if (!running.load(std::memory_order_acquire)) break;
        Status st = Status::ok();
        victim.takeDown();
        if (routed && kill % 2 == 0) {
          Blackhole hole(victim.endpoint());
          st = hole.status();
          std::this_thread::sleep_for(dwell);
        } else {
          std::this_thread::sleep_for(dwell);
        }
        Status up = victim.bringUp();
        if (st.isOk()) st = up;
        if (!st.isOk()) {
          std::fprintf(stderr, "restart: %s\n", st.str().c_str());
          return;
        }
      }
    });

  // Client threads: each paces its slice of the offered QPS and draws
  // its query mix from a seeded stream — ~60% hot (cacheable), ~30%
  // cold (no-cache: forces a simulation, the sustained-load lever),
  // ~10% malformed (must be rejected cleanly, never crash anything).
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(cfg.threads));
  for (int t = 0; t < cfg.threads; ++t)
    threads.emplace_back([&, t] {
      dr::support::Rng rng(
          dr::support::mixSeed(cfg.seed, static_cast<std::uint64_t>(t)));
      const double perThreadQps =
          static_cast<double>(cfg.qps) / cfg.threads;
      const i64 intervalUs =
          perThreadQps > 0 ? static_cast<i64>(1e6 / perThreadQps) : 0;
      i64 fired = 0;
      while (running.load(std::memory_order_acquire)) {
        // Fixed-rate pacing from the global start, per thread.
        const auto next =
            t0 + std::chrono::microseconds(intervalUs * fired +
                                           (intervalUs * t) / cfg.threads);
        std::this_thread::sleep_until(next);
        ++fired;
        if (!running.load(std::memory_order_acquire)) break;

        const i64 dice = rng.uniform(0, 99);
        proto::ExploreRequest req;
        req.kernel = kernel;
        req.signal = signal;
        req.deadlineMs = cfg.deadlineMs;
        bool expectOk = true;
        if (dice < 60) {
          // hot: cacheable
        } else if (dice < 90) {
          req.flags |= proto::kFlagNoCache;  // cold: always simulates
        } else {
          req.kernel = "kernel broken { this is not a kernel";
          expectOk = false;
        }

        tally.sent.fetch_add(1, std::memory_order_relaxed);
        const auto q0 = Clock::now();
        auto reply = client.explore(req);
        const i64 usedUs =
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - q0)
                .count();

        if (!reply.hasValue()) {
          const StatusCode code = reply.status().code();
          if (code == StatusCode::Unavailable)
            tally.shed.fetch_add(1, std::memory_order_relaxed);
          else if (code == StatusCode::BudgetExceeded)
            tally.expired.fetch_add(1, std::memory_order_relaxed);
          else
            tally.transportLost.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (reply->code == StatusCode::Unavailable) {
          tally.shed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (reply->code == StatusCode::BudgetExceeded) {
          tally.expired.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (reply->code != StatusCode::Ok) {
          if (!expectOk)
            tally.malformedRejected.fetch_add(1, std::memory_order_relaxed);
          else
            tally.otherErrors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        auto result = proto::decodeExploreResult(reply->body);
        if (!result.hasValue()) {
          tally.corrupt.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const bool exact =
            result->fidelity ==
                static_cast<std::uint8_t>(dr::simcore::Fidelity::Symbolic) ||
            result->fidelity == static_cast<std::uint8_t>(
                                    dr::simcore::Fidelity::ExactStream) ||
            result->fidelity ==
                static_cast<std::uint8_t>(dr::simcore::Fidelity::ExactFold);
        if (exact) {
          // THE invariant: an exact reply under chaos is byte-identical
          // to the cold CLI run. Degrade or shed, never corrupt.
          if (result->csv == referenceCsv)
            tally.okExact.fetch_add(1, std::memory_order_relaxed);
          else
            tally.corrupt.fetch_add(1, std::memory_order_relaxed);
        } else {
          tally.okDegraded.fetch_add(1, std::memory_order_relaxed);
        }
        std::lock_guard<std::mutex> lock(tally.latencyMutex);
        tally.latenciesUs.push_back(usedUs);
      }
    });

  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.durationMs));
  running.store(false, std::memory_order_release);
  for (auto& th : threads) th.join();
  if (killer.joinable()) killer.join();
  dr::support::fault::disarmAll();
  dr::service::MetricsSnapshot serverMetrics = fleet.front()->metrics();
  for (std::size_t s = 1; s < fleet.size(); ++s)
    fold(serverMetrics, fleet[s]->metrics());
  dr::service::RouterStats routerStats;
  if (router) {
    routerStats = router->stats();
    router->requestShutdown();
    router->wait();
  }
  int restarts = 0;
  for (auto& shard : fleet) {
    restarts += shard->starts() - 1;
    shard->stop();
  }

  const double elapsedSec =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const ClientStats cs = client.stats();
  const i64 sent = tally.sent.load();
  const i64 ok = tally.okExact.load() + tally.okDegraded.load();
  const i64 p50 = percentileUs(tally.latenciesUs, 0.50);
  const i64 p99 = percentileUs(tally.latenciesUs, 0.99);
  const i64 maxUs =
      tally.latenciesUs.empty() ? 0 : tally.latenciesUs.back();
  const auto rate = [&](i64 n) {
    return sent > 0 ? static_cast<double>(n) / static_cast<double>(sent)
                    : 0.0;
  };

  std::printf(
      "service load: %lld sent in %.2fs (offered %lld qps); "
      "%lld ok (%lld exact, %lld degraded), %lld shed, %lld expired, "
      "%lld malformed rejected, %lld transport-lost, %lld corrupt\n"
      "latency us p50 %lld p99 %lld max %lld; "
      "client: %lld retries, %lld honored hints; "
      "server: %lld restarts, queue hwm %lld, %lld shed-full, "
      "%lld shed-wait\n",
      static_cast<long long>(sent), elapsedSec,
      static_cast<long long>(cfg.qps), static_cast<long long>(ok),
      static_cast<long long>(tally.okExact.load()),
      static_cast<long long>(tally.okDegraded.load()),
      static_cast<long long>(tally.shed.load()),
      static_cast<long long>(tally.expired.load()),
      static_cast<long long>(tally.malformedRejected.load()),
      static_cast<long long>(tally.transportLost.load()),
      static_cast<long long>(tally.corrupt.load()),
      static_cast<long long>(p50), static_cast<long long>(p99),
      static_cast<long long>(maxUs), static_cast<long long>(cs.retries),
      static_cast<long long>(cs.retryAfterHonored),
      static_cast<long long>(restarts),
      static_cast<long long>(serverMetrics.queueDepthHighWater),
      static_cast<long long>(serverMetrics.shedQueueFull),
      static_cast<long long>(serverMetrics.shedQueueWait));
  if (router)
    std::printf(
        "router: %d shard(s), %lld failover(s), %lld hedge(s) launched "
        "(%lld won), %lld health flap(s), %lld down-skip(s), "
        "%lld exhausted\n",
        nShards, static_cast<long long>(routerStats.failovers),
        static_cast<long long>(routerStats.hedgesLaunched),
        static_cast<long long>(routerStats.hedgesWon),
        static_cast<long long>(routerStats.healthFlaps),
        static_cast<long long>(routerStats.shardDownSkips),
        static_cast<long long>(routerStats.exhausted));

  if (!cfg.outPath.empty()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"name\": \"bench_service_load\",\n"
         << "  \"duration_sec\": " << elapsedSec << ",\n"
         << "  \"offered_qps\": " << cfg.qps << ",\n"
         << "  \"sent\": " << sent << ",\n"
         << "  \"ok\": " << ok << ",\n"
         << "  \"ok_exact\": " << tally.okExact.load() << ",\n"
         << "  \"ok_degraded\": " << tally.okDegraded.load() << ",\n"
         << "  \"degraded_rate\": " << rate(tally.okDegraded.load()) << ",\n"
         << "  \"shed\": " << tally.shed.load() << ",\n"
         << "  \"shed_rate\": " << rate(tally.shed.load()) << ",\n"
         << "  \"expired\": " << tally.expired.load() << ",\n"
         << "  \"malformed_rejected\": " << tally.malformedRejected.load()
         << ",\n"
         << "  \"transport_lost\": " << tally.transportLost.load() << ",\n"
         << "  \"other_errors\": " << tally.otherErrors.load() << ",\n"
         << "  \"corrupt_curves\": " << tally.corrupt.load() << ",\n"
         << "  \"latency_us\": {\"p50\": " << p50 << ", \"p99\": " << p99
         << ", \"max\": " << maxUs << "},\n"
         << "  \"client\": {\"retries\": " << cs.retries
         << ", \"retry_after_honored\": " << cs.retryAfterHonored
         << ", \"retry_after_successes\": " << cs.retryAfterSuccesses
         << ", \"transport_failures\": " << cs.transportFailures << "},\n"
         << "  \"server\": {\"restarts\": " << restarts
         << ", \"queue_depth_hwm\": " << serverMetrics.queueDepthHighWater
         << ", \"shed_queue_full\": " << serverMetrics.shedQueueFull
         << ", \"shed_queue_wait\": " << serverMetrics.shedQueueWait
         << ", \"overload_replies\": " << serverMetrics.overloadReplies
         << ", \"expired_requests\": " << serverMetrics.expiredRequests
         << "}";
    if (router)
      json << ",\n  \"router\": {\"shards\": " << nShards
           << ", \"failovers\": " << routerStats.failovers
           << ", \"hedges_launched\": " << routerStats.hedgesLaunched
           << ", \"hedges_won\": " << routerStats.hedgesWon
           << ", \"health_probes\": " << routerStats.healthProbes
           << ", \"health_probe_failures\": "
           << routerStats.healthProbeFailures
           << ", \"health_flaps\": " << routerStats.healthFlaps
           << ", \"shard_down_skips\": " << routerStats.shardDownSkips
           << ", \"exhausted\": " << routerStats.exhausted
           << ", \"expired\": " << routerStats.expiredRequests << "}";
    json << "\n}\n";
    if (Status st =
            dr::support::DataSet::writeFileStatus(cfg.outPath, json.str());
        !st.isOk()) {
      std::fprintf(stderr, "%s\n", st.str().c_str());
      return 1;
    }
    std::printf("(wrote %s)\n", cfg.outPath.c_str());
  }

  if (tally.corrupt.load() > 0) {
    std::fprintf(stderr,
                 "FAIL: %lld corrupt curves — overload must degrade or "
                 "shed, never corrupt\n",
                 static_cast<long long>(tally.corrupt.load()));
    return 1;
  }
  if (tally.otherErrors.load() > 0) {
    std::fprintf(stderr, "FAIL: %lld unexpected error replies\n",
                 static_cast<long long>(tally.otherErrors.load()));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dr::support::guardedMain([&]() -> int {
    auto parsed = dr::support::CliOptions::parse(argc, argv);
    if (!parsed) {
      std::fprintf(stderr, "%s\n", parsed.status().str().c_str());
      return 1;
    }
    const dr::support::CliOptions& cli = *parsed;
    LoadConfig cfg;
    const bool small = std::getenv("DR_BENCH_SMALL") != nullptr;
    cfg.durationMs = cli.getInt("duration-ms", small ? 1500 : 3000);
    cfg.qps = cli.getInt("qps", 200);
    cfg.threads = static_cast<int>(cli.getInt("threads", 8));
    cfg.workers = static_cast<int>(cli.getInt("workers", 2));
    cfg.queueDepth = static_cast<int>(cli.getInt("queue-depth", 8));
    cfg.deadlineMs = cli.getInt("deadline-ms", 500);
    cfg.killEveryMs = cli.getInt("kill-every-ms", 0);
    cfg.shards = static_cast<int>(cli.getInt("shards", 0));
    cfg.hedgeDelayMs = cli.getInt("hedge-delay-ms", 20);
    cfg.faultP = cli.getDouble("fault-p", 0.0);
    cfg.seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
    cfg.outPath = cli.getString("out", "");
    for (const auto& name : cli.unusedNames())
      std::fprintf(stderr, "warning: unknown option --%s\n", name.c_str());
    if (cfg.threads < 1 || cfg.workers < 1 || cfg.qps < 1) {
      std::fprintf(stderr, "error: --threads/--workers/--qps must be >= 1\n");
      return 1;
    }
    if (cfg.shards < 0) {
      std::fprintf(stderr, "error: --shards must be >= 0\n");
      return 1;
    }
    return runHarness(cfg);
  });
}
