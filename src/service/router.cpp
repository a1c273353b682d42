#include "service/router.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <type_traits>
#include <utility>

#include "support/contracts.h"
#include "support/hash.h"
#include "support/rng.h"

namespace dr::service {

namespace {

using support::Expected;
using support::Status;
using support::StatusCode;

/// Retry-after hint when every replica is down or shedding and none of
/// them offered one: long enough to matter, short enough that a single
/// restarting shard is retried promptly.
constexpr i64 kExhaustedRetryAfterMs = 100;

i64 msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The signal a request is placed by: an Explore's own; for an Advise the
/// kernel's first read signal, whose Explore traffic already warmed the
/// curves the advisor re-reads.
const std::string& placementSignal(const proto::ExploreRequest& req) {
  return req.signal;
}
const std::string& placementSignal(const proto::AdviseRequest&) {
  static const std::string kFirstReadSignal;
  return kFirstReadSignal;
}

Expected<proto::Reply> send(Client& client, const proto::ExploreRequest& req) {
  return client.explore(req);
}
Expected<proto::Reply> send(Client& client, const proto::AdviseRequest& req) {
  return client.advise(req);
}

}  // namespace

// ---- ShardRing ----------------------------------------------------------

ShardRing::ShardRing(const std::vector<std::string>& endpoints,
                     int virtualNodes)
    : shards_(static_cast<int>(endpoints.size())) {
  if (virtualNodes < 1) virtualNodes = 1;
  ring_.reserve(endpoints.size() * static_cast<std::size_t>(virtualNodes));
  for (int s = 0; s < shards_; ++s) {
    const std::uint64_t base =
        support::fnv1a(endpoints[static_cast<std::size_t>(s)]);
    for (int v = 0; v < virtualNodes; ++v)
      ring_.push_back({support::mixSeed(base, static_cast<std::uint64_t>(v),
                                        0x72696e67ULL /* "ring" */),
                       s});
  }
  std::sort(ring_.begin(), ring_.end(), [](const Point& a, const Point& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
  });
}

int ShardRing::primary(std::uint64_t key) const {
  if (ring_.empty()) return -1;
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [](const Point& p, std::uint64_t k) { return p.hash < k; });
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->shard;
}

std::vector<int> ShardRing::preference(std::uint64_t key) const {
  std::vector<int> order;
  if (ring_.empty()) return order;
  order.reserve(static_cast<std::size_t>(shards_));
  std::vector<bool> seen(static_cast<std::size_t>(shards_), false);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [](const Point& p, std::uint64_t k) { return p.hash < k; });
  for (std::size_t walked = 0;
       walked < ring_.size() && order.size() < seen.size(); ++walked, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    if (!seen[static_cast<std::size_t>(it->shard)]) {
      seen[static_cast<std::size_t>(it->shard)] = true;
      order.push_back(it->shard);
    }
  }
  return order;
}

// ---- options ------------------------------------------------------------

Status validateRouterOptions(const RouterOptions& opts) {
  const auto invalid = [](const std::string& what) {
    return Status::error(StatusCode::InvalidInput, "router: " + what);
  };
  if (opts.listen.empty()) return invalid("listen endpoint is empty");
  if (auto ep = transport::parseEndpoint(opts.listen,
                                         /*allowEphemeralPort=*/true);
      !ep.hasValue())
    return ep.status();
  if (opts.shards.empty()) return invalid("no shard endpoints");
  std::set<std::string> distinct;
  for (const std::string& spec : opts.shards) {
    if (auto ep = transport::parseEndpoint(spec); !ep.hasValue())
      return ep.status();
    if (!distinct.insert(spec).second)
      return invalid("duplicate shard endpoint " + spec);
  }
  if (opts.workers <= 0 || opts.workers > kMaxReasonableWorkers)
    return invalid("workers out of range: " + std::to_string(opts.workers));
  if (opts.virtualNodes <= 0)
    return invalid("virtualNodes must be positive");
  // The client template at a real endpoint: its maxAttempts and backoff
  // drive Router::forward's retries.
  ClientOptions co = opts.client;
  co.endpoint = opts.shards.front();
  if (Status st = validateClientOptions(co); !st.isOk()) return st;
  return validateAdmissionOptions(opts.admission);
}

// ---- ActivityGate -------------------------------------------------------

void Router::ActivityGate::enter() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++active_;
}

void Router::ActivityGate::leave() {
  std::lock_guard<std::mutex> lock(mutex_);
  --active_;
  if (active_ == 0) cv_.notify_all();
}

void Router::ActivityGate::waitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return active_ == 0; });
}

// ---- Router lifecycle ---------------------------------------------------

Router::Router(RouterOptions opts)
    : opts_(std::move(opts)),
      ring_(opts_.shards, opts_.virtualNodes),
      door_(opts_.workers, opts_.admission, metrics_,
            {"router overloaded", "routing failed", "routing",
             [this](const proto::ExploreRequest& req, i64 queueWaitMs) {
               return route(req, queueWaitMs);
             },
             [this](const proto::AdviseRequest& req, i64 queueWaitMs) {
               return route(req, queueWaitMs);
             },
             [this] { return render(stats()); },
             // Drains the router only: the shards are independent fault
             // domains with their own lifecycles (and Shutdown verbs).
             [this] { requestShutdown(); }}) {}

Router::~Router() {
  requestShutdown();
  wait();
}

Status Router::start() {
  DR_REQUIRE_MSG(!door_.started(), "Router::start() called twice");
  if (Status st = validateRouterOptions(opts_); !st.isOk()) return st;

  shards_.reserve(opts_.shards.size());
  for (const std::string& spec : opts_.shards) {
    auto shard = std::make_unique<Shard>();
    ClientOptions co = opts_.client;
    co.endpoint = spec;
    co.maxAttempts = 1;  // one exchange per call: forward() retries
    shard->client = std::make_unique<Client>(co);
    // Probes run single-attempt on the probe timeout so a dead shard
    // costs one bounded connect per interval.
    ClientOptions po = co;
    po.connectTimeoutMs = opts_.healthTimeoutMs;
    po.sendTimeoutMs = opts_.healthTimeoutMs;
    po.recvTimeoutMs = opts_.healthTimeoutMs;
    shard->probeOptions = po;
    shards_.push_back(std::move(shard));
  }
  if (Status st = door_.start(opts_.listen); !st.isOk()) {
    shards_.clear();
    return st;
  }
  if (opts_.healthIntervalMs > 0)
    probeThread_ = std::thread([this] { probeLoop(); });
  return Status::ok();
}

void Router::requestShutdown() {
  door_.requestShutdown();
  probeWakeCv_.notify_all();
}

void Router::wait() {
  door_.wait();
  if (probeThread_.joinable()) probeThread_.join();
  // Hedge losers may still be draining against their socket timeouts;
  // they hold raw pointers into this object, so wait() must outlast them.
  gate_.waitIdle();
}

// ---- routing ------------------------------------------------------------

template <class Request>
proto::Reply Router::route(const Request& req, i64 queueWaitMs) {
  const auto t0 = std::chrono::steady_clock::now();

  // Same budget contract as the shard daemon: queue wait charges the
  // caller's propagated budget, and a budget that expired in the queue
  // is rejected outright.
  auto budget =
      door_.budgetAfterQueue(req.deadlineMs, req.remainingBudgetMs, queueWaitMs);
  if (!budget.hasValue()) return errorReply(budget.status());
  const i64 budgetMs = *budget;  // <= 0 = unlimited
  const auto remainingMs = [&]() -> i64 {
    return budgetMs > 0 ? budgetMs - msSince(t0) : 0;
  };

  // Placement: the ring key is the exact config hash the shard caches
  // use, taken from the kernel's facts (compiled here on a memo miss, so
  // a malformed kernel is rejected at the front door without costing a
  // shard anything).
  auto kernel = memo_.open(req.kernel);
  if (!kernel.hasValue()) return errorReply(kernel.status());
  const std::string& name = placementSignal(req);
  const int signal = kernel->facts().resolve(name);
  if (signal < 0)
    return errorReply(Status::error(
        StatusCode::InvalidInput,
        name.empty() ? std::string("kernel has no read signal")
                     : "no signal named '" + name + "'"));
  const std::uint64_t hash =
      kernel->facts().signals[static_cast<std::size_t>(signal)].configHash;

  const std::vector<int> pref = ring_.preference(hash);
  std::vector<int> candidates;
  candidates.reserve(pref.size());
  for (int idx : pref) {
    if (shardUp(idx)) {
      candidates.push_back(idx);
    } else {
      counters_.count(RouterCounter::shardDownSkips);
    }
  }
  // Every shard marked down: the marks may be stale (a restarted shard
  // is up before its next probe), so fall back to the full preference
  // order rather than lock every caller out.
  if (candidates.empty()) candidates = pref;

  i64 bestHintMs = 0;
  Status lastFailure = Status::error(StatusCode::Unavailable,
                                     "no shard candidates");
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (budgetMs > 0 && remainingMs() <= 0) {
      return errorReply(Status::error(
          StatusCode::BudgetExceeded,
          "deadline exhausted after " + std::to_string(msSince(t0)) +
              "ms of routing; last failure: " + lastFailure.str()));
    }
    const i64 leftMs = budgetMs > 0 ? remainingMs() : i64{0};
    const bool last = i + 1 == candidates.size();
    Expected<proto::Reply> result = [&] {
      if constexpr (std::is_same_v<Request, proto::ExploreRequest>)
        if (opts_.hedge && !last)
          return forwardWithHedge(req, candidates[i], candidates[i + 1],
                                  leftMs);
      return forward(req, candidates[i], leftMs);
    }();
    if (result.hasValue()) {
      if (result->code != StatusCode::Unavailable) return *result;
      // A shedding shard is alive but refusing; try the next replica and
      // keep its hint in case everyone refuses.
      bestHintMs = std::max(bestHintMs, result->retryAfterMs);
      lastFailure = Status::error(StatusCode::Unavailable, result->message);
      if (!last) counters_.count(RouterCounter::failovers);
      continue;
    }
    lastFailure = result.status();
    // IoError is a dead transport; anything else (BudgetExceeded
    // included) is a verdict, not a dead shard.
    if (lastFailure.code() != StatusCode::IoError)
      return errorReply(lastFailure);
    if (!last) counters_.count(RouterCounter::failovers);
  }

  counters_.count(RouterCounter::exhausted);
  proto::Reply reply;
  reply.code = StatusCode::Unavailable;
  reply.message = "all " + std::to_string(candidates.size()) +
                  " shard replica(s) unavailable: " + lastFailure.str();
  reply.retryAfterMs = bestHintMs > 0 ? bestHintMs : kExhaustedRetryAfterMs;
  return reply;
}

template <class Request>
Expected<proto::Reply> Router::forward(const Request& req, int shardIdx,
                                       i64 budgetMs) {
  Shard& shard = *shards_[static_cast<std::size_t>(shardIdx)];
  const std::uint64_t callIdx =
      shard.calls.fetch_add(1, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  const auto leftMs = [&] { return budgetMs - msSince(t0); };
  Request fwd = req;
  fwd.remainingBudgetMs = 0;
  Status lastFailure = Status::error(StatusCode::Internal, "no attempt ran");
  for (int attempt = 0;; ++attempt) {
    if (budgetMs > 0 && leftMs() <= 0)
      return Status::error(StatusCode::BudgetExceeded,
                           "deadline exhausted after " +
                               std::to_string(msSince(t0)) +
                               "ms; last failure: " + lastFailure.str());
    // The forwarded deadline is what is left of the caller's budget at
    // this attempt; the shard's client stamps remainingBudgetMs from it.
    fwd.deadlineMs = budgetMs > 0 ? leftMs() : req.deadlineMs;
    auto reply = send(*shard.client, fwd);
    if (reply.hasValue()) {
      shard.forwards.fetch_add(1, std::memory_order_relaxed);
      markShardUp(shardIdx);
      // The hedge delay is derived from Explore forwards only.
      if (std::is_same_v<Request, proto::ExploreRequest> &&
          reply->code == StatusCode::Ok)
        forwardLatency_.record(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      return reply;
    }
    if (reply.status().code() != StatusCode::IoError) return reply;
    lastFailure = reply.status();
    if (attempt + 1 >= opts_.client.maxAttempts) break;
    i64 delayMs = Client::retryDelayMs(opts_.client, callIdx, attempt, 0);
    if (budgetMs > 0) delayMs = std::min(delayMs, leftMs());
    if (delayMs > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(delayMs));
  }
  markShardStrike(shardIdx);
  return lastFailure;
}

Expected<proto::Reply> Router::forwardWithHedge(
    const proto::ExploreRequest& req, int primaryIdx, int hedgeIdx,
    i64 budgetMs) {
  const i64 hedgeDelayMs = currentHedgeDelayMs();
  // Hedging is pointless when the remaining budget barely covers the
  // delay.
  if (budgetMs > 0 && budgetMs <= 2 * hedgeDelayMs)
    return forward(req, primaryIdx, budgetMs);

  struct HedgeState {
    std::mutex mutex;
    std::condition_variable cv;
    bool delivered = false;
    bool winnerIsHedge = false;
    std::optional<Expected<proto::Reply>> result;
  };
  auto state = std::make_shared<HedgeState>();

  const auto launch = [&](int shardIdx, bool isHedge) {
    gate_.enter();
    std::thread([this, state, req, shardIdx, isHedge, budgetMs] {
      auto reply = forward(req, shardIdx, budgetMs);
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        // First response wins, whatever its verdict.
        if (!state->delivered) {
          state->delivered = true;
          state->winnerIsHedge = isHedge;
          state->result.emplace(std::move(reply));
        }
      }
      state->cv.notify_all();
      gate_.leave();
    }).detach();
  };

  launch(primaryIdx, /*isHedge=*/false);
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait_for(lock, std::chrono::milliseconds(hedgeDelayMs),
                       [&] { return state->delivered; });
    if (!state->delivered) {
      lock.unlock();
      counters_.count(RouterCounter::hedgesLaunched);
      launch(hedgeIdx, /*isHedge=*/true);
      lock.lock();
    }
    state->cv.wait(lock, [&] { return state->delivered; });
    if (state->winnerIsHedge)
      counters_.count(RouterCounter::hedgesWon);
    return std::move(*state->result);
  }
}

// ---- health -------------------------------------------------------------

void Router::probeLoop() {
  while (!draining()) {
    for (std::size_t i = 0; i < shards_.size() && !draining(); ++i) {
      counters_.count(RouterCounter::healthProbes);
      Client probe(shards_[i]->probeOptions);
      auto reply = probe.call(proto::Verb::Health, "");
      const bool healthy =
          reply.hasValue() && reply->code == StatusCode::Ok &&
          proto::decodeHealthInfo(reply->body).hasValue();
      if (healthy) {
        markShardUp(static_cast<int>(i));
      } else {
        counters_.count(RouterCounter::healthProbeFailures);
        markShardStrike(static_cast<int>(i));
      }
    }
    std::unique_lock<std::mutex> lock(probeWakeMutex_);
    probeWakeCv_.wait_for(lock,
                          std::chrono::milliseconds(opts_.healthIntervalMs),
                          [this] { return draining(); });
  }
}

void Router::markShardUp(int idx) {
  Shard& shard = *shards_[static_cast<std::size_t>(idx)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.consecutiveFailures = 0;
  if (!shard.up) {
    shard.up = true;
    counters_.count(RouterCounter::healthFlaps);
  }
}

void Router::markShardStrike(int idx) {
  Shard& shard = *shards_[static_cast<std::size_t>(idx)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.consecutiveFailures;
  if (shard.up &&
      shard.consecutiveFailures >= kHealthFailureThreshold) {
    shard.up = false;
    counters_.count(RouterCounter::healthFlaps);
  }
}

bool Router::shardUp(int idx) const {
  Shard& shard = *shards_[static_cast<std::size_t>(idx)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.up;
}

// ---- latency / hedge delay ----------------------------------------------

i64 Router::currentHedgeDelayMs() const {
  if (opts_.hedgeDelayMs > 0) return opts_.hedgeDelayMs;
  // p99 of successful forwards, as a bucket upper bound. Until enough
  // samples exist the ceiling applies — hedge conservatively, not off a
  // two-request histogram.
  constexpr i64 kMinSamples = 20;
  if (forwardLatency_.count() < kMinSamples) return kHedgeMaxDelayMs;
  const i64 p99Ms = forwardLatency_.percentileUs(0.99) / 1000 + 1;
  return std::clamp(p99Ms, kHedgeMinDelayMs, kHedgeMaxDelayMs);
}

// ---- stats --------------------------------------------------------------

RouterStats Router::stats() const {
  RouterStats s;
#define DR_DOOR(field, name) s.field = metrics_.get(Counter::field);
#define DR_OWN(field, name) s.field = counters_.get(RouterCounter::field);
  DR_ROUTER_LEDGER(DR_DOOR, DR_OWN)
#undef DR_DOOR
#undef DR_OWN
  s.shardUp.reserve(shards_.size());
  s.shardForwards.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    s.shardUp.push_back(shardUp(static_cast<int>(i)));
    s.shardForwards.push_back(
        shards_[i]->forwards.load(std::memory_order_relaxed));
  }
  return s;
}

std::string Router::render(const RouterStats& s) {
  std::string out;
#define DR_LINE(field, name) appendStatLine(out, name, s.field);
  DR_ROUTER_LEDGER(DR_LINE, DR_LINE)
#undef DR_LINE
  for (std::size_t i = 0; i < s.shardUp.size(); ++i) {
    const std::string prefix = "router_shard_" + std::to_string(i);
    appendStatLine(out, prefix + "_up", s.shardUp[i] ? 1 : 0);
    appendStatLine(out, prefix + "_forwards", s.shardForwards[i]);
  }
  return out;
}

}  // namespace dr::service
