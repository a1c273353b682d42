#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "explorer/explorer.h"
#include "partition/advisor.h"
#include "report/report.h"
#include "simcore/reuse_curve.h"
#include "support/contracts.h"

namespace dr::service {

namespace {

using support::Status;
using support::StatusCode;

}  // namespace

Status validateServerOptions(const ServerOptions& opts) {
  if (opts.endpoint.empty())
    return Status::error(StatusCode::InvalidInput, "endpoint is empty");
  if (auto ep = transport::parseEndpoint(opts.endpoint,
                                         /*allowEphemeralPort=*/true);
      !ep.hasValue())
    return ep.status();
  if (opts.workers <= 0)
    return Status::error(
        StatusCode::InvalidInput,
        "workers must be positive, got " + std::to_string(opts.workers));
  if (opts.workers > kMaxReasonableWorkers)
    return Status::error(StatusCode::InvalidInput,
                         "workers " + std::to_string(opts.workers) +
                             " exceeds the " +
                             std::to_string(kMaxReasonableWorkers) + " cap");
  if (opts.cache.maxBytes <= 0)
    return Status::error(StatusCode::InvalidInput,
                         "cache.maxBytes must be positive");
  return validateAdmissionOptions(opts.admission);
}

namespace {

/// The cache constructor has its own hard contract; feed it a clamped
/// copy so a misconfigured Server can still be built and then rejected
/// *cleanly* by start()'s validateServerOptions — an InvalidInput status,
/// not a contract abort in a member initializer.
ResultCache::Options clampedCacheOptions(ResultCache::Options o) {
  o.maxBytes = std::max<i64>(1, o.maxBytes);
  return o;
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      cache_(clampedCacheOptions(opts_.cache)),
      door_(opts_.workers, opts_.admission, metrics_,
            {"overloaded", "request failed", "service",
             [this](const proto::ExploreRequest& req, i64 queueWaitMs) {
               return handleExplore(req, queueWaitMs);
             },
             [this](const proto::AdviseRequest& req, i64 queueWaitMs) {
               return handleAdvise(req, queueWaitMs);
             },
             [this] { return Metrics::render(metricsSnapshot()); },
             [this] { requestShutdown(); }}) {}

Server::~Server() {
  requestShutdown();
  wait();
}

Status Server::start() {
  DR_REQUIRE_MSG(!door_.started(), "Server::start() called twice");
  if (Status st = validateServerOptions(opts_); !st.isOk()) return st;
  if (Status st = ensureWarmDir(opts_.cache.warmDir); !st.isOk()) return st;
  return door_.start(opts_.endpoint);
}

void Server::requestShutdown() { door_.requestShutdown(); }

void Server::wait() { door_.wait(); }

i64 Server::effectiveDeadlineMs(i64 budgetMs, i64 queueWaitMs) const {
  // A server-imposed default only degrades, never rejects: it shrinks by
  // the queue wait but keeps at least 1 ms.
  if (budgetMs <= 0 && opts_.defaultDeadlineMs > 0)
    return std::max<i64>(1, opts_.defaultDeadlineMs - queueWaitMs);
  return budgetMs;
}

support::Expected<CachedCurve> Server::fetchCurve(RequestKernel& kernel,
                                                  int signal,
                                                  support::RunBudget* budget,
                                                  bool noCache,
                                                  bool* computed) {
  // The facts hold the default-options hash; the budget is excluded from
  // the hash by design, so it is this request's config hash.
  const std::uint64_t hash =
      kernel.facts().signals[static_cast<std::size_t>(signal)].configHash;
  explorer::ExploreOptions opts;
  opts.budget = budget;
  i64 simulated = 0;  // stays 0 for a joiner: the leader computed
  bool leader = true;
  ComputeInfo info;
  support::Expected<CachedCurve> result =
      [&]() -> support::Expected<CachedCurve> {
    if (!noCache)
      return flight_.run(
          hash,
          [&] {
            return cache_.getOrCompute(
                hash,
                [&]() -> const loopir::Program& { return kernel.program(); },
                signal, opts, &simulated, &info);
          },
          &leader);
    auto ex = explorer::exploreSignalChecked(kernel.program(), signal, opts);
    if (!ex.hasValue()) return ex.status();
    simulated = static_cast<i64>(ex->simulatedCurve.points.size());
    return cachedCurveOf(hash, *ex, &info);
  }();
  if (!leader) metrics_.count(Counter::inflightJoins);
  if (!result.hasValue()) return result;
  if (simulated > 0) metrics_.count(Counter::simulations);
  if (info.ran)
    metrics_.recordEngine(info.fidelity, info.sim);
  *computed = simulated > 0;
  return result;
}

proto::Reply Server::handleExplore(const proto::ExploreRequest& req,
                                   i64 queueWaitMs) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto recordLatency = [&] {
    metrics_.exploreLatency.record(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  const auto fail = [&](const Status& st) {
    metrics_.count(Counter::exploreErrors);
    recordLatency();
    return errorReply(st);
  };

  auto budgetMs =
      door_.budgetAfterQueue(req.deadlineMs, req.remainingBudgetMs, queueWaitMs);
  if (!budgetMs.hasValue()) return fail(budgetMs.status());

  const bool noCache = (req.flags & proto::kFlagNoCache) != 0;
  auto kernel = memo_.open(req.kernel, !noCache);
  if (!kernel.hasValue()) return fail(kernel.status());
  const int signal = kernel->facts().resolve(req.signal);
  if (signal < 0)
    return fail(Status::error(
        StatusCode::InvalidInput,
        req.signal.empty()
            ? std::string("kernel has no read signal")
            : "no signal named '" + req.signal + "'"));

  // Default explore options, matching explore_kernel's, so the two doors
  // agree on the config hash (byte-identity is pinned by
  // tests/test_service.cpp); only the deadline budget is per request.
  support::RunBudget budget;
  support::RunBudget* budgetPtr = nullptr;
  if (const i64 ms = effectiveDeadlineMs(*budgetMs, queueWaitMs); ms > 0) {
    budget.setDeadline(std::chrono::milliseconds(ms));
    budgetPtr = &budget;
  }

  bool computed = false;
  auto result = fetchCurve(*kernel, signal, budgetPtr, noCache, &computed);
  if (!result.hasValue()) return fail(result.status());
  if (!simcore::isExact(static_cast<simcore::Fidelity>(result->fidelity)))
    metrics_.count(Counter::degradedReplies);

  proto::ExploreResult body;
  body.cached = !computed;
  body.fidelity = result->fidelity;
  body.Ctot = result->Ctot;
  body.distinctElements = result->distinctElements;
  body.csv = result->csv;
  proto::Reply reply;
  reply.body = proto::encodeExploreResult(body);
  recordLatency();
  return reply;
}

proto::Reply Server::handleAdvise(const proto::AdviseRequest& req,
                                  i64 queueWaitMs) {
  const auto fail = [&](const Status& st) {
    metrics_.count(Counter::adviseErrors);
    return errorReply(st);
  };

  auto budgetMs =
      door_.budgetAfterQueue(req.deadlineMs, req.remainingBudgetMs, queueWaitMs);
  if (!budgetMs.hasValue()) return fail(budgetMs.status());

  const bool noCache = (req.flags & proto::kFlagNoCache) != 0;
  auto kernel = memo_.open(req.kernel, !noCache);
  if (!kernel.hasValue()) return fail(kernel.status());
  const KernelFacts& facts = kernel->facts();

  partition::SolveOptions solve;
  solve.mode = static_cast<partition::Mode>(req.mode);
  solve.capacity = req.capacity;
  solve.ways = req.ways;
  if (Status st = partition::validateSolveInputs({}, solve); !st.isOk())
    return fail(st);
  const std::vector<int> signals = facts.readSignals();
  if (signals.empty())
    return fail(Status::error(StatusCode::InvalidInput,
                              "kernel has no read signal"));

  // Explore options stay at their defaults (matching handleExplore and
  // the CLI), so the per-signal curves share config hashes — and cache
  // entries — with plain Explore traffic. The shared deadline budget
  // covers the *whole* co-exploration: every signal sweep draws from the
  // same RunBudget, so a slow kernel degrades rather than overruns.
  support::RunBudget budget;
  support::RunBudget* budgetPtr = nullptr;
  if (const i64 ms = effectiveDeadlineMs(*budgetMs, queueWaitMs); ms > 0) {
    budget.setDeadline(std::chrono::milliseconds(ms));
    budgetPtr = &budget;
  }

  std::vector<std::uint64_t> signalHashes;
  signalHashes.reserve(signals.size());
  for (int signal : signals)
    signalHashes.push_back(
        facts.signals[static_cast<std::size_t>(signal)].configHash);
  const std::uint64_t ahash = partition::adviseConfigHash(signalHashes, solve);
  if (!noCache) {
    if (std::optional<AdviseEntry> hit = adviseCacheGet(ahash)) {
      metrics_.count(Counter::adviseCacheHits);
      proto::AdviseResult body;
      body.cached = true;
      body.fidelity = hit->fidelity;
      body.usedFallback = hit->usedFallback;
      body.baselineMisses = hit->baselineMisses;
      body.partitionedMisses = hit->partitionedMisses;
      body.csv = std::move(hit->csv);
      proto::Reply reply;
      reply.body = proto::encodeAdviseResult(body);
      return reply;
    }
  }

  // One ObjectCurve per read signal, served through the same layered
  // curve cache (and single-flight) as Explore — an advise for a kernel
  // whose signals are already warm simulates nothing.
  std::vector<partition::ObjectCurve> objects;
  bool anyComputed = false;
  for (int signal : signals) {
    bool computed = false;
    auto result = fetchCurve(*kernel, signal, budgetPtr, noCache, &computed);
    if (!result.hasValue()) {
      Status s = result.status();
      return fail(Status::error(
          s.code(), "signal \"" +
                        facts.signals[static_cast<std::size_t>(signal)].name +
                        "\": " + s.message()));
    }
    anyComputed = anyComputed || computed;
    auto curve = partition::objectCurveFromCsv(
        result->signalName, result->Ctot, result->distinctElements,
        static_cast<simcore::Fidelity>(result->fidelity), result->csv);
    if (!curve.hasValue()) {
      Status s = curve.status();
      return fail(Status::error(StatusCode::Internal,
                                "cached curve for \"" + result->signalName +
                                    "\" unusable: " + s.message()));
    }
    objects.push_back(std::move(*curve));
  }

  partition::AdvisorReport report =
      partition::adviseFromCurves(facts.kernelName, std::move(objects), solve);
  metrics_.adviseSolveLatency.record(report.solveMicros);
  if (report.result.usedFallback) metrics_.count(Counter::adviseFallbacks);
  const auto worst = static_cast<std::uint8_t>(report.worstFidelity);
  const bool exact = simcore::isExact(report.worstFidelity);
  if (!exact) metrics_.count(Counter::degradedReplies);

  proto::AdviseResult body;
  body.cached = !anyComputed && !noCache;
  body.fidelity = worst;
  body.usedFallback = report.result.usedFallback;
  body.baselineMisses = report.result.baselineMisses;
  body.partitionedMisses = report.result.partitionedMisses;
  body.csv = report::advisorCsv(report);
  if (!noCache && exact) {
    AdviseEntry entry;
    entry.hash = ahash;
    entry.fidelity = body.fidelity;
    entry.usedFallback = body.usedFallback;
    entry.baselineMisses = body.baselineMisses;
    entry.partitionedMisses = body.partitionedMisses;
    entry.csv = body.csv;
    adviseCachePut(std::move(entry));
  }
  proto::Reply reply;
  reply.body = proto::encodeAdviseResult(body);
  return reply;
}

std::optional<Server::AdviseEntry> Server::adviseCacheGet(
    std::uint64_t hash) {
  std::lock_guard<std::mutex> lock(adviseMutex_);
  auto it = adviseIndex_.find(hash);
  if (it == adviseIndex_.end()) return std::nullopt;
  adviseLru_.splice(adviseLru_.begin(), adviseLru_, it->second);
  return *it->second;
}

void Server::adviseCachePut(AdviseEntry entry) {
  std::lock_guard<std::mutex> lock(adviseMutex_);
  auto it = adviseIndex_.find(entry.hash);
  if (it != adviseIndex_.end()) {
    *it->second = std::move(entry);
    adviseLru_.splice(adviseLru_.begin(), adviseLru_, it->second);
    return;
  }
  adviseLru_.push_front(std::move(entry));
  adviseIndex_[adviseLru_.front().hash] = adviseLru_.begin();
  while (adviseLru_.size() > kAdviseCacheEntries) {
    adviseIndex_.erase(adviseLru_.back().hash);
    adviseLru_.pop_back();
  }
}

MetricsSnapshot Server::metricsSnapshot() const {
  MetricsSnapshot s = metrics_.snapshot();
  const CacheStats cs = cache_.stats();
#define DR_COPY(field, name, fold, cacheField) s.field = cs.cacheField;
  DR_CACHE_LEDGER(DR_COPY)
#undef DR_COPY
  return s;
}

}  // namespace dr::service
