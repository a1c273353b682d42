#include "service/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "explorer/explorer.h"
#include "frontend/frontend.h"
#include "partition/advisor.h"
#include "report/report.h"
#include "simcore/reuse_curve.h"
#include "support/contracts.h"
#include "support/fault.h"

namespace dr::service {

namespace {

using support::Status;
using support::StatusCode;
using support::fault::FaultSite;

/// Idle-connection recv timeout: long enough to be invisible in normal
/// operation, short enough that a drain never waits long for a worker
/// parked on a silent client.
constexpr int kRecvTimeoutMs = 200;

/// The signal an explore request targets: a named lookup, or the first
/// signal with a read access when the request leaves the name empty
/// (matching explore_kernel's default sweep order).
int resolveSignal(const loopir::Program& p, const std::string& name) {
  if (!name.empty()) return p.findSignal(name);
  for (std::size_t s = 0; s < p.signals.size(); ++s)
    for (const auto& nest : p.nests)
      for (const auto& acc : nest.body)
        if (acc.signal == static_cast<int>(s) &&
            acc.kind == loopir::AccessKind::Read)
          return static_cast<int>(s);
  return -1;
}

proto::Reply errorReply(const Status& status) {
  proto::Reply reply;
  reply.code = status.code();
  reply.message = status.str();
  return reply;
}

/// write() the whole buffer, riding out EINTR; false drops the
/// connection. The fault probe models a peer that vanished mid-reply.
bool writeAll(int fd, const std::string& bytes) {
  if (support::fault::shouldFail(FaultSite::ServiceIo)) return false;
  std::size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + done, bytes.size() - done,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Worker-thread counts past this are a configuration mistake: a pool
/// larger than any plausible core count only adds contention.
constexpr int kMaxReasonableWorkers = 4096;

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

/// The cache and queue constructors have their own hard contracts; feed
/// them clamped copies so a misconfigured Server can still be built and
/// then rejected *cleanly* by start()'s validateServerOptions — an
/// InvalidInput status, not a contract abort in a member initializer.
ResultCache::Options clampedCacheOptions(ResultCache::Options o) {
  o.maxBytes = std::max<i64>(1, o.maxBytes);
  return o;
}

AdmissionOptions clampedAdmissionOptions(AdmissionOptions o) {
  o.maxQueueDepth = std::max(1, o.maxQueueDepth);
  return o;
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      cache_(clampedCacheOptions(opts_.cache)),
      admission_(clampedAdmissionOptions(opts_.admission)) {}

Server::~Server() {
  requestShutdown();
  wait();
}

Status Server::start() {
  DR_REQUIRE_MSG(!started_, "Server::start() called twice");

  if (Status st = validateServerOptions(opts_); !st.isOk()) return st;
  if (Status st = ensureWarmDir(opts_.cache.warmDir); !st.isOk()) return st;

  auto endpoint = transport::parseEndpoint(opts_.endpoint,
                                           /*allowEphemeralPort=*/true);
  if (!endpoint.hasValue()) return endpoint.status();
  auto listener = transport::listenOn(*endpoint);
  if (!listener.hasValue()) return listener.status();
  listenFd_ = listener->fd;
  bound_ = listener->bound;
  if (::pipe(wakeupPipe_) != 0) {
    Status st = Status::error(StatusCode::IoError,
                              std::string("pipe: ") + std::strerror(errno));
    ::close(listenFd_);
    listenFd_ = -1;
    return st;
  }

  started_ = true;
  acceptThread_ = std::thread([this] { acceptLoop(); });
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i)
    workers_.emplace_back([this] { workerLoop(); });
  return Status::ok();
}

void Server::requestShutdown() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel))
    return;  // already draining
  if (wakeupPipe_[1] >= 0) {
    char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wakeupPipe_[1], &byte, 1);
  }
  admission_.close();  // wake workers; queued connections still drain
}

void Server::wait() {
  if (!started_) return;
  if (acceptThread_.joinable()) acceptThread_.join();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
  for (int& fd : wakeupPipe_)
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  if (bound_.kind == transport::Endpoint::Kind::Unix && !bound_.path.empty())
    ::unlink(bound_.path.c_str());
}

void Server::acceptLoop() {
  while (!draining()) {
    pollfd fds[2];
    fds[0] = {listenFd_, POLLIN, 0};
    fds[1] = {wakeupPipe_[0], POLLIN, 0};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failed: stop accepting, keep serving
    }
    if (fds[1].revents != 0 || draining()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) continue;
    timeval tv{};
    tv.tv_usec = kRecvTimeoutMs * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    if (bound_.kind == transport::Endpoint::Kind::Tcp) {
      // One framed request, one framed reply: exactly the exchange shape
      // Nagle delays. Replies must not wait out a 40 ms delayed-ACK.
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    if (!admission_.tryPush(fd)) {
      metrics_.countShedQueueFull();
      shedConnection(fd, "overloaded: admission queue full");
      continue;
    }
    metrics_.recordQueueDepth(admission_.depth());
  }
  ::close(listenFd_);
  listenFd_ = -1;
  admission_.close();  // wake workers so they can observe the drain
}

void Server::shedConnection(int fd, const char* why) {
  metrics_.countOverloadReply();
  proto::Reply reply;
  reply.code = StatusCode::Unavailable;
  reply.message = why;
  reply.retryAfterMs =
      retryAfterHintMs(opts_.admission, admission_.depth(), opts_.workers,
                       metrics_.meanExploreLatencyUs());
  // Bound the shed write too: a reply to an overloading client must not
  // park the accept loop behind a full socket buffer.
  timeval tv{};
  tv.tv_usec = kRecvTimeoutMs * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  writeAll(fd, proto::encodeFrame(proto::Verb::Reply,
                                  proto::encodeReply(reply)));
  ::close(fd);
}

void Server::workerLoop() {
  while (true) {
    std::optional<QueuedConn> conn = admission_.pop();
    if (!conn) return;  // closed and drained
    const i64 queueWaitMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - conn->admittedAt)
            .count();
    if (!draining() && opts_.admission.acceptDeadlineMs > 0 &&
        queueWaitMs > opts_.admission.acceptDeadlineMs) {
      metrics_.countShedQueueWait();
      shedConnection(conn->fd, "overloaded: accept deadline exceeded");
      continue;
    }
    try {
      serveConnection(conn->fd, queueWaitMs);
    } catch (...) {
      // A request must never take a worker down with it; the connection
      // is already closed or about to be.
      metrics_.countConnectionDropped();
    }
    ::close(conn->fd);
  }
}

void Server::serveConnection(int fd, i64 queueWaitMs) {
  metrics_.countConnection();
  std::string buffer;
  char chunk[4096];
  while (true) {
    // Drain every complete frame already buffered before reading again.
    while (true) {
      proto::FrameParse parse = proto::tryParseFrame(buffer);
      if (parse.result == proto::ParseResult::Corrupt) {
        metrics_.countProtocolError();
        proto::Reply reply = errorReply(parse.status);
        writeAll(fd, proto::encodeFrame(proto::Verb::Reply,
                                        proto::encodeReply(reply)));
        return;  // the stream is unsynchronized; drop the connection
      }
      if (parse.result == proto::ParseResult::NeedMore) break;
      buffer.erase(0, parse.consumed);
      metrics_.countRequest();
      bool closeAfter = false;
      std::string reply;
      // Queue wait charges only the connection's first request: later
      // frames arrived while the connection was already being served.
      const i64 chargedWaitMs = std::exchange(queueWaitMs, i64{0});
      try {
        reply = handleFrame(parse.frame, closeAfter, chargedWaitMs);
      } catch (const std::exception& e) {
        reply = proto::encodeFrame(
            proto::Verb::Reply,
            proto::encodeReply(errorReply(Status::error(
                StatusCode::Internal, std::string("request failed: ") +
                                          e.what()))));
      }
      if (!writeAll(fd, reply)) {
        metrics_.countConnectionDropped();
        return;
      }
      if (closeAfter) return;
    }
    if (draining()) return;  // finish buffered work, then hang up
    if (support::fault::shouldFail(FaultSite::ServiceIo)) {
      metrics_.countConnectionDropped();
      return;
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      // Orderly close. A non-empty buffer means the client vanished
      // mid-frame — the mid-query disconnect the daemon must survive.
      if (!buffer.empty()) metrics_.countConnectionDropped();
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // idle timeout
    metrics_.countConnectionDropped();
    return;
  }
}

std::string Server::handleFrame(const proto::Frame& frame, bool& closeAfter,
                                i64 queueWaitMs) {
  proto::Reply reply;
  switch (frame.verb) {
    case proto::Verb::Explore: {
      auto req = proto::decodeExploreRequest(frame.payload);
      if (!req.hasValue()) {
        metrics_.countProtocolError();
        reply = errorReply(req.status());
      } else {
        reply = handleExplore(*req, queueWaitMs);
      }
      break;
    }
    case proto::Verb::Stats:
      metrics_.countStats();
      reply.body = Metrics::render(metricsSnapshot());
      break;
    case proto::Verb::Shutdown:
      metrics_.countShutdown();
      requestShutdown();
      closeAfter = true;
      break;
    case proto::Verb::Health: {
      // Deliberately the cheapest verb in the protocol: no kernel
      // compile, no cache, no locks — a loaded shard must still answer
      // its router's probe promptly or it gets marked down for latency
      // it doesn't have.
      metrics_.countHealth();
      proto::HealthInfo info;
      info.draining = draining();
      info.queueDepth = admission_.depth();
      info.workers = opts_.workers;
      reply.body = proto::encodeHealthInfo(info);
      break;
    }
    case proto::Verb::Advise: {
      auto req = proto::decodeAdviseRequest(frame.payload);
      if (!req.hasValue()) {
        metrics_.countProtocolError();
        reply = errorReply(req.status());
      } else {
        reply = handleAdvise(*req, queueWaitMs);
      }
      break;
    }
    case proto::Verb::Reply:
      metrics_.countProtocolError();
      reply = errorReply(Status::error(
          StatusCode::InvalidInput, "clients may not send Reply frames"));
      closeAfter = true;
      break;
  }
  return proto::encodeFrame(proto::Verb::Reply, proto::encodeReply(reply));
}

proto::Reply Server::handleExplore(const proto::ExploreRequest& req,
                                   i64 queueWaitMs) {
  metrics_.countExplore();
  const auto t0 = std::chrono::steady_clock::now();
  const auto recordLatency = [&] {
    metrics_.recordExploreLatencyUs(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  const auto fail = [&](const Status& st) {
    metrics_.countExploreError();
    recordLatency();
    return errorReply(st);
  };

  // Queue wait counts against the client's budget, not in addition to it.
  // A client-owned budget that expired in the queue is rejected outright
  // (BudgetExceeded — not retryable, the client's deadline is simply
  // gone); a server-imposed default only degrades, never rejects.
  i64 budgetMs = 0;  // <= 0 = unlimited
  if (req.deadlineMs > 0) {
    const i64 remaining =
        req.remainingBudgetMs > 0 ? req.remainingBudgetMs : req.deadlineMs;
    budgetMs = remaining - queueWaitMs;
    if (budgetMs <= 0) {
      metrics_.countExpiredRequest();
      return fail(Status::error(
          StatusCode::BudgetExceeded,
          "deadline expired before service (queued " +
              std::to_string(queueWaitMs) + "ms of " +
              std::to_string(remaining) + "ms budget)"));
    }
  } else if (opts_.defaultDeadlineMs > 0) {
    budgetMs = std::max<i64>(1, opts_.defaultDeadlineMs - queueWaitMs);
  }

  auto compiled = frontend::compileKernelChecked(req.kernel);
  if (!compiled.hasValue()) return fail(compiled.status());
  const loopir::Program& p = *compiled;
  const int signal = resolveSignal(p, req.signal);
  if (signal < 0)
    return fail(Status::error(
        StatusCode::InvalidInput,
        req.signal.empty()
            ? std::string("kernel has no read signal")
            : "no signal named '" + req.signal + "'"));

  // Defaults must match explore_kernel's so the two doors agree on the
  // config hash (byte-identity is pinned by tests/test_service.cpp).
  explorer::ExploreOptions opts;
  support::RunBudget budget;
  // Stage-1 overload ladder: queue pressure shrinks the effective
  // deadline so replies fall down the fidelity ladder instead of piling
  // latency onto everyone behind them. Degraded results are never cached,
  // so a tightened reply can't poison a later idle-time query.
  const i64 effectiveMs =
      tightenedDeadlineMs(budgetMs, admission_.pressure(), opts_.admission);
  if (effectiveMs > 0 && (budgetMs <= 0 || effectiveMs < budgetMs))
    metrics_.countDeadlineTightened();
  if (effectiveMs > 0) {
    budget.setDeadline(std::chrono::milliseconds(effectiveMs));
    opts.budget = &budget;  // excluded from the hash by design
  }
  const std::uint64_t hash = explorer::exploreConfigHash(p, signal, opts);

  i64 simulated = 0;
  bool leader = true;
  ComputeInfo info;
  support::Expected<CachedCurve> result = [&]() -> support::Expected<CachedCurve> {
    if ((req.flags & proto::kFlagNoCache) != 0) {
      auto ex = explorer::exploreSignalChecked(p, signal, opts);
      if (!ex.hasValue()) return ex.status();
      simulated = static_cast<i64>(ex->simulatedCurve.points.size());
      info.ran = true;
      info.fidelity = static_cast<std::uint8_t>(ex->curveFidelity);
      info.runGranularity = ex->simulationStats.runGranularity;
      info.runsDecoded = ex->simulationStats.runsDecoded;
      info.runFastEvents = ex->simulationStats.runFastEvents;
      info.simulatedEvents = ex->simulationStats.simulatedEvents;
      CachedCurve fresh;
      fresh.configHash = hash;
      fresh.signalName = ex->signalName;
      fresh.Ctot = ex->Ctot;
      fresh.distinctElements = ex->distinctElements;
      fresh.fidelity = static_cast<std::uint8_t>(ex->curveFidelity);
      fresh.csv = report::curveCsv(ex->signalName, ex->simulatedCurve);
      return fresh;
    }
    return flight_.run(
        hash,
        [&] {
          return cache_.getOrCompute(hash, p, signal, opts, &simulated,
                                     &info);
        },
        &leader);
  }();
  if (!leader) metrics_.countJoin();
  if (!result.hasValue()) return fail(result.status());
  if (leader && simulated > 0) metrics_.countSimulation();
  if (info.ran)
    metrics_.recordEngine(info.fidelity, info.runGranularity,
                          info.runsDecoded, info.runFastEvents,
                          info.simulatedEvents);
  if (!simcore::isExact(static_cast<simcore::Fidelity>(result->fidelity)))
    metrics_.countDegradedReply();

  proto::ExploreResult body;
  body.cached = leader ? simulated == 0 : true;
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
  metrics_.countAdvise();
  const auto fail = [&](const Status& st) {
    metrics_.countAdviseError();
    return errorReply(st);
  };

  // Budget semantics are identical to handleExplore: queue wait charges
  // the client's own budget; a server default only degrades.
  i64 budgetMs = 0;  // <= 0 = unlimited
  if (req.deadlineMs > 0) {
    const i64 remaining =
        req.remainingBudgetMs > 0 ? req.remainingBudgetMs : req.deadlineMs;
    budgetMs = remaining - queueWaitMs;
    if (budgetMs <= 0) {
      metrics_.countExpiredRequest();
      return fail(Status::error(
          StatusCode::BudgetExceeded,
          "deadline expired before service (queued " +
              std::to_string(queueWaitMs) + "ms of " +
              std::to_string(remaining) + "ms budget)"));
    }
  } else if (opts_.defaultDeadlineMs > 0) {
    budgetMs = std::max<i64>(1, opts_.defaultDeadlineMs - queueWaitMs);
  }

  auto compiled = frontend::compileKernelChecked(req.kernel);
  if (!compiled.hasValue()) return fail(compiled.status());
  const loopir::Program& p = *compiled;

  partition::AdvisorOptions aopts;
  aopts.solve.mode = static_cast<partition::Mode>(req.mode);
  aopts.solve.capacity = req.capacity;
  aopts.solve.ways = req.ways;
  if (Status st = partition::validateSolveInputs({}, aopts.solve);
      !st.isOk())
    return fail(st);
  const std::vector<int> signals = partition::readSignals(p);
  if (signals.empty())
    return fail(Status::error(StatusCode::InvalidInput,
                              "kernel has no read signal"));

  // Explore options stay at their defaults (matching handleExplore and
  // the CLI), so the per-signal curves share config hashes — and cache
  // entries — with plain Explore traffic. The shared deadline budget
  // covers the *whole* co-exploration: every signal sweep draws from the
  // same RunBudget, so a slow kernel degrades rather than overruns.
  support::RunBudget budget;
  const i64 effectiveMs =
      tightenedDeadlineMs(budgetMs, admission_.pressure(), opts_.admission);
  if (effectiveMs > 0 && (budgetMs <= 0 || effectiveMs < budgetMs))
    metrics_.countDeadlineTightened();
  if (effectiveMs > 0) {
    budget.setDeadline(std::chrono::milliseconds(effectiveMs));
    aopts.explore.budget = &budget;  // excluded from the hash by design
  }

  const std::uint64_t ahash = partition::adviseConfigHash(p, aopts);
  const bool noCache = (req.flags & proto::kFlagNoCache) != 0;
  if (!noCache) {
    if (std::optional<AdviseEntry> hit = adviseCacheGet(ahash)) {
      metrics_.countAdviseCacheHit();
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
    const std::uint64_t hash =
        explorer::exploreConfigHash(p, signal, aopts.explore);
    i64 simulated = 0;
    bool leader = true;
    ComputeInfo info;
    support::Expected<CachedCurve> result =
        [&]() -> support::Expected<CachedCurve> {
      if (noCache) {
        auto ex = explorer::exploreSignalChecked(p, signal, aopts.explore);
        if (!ex.hasValue()) return ex.status();
        simulated = static_cast<i64>(ex->simulatedCurve.points.size());
        info.ran = true;
        info.fidelity = static_cast<std::uint8_t>(ex->curveFidelity);
        info.runGranularity = ex->simulationStats.runGranularity;
        info.runsDecoded = ex->simulationStats.runsDecoded;
        info.runFastEvents = ex->simulationStats.runFastEvents;
        info.simulatedEvents = ex->simulationStats.simulatedEvents;
        CachedCurve fresh;
        fresh.configHash = hash;
        fresh.signalName = ex->signalName;
        fresh.Ctot = ex->Ctot;
        fresh.distinctElements = ex->distinctElements;
        fresh.fidelity = static_cast<std::uint8_t>(ex->curveFidelity);
        fresh.csv = report::curveCsv(ex->signalName, ex->simulatedCurve);
        return fresh;
      }
      return flight_.run(
          hash,
          [&] {
            return cache_.getOrCompute(hash, p, signal, aopts.explore,
                                       &simulated, &info);
          },
          &leader);
    }();
    if (!leader) metrics_.countJoin();
    if (!result.hasValue()) {
      Status s = result.status();
      return fail(Status::error(s.code(), "signal \"" +
                                              p.signals[signal].name +
                                              "\": " + s.message()));
    }
    if (leader && simulated > 0) metrics_.countSimulation();
    if (simulated > 0) anyComputed = true;
    if (info.ran)
      metrics_.recordEngine(info.fidelity, info.runGranularity,
                            info.runsDecoded, info.runFastEvents,
                            info.simulatedEvents);
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
      partition::adviseFromCurves(p.name, std::move(objects), aopts.solve);
  metrics_.recordAdviseSolveUs(report.solveMicros);
  if (report.result.usedFallback) metrics_.countAdviseFallback();
  const auto worst = static_cast<std::uint8_t>(report.worstFidelity);
  const bool exact = simcore::isExact(report.worstFidelity);
  if (!exact) metrics_.countDegradedReply();

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
  s.cacheHits = cs.hits;
  s.warmHits = cs.warmHits;
  s.cacheMisses = cs.misses;
  s.cacheEvictions = cs.evictions;
  s.cacheEntries = cs.entries;
  s.cacheBytes = cs.bytes;
  s.cacheMaxBytes = cs.maxBytes;
  return s;
}

}  // namespace dr::service
