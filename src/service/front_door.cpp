#include "service/front_door.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

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

/// Send a whole reply; false drops the connection. The fault probe
/// models a peer that vanished mid-reply.
bool writeAll(int fd, const std::string& bytes) {
  if (support::fault::shouldFail(FaultSite::ServiceIo)) return false;
  return transport::sendAll(fd, bytes);
}

std::string replyFrame(const proto::Reply& reply) {
  return proto::encodeFrame(proto::Verb::Reply, proto::encodeReply(reply));
}

}  // namespace

proto::Reply errorReply(const Status& status) {
  proto::Reply reply;
  reply.code = status.code();
  reply.message = status.str();
  return reply;
}

FrontDoor::FrontDoor(int workers, const AdmissionOptions& admission,
                     Metrics& metrics, Owner owner)
    : workers_(workers),
      acceptDeadlineMs_(admission.acceptDeadlineMs),
      metrics_(metrics),
      owner_(std::move(owner)),
      admission_(admission.maxQueueDepth) {}

FrontDoor::~FrontDoor() {
  requestShutdown();
  wait();
}

Status FrontDoor::start(const std::string& endpoint) {
  DR_REQUIRE_MSG(!started_, "start() called twice");
  auto ep = transport::parseEndpoint(endpoint, /*allowEphemeralPort=*/true);
  if (!ep.hasValue()) return ep.status();
  auto listener = transport::listenOn(*ep);
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
  workerThreads_.reserve(static_cast<std::size_t>(workers_));
  for (int i = 0; i < workers_; ++i)
    workerThreads_.emplace_back([this] { workerLoop(); });
  return Status::ok();
}

void FrontDoor::requestShutdown() {
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

void FrontDoor::wait() {
  if (!started_) return;
  if (acceptThread_.joinable()) acceptThread_.join();
  for (std::thread& w : workerThreads_)
    if (w.joinable()) w.join();
  workerThreads_.clear();
  for (int& fd : wakeupPipe_)
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  if (bound_.kind == transport::Endpoint::Kind::Unix && !bound_.path.empty())
    ::unlink(bound_.path.c_str());
}

support::Expected<i64> FrontDoor::budgetAfterQueue(i64 deadlineMs,
                                                   i64 remainingBudgetMs,
                                                   i64 queueWaitMs) {
  if (deadlineMs <= 0) return i64{0};
  const i64 remaining = remainingBudgetMs > 0 ? remainingBudgetMs : deadlineMs;
  const i64 budgetMs = remaining - queueWaitMs;
  if (budgetMs > 0) return budgetMs;
  metrics_.count(Counter::expiredRequests);
  return Status::error(StatusCode::BudgetExceeded,
                       std::string("deadline expired before ") +
                           owner_.stage + " (queued " +
                           std::to_string(queueWaitMs) + "ms of " +
                           std::to_string(remaining) + "ms budget)");
}

void FrontDoor::acceptLoop() {
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
    transport::setRecvTimeoutMs(fd, kRecvTimeoutMs);
    if (bound_.kind == transport::Endpoint::Kind::Tcp) {
      // One framed request, one framed reply: exactly the exchange shape
      // Nagle delays. Replies must not wait out a 40 ms delayed-ACK.
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    if (!admission_.tryPush(fd)) {
      metrics_.count(Counter::shedQueueFull);
      shedConnection(fd, "admission queue full");
      continue;
    }
    metrics_.raise(Counter::queueDepthHighWater, admission_.depth());
  }
  ::close(listenFd_);
  listenFd_ = -1;
  admission_.close();  // wake workers so they can observe the drain
}

void FrontDoor::shedConnection(int fd, const char* why) {
  metrics_.count(Counter::overloadReplies);
  proto::Reply reply;
  reply.code = StatusCode::Unavailable;
  reply.message = std::string(owner_.overloaded) + ": " + why;
  reply.retryAfterMs = retryAfterHintMs(admission_.depth(), workers_,
                                        metrics_.exploreLatency.meanUs());
  // Bound the shed write too: a reply to an overloading client must not
  // park the accept loop behind a full socket buffer.
  transport::setSendTimeoutMs(fd, kRecvTimeoutMs);
  writeAll(fd, replyFrame(reply));
  ::close(fd);
}

void FrontDoor::workerLoop() {
  while (true) {
    std::optional<QueuedConn> conn = admission_.pop();
    if (!conn) return;  // closed and drained
    const i64 queueWaitMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - conn->admittedAt)
            .count();
    if (!draining() && acceptDeadlineMs_ > 0 &&
        queueWaitMs > acceptDeadlineMs_) {
      metrics_.count(Counter::shedQueueWait);
      shedConnection(conn->fd, "accept deadline exceeded");
      continue;
    }
    try {
      serveConnection(conn->fd, queueWaitMs);
    } catch (...) {
      // A request must never take a worker down with it; the connection
      // is already closed or about to be.
      metrics_.count(Counter::connectionsDropped);
    }
    ::close(conn->fd);
  }
}

void FrontDoor::serveConnection(int fd, i64 queueWaitMs) {
  metrics_.count(Counter::connectionsAccepted);
  std::string buffer;
  char chunk[4096];
  while (true) {
    // Drain every complete frame already buffered before reading again.
    while (true) {
      proto::FrameParse parse = proto::tryParseFrame(buffer);
      if (parse.result == proto::ParseResult::Corrupt) {
        metrics_.count(Counter::protocolErrors);
        writeAll(fd, replyFrame(errorReply(parse.status)));
        return;  // the stream is unsynchronized; drop the connection
      }
      if (parse.result == proto::ParseResult::NeedMore) break;
      buffer.erase(0, parse.consumed);
      metrics_.count(Counter::requests);
      bool closeAfter = false;
      std::string reply;
      // Queue wait charges only the connection's first request: later
      // frames arrived while the connection was already being served.
      const i64 chargedWaitMs = std::exchange(queueWaitMs, i64{0});
      try {
        reply = handleFrame(parse.frame, closeAfter, chargedWaitMs);
      } catch (const std::exception& e) {
        reply = replyFrame(errorReply(Status::error(
            StatusCode::Internal,
            std::string(owner_.failed) + ": " + e.what())));
      }
      if (!writeAll(fd, reply)) {
        metrics_.count(Counter::connectionsDropped);
        return;
      }
      if (closeAfter) return;
    }
    if (draining()) return;  // finish buffered work, then hang up
    if (support::fault::shouldFail(FaultSite::ServiceIo)) {
      metrics_.count(Counter::connectionsDropped);
      return;
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      // Orderly close. A non-empty buffer means the client vanished
      // mid-frame — the mid-query disconnect a door must survive.
      if (!buffer.empty()) metrics_.count(Counter::connectionsDropped);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // idle timeout
    metrics_.count(Counter::connectionsDropped);
    return;
  }
}

std::string FrontDoor::handleFrame(const proto::Frame& frame,
                                   bool& closeAfter, i64 queueWaitMs) {
  proto::Reply reply;
  switch (frame.verb) {
    case proto::Verb::Explore: {
      auto req = proto::decodeExploreRequest(frame.payload);
      if (!req.hasValue()) {
        metrics_.count(Counter::protocolErrors);
        reply = errorReply(req.status());
      } else {
        metrics_.count(Counter::exploreRequests);
        reply = owner_.explore(*req, queueWaitMs);
      }
      break;
    }
    case proto::Verb::Advise: {
      auto req = proto::decodeAdviseRequest(frame.payload);
      if (!req.hasValue()) {
        metrics_.count(Counter::protocolErrors);
        reply = errorReply(req.status());
      } else {
        metrics_.count(Counter::adviseRequests);
        reply = owner_.advise(*req, queueWaitMs);
      }
      break;
    }
    case proto::Verb::Stats:
      metrics_.count(Counter::statsRequests);
      reply.body = owner_.stats();
      break;
    case proto::Verb::Shutdown:
      metrics_.count(Counter::shutdownRequests);
      owner_.shutdown();
      closeAfter = true;
      break;
    case proto::Verb::Health: {
      // Deliberately the cheapest verb in the protocol: no kernel
      // compile, no cache, no locks — a loaded shard must still answer
      // its router's probe promptly or it gets marked down for latency
      // it doesn't have.
      metrics_.count(Counter::healthRequests);
      proto::HealthInfo info;
      info.draining = draining();
      info.queueDepth = admission_.depth();
      info.workers = workers_;
      reply.body = proto::encodeHealthInfo(info);
      break;
    }
    case proto::Verb::Reply:
      metrics_.count(Counter::protocolErrors);
      reply = errorReply(Status::error(
          StatusCode::InvalidInput, "clients may not send Reply frames"));
      closeAfter = true;
      break;
  }
  return replyFrame(reply);
}

}  // namespace dr::service
