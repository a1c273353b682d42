#include "service/client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "support/rng.h"

namespace dr::service {

using support::Expected;
using support::Status;
using support::StatusCode;

namespace {

using Clock = std::chrono::steady_clock;

i64 msSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               t0)
      .count();
}

Status ioError(const char* op) {
  return Status::error(StatusCode::IoError,
                       std::string(op) + ": " + std::strerror(errno));
}

/// The parsed endpoint of `opts`, or why the options are invalid.
Expected<transport::Endpoint> checkedEndpoint(const ClientOptions& opts) {
  const auto invalid = [](const std::string& what) {
    return Status::error(StatusCode::InvalidInput, "client: " + what);
  };
  if (opts.endpoint.empty()) return invalid("endpoint is empty");
  auto ep = transport::parseEndpoint(opts.endpoint);
  if (!ep.hasValue()) return ep.status();
  if (opts.maxAttempts < 1) return invalid("maxAttempts must be >= 1");
  if (opts.backoffBaseMs < 0 || opts.backoffCapMs < opts.backoffBaseMs)
    return invalid("backoff band is inverted");
  return ep;
}

}  // namespace

Status validateClientOptions(const ClientOptions& opts) {
  return checkedEndpoint(opts).status();
}

Client::Client(ClientOptions opts)
    : opts_(std::move(opts)), endpoint_(checkedEndpoint(opts_)) {}

i64 Client::retryDelayMs(const ClientOptions& opts, std::uint64_t callIdx,
                         int attempt, i64 retryAfterMs) {
  // Exponential base, capped; shift guarded so attempt counts past 62
  // can't overflow (the cap would have won long before).
  i64 backoff = opts.backoffCapMs;
  if (attempt < 62) {
    const i64 shifted = opts.backoffBaseMs
                        << std::min<int>(attempt, 62);
    backoff = std::min(opts.backoffCapMs,
                       shifted > 0 ? shifted : opts.backoffCapMs);
  }
  support::Rng rng(support::mixSeed(opts.seed, callIdx,
                                    static_cast<std::uint64_t>(attempt)));
  i64 delay = backoff + (backoff > 1 ? rng.uniform(0, backoff / 2) : 0);
  // Never retry before the server said it could help.
  return std::max(delay, retryAfterMs);
}

Expected<proto::Reply> Client::attemptOnce(proto::Verb verb,
                                           const std::string& payload) {
  auto connected = transport::connectTo(*endpoint_, opts_.connectTimeoutMs);
  if (!connected.hasValue()) return connected.status();
  const int fd = *connected;
  transport::setSendTimeoutMs(fd, opts_.sendTimeoutMs);
  transport::setRecvTimeoutMs(fd, opts_.recvTimeoutMs);

  // The peer may have shed us before reading the request — a reply can
  // already be buffered. So a failed send still tries to read it; only a
  // failed read makes this a transport error.
  const bool sendFailed =
      !transport::sendAll(fd, proto::encodeFrame(verb, payload));

  std::string buffer;
  char chunk[4096];
  while (true) {
    proto::FrameParse parse = proto::tryParseFrame(buffer);
    if (parse.result == proto::ParseResult::Corrupt) {
      ::close(fd);
      // Corrupt stream = broken transport, not a server verdict: retry.
      return Status::error(StatusCode::IoError,
                           "corrupt reply: " + parse.status.str());
    }
    if (parse.result == proto::ParseResult::Ok) {
      ::close(fd);
      if (parse.frame.verb != proto::Verb::Reply)
        return Status::error(StatusCode::IoError,
                             "server sent a non-Reply frame");
      auto reply = proto::decodeReply(parse.frame.payload);
      if (!reply.hasValue())
        return Status::error(StatusCode::IoError,
                             "undecodable reply: " + reply.status().str());
      return reply;
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    ::close(fd);
    if (sendFailed) return ioError("send");
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return Status::error(StatusCode::IoError, "recv timed out");
    return Status::error(StatusCode::IoError,
                         "connection closed before a full reply");
  }
}

Expected<proto::Reply> Client::run(
    proto::Verb verb, i64 deadlineMs,
    const std::function<std::string(i64 remainingMs)>& encode) {
  if (!endpoint_.hasValue()) return endpoint_.status();
  const std::uint64_t callIdx = static_cast<std::uint64_t>(
      counters_.count(ClientCounter::calls));
  const auto t0 = Clock::now();
  const auto remaining = [&]() -> i64 {
    return deadlineMs > 0 ? deadlineMs - msSince(t0) : 0;
  };
  const auto budgetGone = [&](const Status& last) {
    return Status::error(
        StatusCode::BudgetExceeded,
        "deadline exhausted after " + std::to_string(msSince(t0)) +
            "ms; last failure: " + last.str());
  };
  // Sleep `ms`, clamped to the budget; false = the budget is gone.
  const auto sleepFor = [&](i64 ms) {
    if (deadlineMs > 0) {
      const i64 left = remaining();
      if (left <= 0) return false;
      ms = std::min(ms, left);
    }
    if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return deadlineMs <= 0 || remaining() > 0;
  };

  Status lastFailure = Status::error(StatusCode::Internal, "no attempt ran");
  bool honoredHintLastSleep = false;
  for (int attempt = 0; attempt < opts_.maxAttempts; ++attempt) {
    if (attempt > 0) counters_.count(ClientCounter::retries);
    if (deadlineMs > 0 && remaining() <= 0) return budgetGone(lastFailure);

    auto reply = attemptOnce(verb, encode(std::max<i64>(0, remaining())));
    if (!reply.hasValue()) {
      counters_.count(ClientCounter::transportFailures);
      honoredHintLastSleep = false;
      lastFailure = reply.status();
      if (attempt + 1 >= opts_.maxAttempts) break;
      if (!sleepFor(retryDelayMs(opts_, callIdx, attempt, 0)))
        return budgetGone(lastFailure);
      continue;
    }
    if (reply->code == StatusCode::Unavailable) {
      honoredHintLastSleep = false;
      lastFailure = Status::error(StatusCode::Unavailable, reply->message);
      if (attempt + 1 >= opts_.maxAttempts) return reply;  // caller sees it
      const i64 hint = std::max<i64>(0, reply->retryAfterMs);
      if (hint > 0) {
        counters_.count(ClientCounter::retryAfterHonored);
        honoredHintLastSleep = true;
      }
      if (!sleepFor(retryDelayMs(opts_, callIdx, attempt, hint)))
        return budgetGone(lastFailure);
      continue;
    }
    if (honoredHintLastSleep)
      counters_.count(ClientCounter::retryAfterSuccesses);
    return reply;
  }
  return lastFailure;
}

Expected<proto::Reply> Client::explore(const proto::ExploreRequest& req) {
  proto::ExploreRequest attemptReq = req;
  return run(proto::Verb::Explore, req.deadlineMs,
             [&attemptReq, &req](i64 remainingMs) {
               attemptReq.remainingBudgetMs =
                   req.deadlineMs > 0 ? std::max<i64>(1, remainingMs) : 0;
               return proto::encodeExploreRequest(attemptReq);
             });
}

Expected<proto::Reply> Client::advise(const proto::AdviseRequest& req) {
  proto::AdviseRequest attemptReq = req;
  return run(proto::Verb::Advise, req.deadlineMs,
             [&attemptReq, &req](i64 remainingMs) {
               attemptReq.remainingBudgetMs =
                   req.deadlineMs > 0 ? std::max<i64>(1, remainingMs) : 0;
               return proto::encodeAdviseRequest(attemptReq);
             });
}

Expected<proto::Reply> Client::call(proto::Verb verb,
                                    const std::string& payload) {
  return run(verb, 0, [&payload](i64) { return payload; });
}

ClientStats Client::stats() const {
  ClientStats s;
#define DR_COPY(field) s.field = counters_.get(ClientCounter::field);
  DR_CLIENT_LEDGER(DR_COPY)
#undef DR_COPY
  return s;
}

}  // namespace dr::service
