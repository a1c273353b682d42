#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "service/admission.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/transport.h"
#include "support/status.h"

/// \file front_door.h
/// The listening half of the exploration daemon (server.h) and of the
/// shard router (router.h), written once; internal to src/service/.
///
/// A FrontDoor owns the listener and its wakeup pipe, the bounded
/// admission queue (admission.h) with its structured shed replies, the
/// worker pool, the per-connection frame loop and the graceful drain. It
/// answers the verbs that mean the same at every door (Health, Stats,
/// Shutdown, a client-sent Reply, a malformed frame or payload) and
/// hands decoded Explore and Advise requests to its owner. Every count it
/// makes goes into the owner's Metrics.
///
/// Faults are connection-scoped: a malformed frame, a mid-query
/// disconnect, an injected FaultSite::ServiceIo failure or a handler
/// exception closes that connection and nothing else.

namespace dr::service {

/// Worker counts past this are a configuration mistake: a pool larger
/// than any plausible core count only adds contention.
constexpr int kMaxReasonableWorkers = 4096;

/// The reply that carries `status` as an error.
proto::Reply errorReply(const support::Status& status);

class FrontDoor {
 public:
  /// What the owner answers, and the words its replies carry.
  struct Owner {
    const char* overloaded;  ///< shed reason prefix ("overloaded")
    const char* failed;      ///< handler-exception prefix ("request failed")
    const char* stage;       ///< "deadline expired before <stage>"
    std::function<proto::Reply(const proto::ExploreRequest&,
                               i64 queueWaitMs)>
        explore;
    std::function<proto::Reply(const proto::AdviseRequest&, i64 queueWaitMs)>
        advise;
    std::function<std::string()> stats;  ///< the Stats verb body
    std::function<void()> shutdown;      ///< the Shutdown verb
  };

  /// `metrics` must outlive the door. The queue clamps its depth to at
  /// least 1, so a misconfigured owner is still constructible and its
  /// start() can reject the options cleanly.
  FrontDoor(int workers, const AdmissionOptions& admission, Metrics& metrics,
            Owner owner);
  ~FrontDoor();  ///< requestShutdown() + wait()

  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  /// Bind + listen on `endpoint` (TCP port 0 = ephemeral) and spawn the
  /// accept thread and the worker pool. IoError when the endpoint is
  /// unusable; a second start() is a contract violation.
  support::Status start(const std::string& endpoint);

  /// Begin a graceful drain (idempotent, callable from any thread): the
  /// listener stops accepting, queued connections finish their current
  /// requests, then the workers exit.
  void requestShutdown();

  /// Block until the drain finishes and every thread has exited, then
  /// release the pipe and a Unix socket file.
  void wait();

  bool started() const { return started_; }
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// The endpoint the listener bound (a TCP port 0 resolved). Valid
  /// after a successful start().
  const transport::Endpoint& bound() const { return bound_; }

  /// Charge `queueWaitMs` against a request's own budget
  /// (`remainingBudgetMs` when stamped, else `deadlineMs`): the budget
  /// left, 0 when the request carries no deadline. A client-owned budget
  /// that ran out in the queue is BudgetExceeded and counts as expired —
  /// the client's deadline is gone, so the request is not worth serving.
  support::Expected<i64> budgetAfterQueue(i64 deadlineMs,
                                          i64 remainingBudgetMs,
                                          i64 queueWaitMs);

 private:
  void acceptLoop();
  void workerLoop();
  void serveConnection(int fd, i64 queueWaitMs);

  /// Shed `fd` with a structured Unavailable reply (retry-after hint
  /// included) and close it — the load-shedding exit, never silent.
  void shedConnection(int fd, const char* why);

  /// Dispatch one parsed frame; returns the encoded Reply frame and sets
  /// `closeAfter` for verbs that end the conversation. `queueWaitMs` is
  /// the admission-queue wait charged to the request's budget.
  std::string handleFrame(const proto::Frame& frame, bool& closeAfter,
                          i64 queueWaitMs);

  const int workers_;
  const i64 acceptDeadlineMs_;  ///< AdmissionOptions::acceptDeadlineMs
  Metrics& metrics_;
  const Owner owner_;
  AdmissionQueue admission_;

  int listenFd_ = -1;
  transport::Endpoint bound_;
  int wakeupPipe_[2] = {-1, -1};  ///< written on shutdown to unblock poll
  std::atomic<bool> draining_{false};
  bool started_ = false;

  std::thread acceptThread_;
  std::vector<std::thread> workerThreads_;
};

}  // namespace dr::service
