#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "support/intmath.h"
#include "support/status.h"

/// \file admission.h
/// Admission control and load shedding for the exploration daemon. The
/// unbounded accept queue of the first service cut grew memory and
/// latency without limit under a burst; this replaces it with a bounded
/// queue and one overload control, the shed: once the queue is full (or
/// a connection waited in it longer than `acceptDeadlineMs`), the door
/// answers with a structured Unavailable reply carrying a retry-after
/// hint sized from the live service rate — never a silent disconnect —
/// and closes the connection. Queue depth bounds daemon memory, and the
/// client's jittered backoff (client.h) spreads the retries.
///
/// Queue wait is charged against the request's own budget (see
/// proto::ExploreRequest::remainingBudgetMs): waiting in the queue counts
/// toward the deadline, not in addition to it, and a request whose budget
/// expired while queued is rejected outright.

namespace dr::service {

using dr::support::i64;

struct AdmissionOptions {
  /// Accepted connections a worker has not picked up yet; beyond this the
  /// daemon sheds instead of queueing (bounds memory and tail latency).
  int maxQueueDepth = 256;
  /// A connection that waited in the queue longer than this is shed when
  /// a worker finally picks it up; <= 0 = unlimited wait.
  i64 acceptDeadlineMs = 2000;
};

/// Bounds on the retry-after hint attached to shed replies.
constexpr i64 kRetryAfterFloorMs = 25;
constexpr i64 kRetryAfterCapMs = 2000;

/// InvalidInput for a non-positive or absurd queue depth; Ok otherwise.
support::Status validateAdmissionOptions(const AdmissionOptions& opts);

/// Retry-after hint for a shed reply: the estimated time for `workers`
/// workers to drain half of `queueDepth` requests at the observed mean
/// explore latency, clamped to [kRetryAfterFloorMs, kRetryAfterCapMs].
/// Deterministic — the client adds its own seeded jitter.
i64 retryAfterHintMs(i64 queueDepth, int workers, i64 meanExploreLatencyUs);

/// One accepted connection waiting for a worker.
struct QueuedConn {
  int fd = -1;
  std::chrono::steady_clock::time_point admittedAt;
};

/// The bounded accept queue: push from the accept loop, pop from workers.
/// Thread-safe; close() releases every blocked pop (drained entries are
/// still handed out so an orderly shutdown finishes queued work).
class AdmissionQueue {
 public:
  /// Depths below 1 are clamped to 1.
  explicit AdmissionQueue(int maxQueueDepth);

  /// False when the queue is at its depth (the caller sheds) or closed;
  /// true stamps the admission time and wakes one worker.
  bool tryPush(int fd);

  /// Block until an entry or close(); nullopt once closed *and* drained.
  std::optional<QueuedConn> pop();

  /// Stop admitting; wake every blocked pop. Idempotent.
  void close();

  i64 depth() const;

 private:
  const std::size_t maxDepth_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<QueuedConn> queue_;
  bool closed_ = false;
};

}  // namespace dr::service
