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
/// queue plus a two-stage degradation ladder:
///
///   1. **Tighten.** As queue pressure rises past `tightenStart`, the
///      effective per-request RunBudget deadline shrinks linearly from
///      `pressureDeadlineMs` down to `minDeadlineMs` at a full queue, so
///      replies fall down the PR 3 fidelity ladder — degraded-but-fast
///      under load, exact when idle. A client deadline tighter than the
///      pressure cap is honored as-is; tightening only ever shrinks.
///   2. **Shed.** Once the queue is full (or a connection waited in it
///      longer than `acceptDeadlineMs`), the daemon answers with a
///      structured Unavailable reply carrying a retry-after hint sized
///      from the live service rate — never a silent disconnect — and the
///      connection is closed. Queue depth bounds daemon memory.
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
  /// Queue pressure (depth / maxQueueDepth) where deadline tightening
  /// starts; below it requests keep their full budget.
  double tightenStart = 0.5;
  /// Effective deadline imposed right at `tightenStart`; shrinks linearly
  /// to `minDeadlineMs` as the queue fills.
  i64 pressureDeadlineMs = 250;
  /// Tightening floor: even a full queue leaves this much budget, so a
  /// request always reaches the analytic rung instead of failing.
  i64 minDeadlineMs = 10;
  /// Bounds on the retry-after hint attached to shed replies.
  i64 retryAfterFloorMs = 25;
  i64 retryAfterCapMs = 2000;
};

/// InvalidInput for out-of-range limits (non-positive or absurd queue
/// depth, inverted tighten band, negative hints); Ok otherwise.
support::Status validateAdmissionOptions(const AdmissionOptions& opts);

/// Stage-1 policy: the effective RunBudget deadline for a request whose
/// remaining budget is `baseMs` (<= 0 = unlimited) at queue pressure
/// `pressure` in [0, 1]. Below tightenStart the base passes through
/// untouched; above it the pressure cap applies (never growing a tighter
/// client deadline, never shrinking below minDeadlineMs).
i64 tightenedDeadlineMs(i64 baseMs, double pressure,
                        const AdmissionOptions& opts);

/// Retry-after hint for a shed reply: the estimated time for `workers`
/// workers to drain half of `queueDepth` requests at the observed mean
/// explore latency, clamped to [retryAfterFloorMs, retryAfterCapMs].
/// Deterministic — the client adds its own seeded jitter.
i64 retryAfterHintMs(const AdmissionOptions& opts, i64 queueDepth,
                     int workers, i64 meanExploreLatencyUs);

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
  explicit AdmissionQueue(AdmissionOptions opts);

  /// False when the queue is at maxQueueDepth (the caller sheds) or
  /// closed; true stamps the admission time and wakes one worker.
  bool tryPush(int fd);

  /// Block until an entry or close(); nullopt once closed *and* drained.
  std::optional<QueuedConn> pop();

  /// Stop admitting; wake every blocked pop. Idempotent.
  void close();

  i64 depth() const;

  /// depth / maxQueueDepth in [0, 1] — the tightening ladder's input.
  double pressure() const;

 private:
  AdmissionOptions opts_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<QueuedConn> queue_;
  bool closed_ = false;
};

}  // namespace dr::service
