#include "service/admission.h"

#include <algorithm>

namespace dr::service {

using support::Status;
using support::StatusCode;

namespace {

/// Depths past this are a configuration mistake, not a capacity plan: the
/// queue exists to bound memory and tail latency, and a million parked
/// connections does neither.
constexpr int kMaxReasonableQueueDepth = 1 << 16;

}  // namespace

Status validateAdmissionOptions(const AdmissionOptions& opts) {
  const auto invalid = [](const std::string& what) {
    return Status::error(StatusCode::InvalidInput, "admission: " + what);
  };
  if (opts.maxQueueDepth <= 0)
    return invalid("maxQueueDepth must be positive, got " +
                   std::to_string(opts.maxQueueDepth));
  if (opts.maxQueueDepth > kMaxReasonableQueueDepth)
    return invalid("maxQueueDepth " + std::to_string(opts.maxQueueDepth) +
                   " exceeds the " +
                   std::to_string(kMaxReasonableQueueDepth) + " cap");
  if (!(opts.tightenStart >= 0.0 && opts.tightenStart <= 1.0))
    return invalid("tightenStart must be in [0, 1]");
  if (opts.minDeadlineMs <= 0)
    return invalid("minDeadlineMs must be positive");
  if (opts.pressureDeadlineMs < opts.minDeadlineMs)
    return invalid("pressureDeadlineMs must be >= minDeadlineMs");
  if (opts.retryAfterFloorMs < 0 ||
      opts.retryAfterCapMs < opts.retryAfterFloorMs)
    return invalid("retry-after hint band is inverted");
  return Status::ok();
}

i64 tightenedDeadlineMs(i64 baseMs, double pressure,
                        const AdmissionOptions& opts) {
  pressure = std::clamp(pressure, 0.0, 1.0);
  if (pressure < opts.tightenStart) return baseMs;  // idle: full budget
  // Linear ramp from the pressure cap at tightenStart down to the floor
  // at a full queue. tightenStart == 1 collapses the band to the floor.
  const double band = 1.0 - opts.tightenStart;
  const double span =
      band > 0.0 ? std::clamp((pressure - opts.tightenStart) / band, 0.0, 1.0)
                 : 1.0;
  const i64 cap =
      opts.pressureDeadlineMs -
      static_cast<i64>(span * static_cast<double>(opts.pressureDeadlineMs -
                                                  opts.minDeadlineMs));
  if (baseMs <= 0) return cap;  // unlimited request: the cap is the budget
  return std::min(baseMs, cap);
}

i64 retryAfterHintMs(const AdmissionOptions& opts, i64 queueDepth,
                     int workers, i64 meanExploreLatencyUs) {
  i64 hint = opts.retryAfterFloorMs;
  if (workers > 0 && meanExploreLatencyUs > 0 && queueDepth > 0) {
    // Time for the pool to drain half the queue at the observed rate.
    const i64 drainMs =
        queueDepth * meanExploreLatencyUs / (2 * workers * 1000);
    hint = std::max(hint, drainMs);
  }
  return std::clamp(hint, opts.retryAfterFloorMs, opts.retryAfterCapMs);
}

AdmissionQueue::AdmissionQueue(AdmissionOptions opts)
    : opts_(std::move(opts)) {}

bool AdmissionQueue::tryPush(int fd) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ ||
        queue_.size() >= static_cast<std::size_t>(std::max(
                             1, opts_.maxQueueDepth)))
      return false;
    queue_.push_back({fd, std::chrono::steady_clock::now()});
  }
  cv_.notify_one();
  return true;
}

std::optional<QueuedConn> AdmissionQueue::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return !queue_.empty() || closed_; });
  if (queue_.empty()) return std::nullopt;  // closed and drained
  QueuedConn conn = queue_.front();
  queue_.pop_front();
  return conn;
}

void AdmissionQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

i64 AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<i64>(queue_.size());
}

double AdmissionQueue::pressure() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (opts_.maxQueueDepth <= 0) return 1.0;
  return static_cast<double>(queue_.size()) /
         static_cast<double>(opts_.maxQueueDepth);
}

}  // namespace dr::service
