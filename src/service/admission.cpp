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
  return Status::ok();
}

i64 retryAfterHintMs(i64 queueDepth, int workers, i64 meanExploreLatencyUs) {
  i64 hint = kRetryAfterFloorMs;
  if (workers > 0 && meanExploreLatencyUs > 0 && queueDepth > 0) {
    // Time for the pool to drain half the queue at the observed rate.
    const i64 drainMs =
        queueDepth * meanExploreLatencyUs / (2 * workers * 1000);
    hint = std::max(hint, drainMs);
  }
  return std::min(hint, kRetryAfterCapMs);
}

AdmissionQueue::AdmissionQueue(int maxQueueDepth)
    : maxDepth_(static_cast<std::size_t>(std::max(1, maxQueueDepth))) {}

bool AdmissionQueue::tryPush(int fd) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || queue_.size() >= maxDepth_) return false;
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

}  // namespace dr::service
