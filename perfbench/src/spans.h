#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

/// \file spans.h
/// In-memory span recorder for the traced run. A span is one call into a
/// layer's public function, recorded by the benchmark around that call
/// (nothing inside the program is instrumented): name, start, end, the
/// span that caused it, and the request id it belongs to. Spans stay in
/// memory and are written out once, as JSON, when the run ends.

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  std::uint64_t requestId = 0;
  std::int64_t startNs = 0;  ///< since the recorder was created
  std::int64_t endNs = 0;
};

/// Per-name aggregate: call count, total and self time. Self time is a
/// span's duration minus the time its child spans cover.
struct SpanTotals {
  std::int64_t count = 0;
  double totalUs = 0.0;
  double selfUs = 0.0;
};

class SpanRecorder {
 public:
  /// A disabled recorder records nothing and costs one branch per span.
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Open a span; returns its id (0 when disabled).
  std::int64_t open();
  /// Close span `id` opened at `startNs`.
  void close(std::int64_t id, std::int64_t startNs, const char* name,
             std::int64_t parent, std::uint64_t requestId);

  std::int64_t nowNs() const;

  std::vector<Span> spans() const;

  /// Durations (us) of every span named `name`.
  std::vector<double> durationsUs(const std::string& name) const;

  std::map<std::string, SpanTotals> totals() const;

  /// {"spans": [...], "totals": {...}} — the trace file body.
  std::string toJson() const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<std::int64_t> nextId_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// RAII span: opened on construction, recorded on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::int64_t parent = 0,
             std::uint64_t requestId = 0)
      : rec_(rec),
        name_(name),
        parent_(parent),
        requestId_(requestId),
        id_(rec.open()),
        startNs_(rec.enabled() ? rec.nowNs() : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) rec_.close(id_, startNs_, name_, parent_, requestId_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  const char* name_;
  std::int64_t parent_;
  std::uint64_t requestId_;
  std::int64_t id_;
  std::int64_t startNs_;
};

}  // namespace perfbench
