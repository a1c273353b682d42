#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::open() {
  if (!enabled_) return 0;
  return nextId_.fetch_add(1, std::memory_order_relaxed);
}

std::int64_t SpanRecorder::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void SpanRecorder::close(std::int64_t id, std::int64_t startNs,
                         const char* name, std::int64_t parent,
                         std::uint64_t requestId) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.requestId = requestId;
  s.startNs = startNs;
  s.endNs = nowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> SpanRecorder::durationsUs(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_)
    if (s.name == name)
      out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-3);
  return out;
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::int64_t, double> childUs;
  for (const Span& s : all)
    if (s.parent != 0)
      childUs[s.parent] += static_cast<double>(s.endNs - s.startNs) * 1e-3;
  std::map<std::string, SpanTotals> out;
  for (const Span& s : all) {
    const double us = static_cast<double>(s.endNs - s.startNs) * 1e-3;
    SpanTotals& t = out[s.name];
    ++t.count;
    t.totalUs += us;
    const auto it = childUs.find(s.id);
    t.selfUs += std::max(0.0, us - (it == childUs.end() ? 0.0 : it->second));
  }
  return out;
}

std::string SpanRecorder::toJson() const {
  std::string out = "{\"spans\": [";
  char buf[256];
  bool first = true;
  for (const Span& s : spans()) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, "
                  "\"request\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}",
                  first ? "" : ",", s.name.c_str(),
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.requestId),
                  static_cast<long long>(s.startNs),
                  static_cast<long long>(s.endNs));
    out += buf;
    first = false;
  }
  out += "],\n\"totals\": {";
  first = true;
  for (const auto& [name, t] : totals()) {
    std::snprintf(buf, sizeof buf,
                  "%s\n\"%s\": {\"count\": %lld, \"total_us\": %.3f, "
                  "\"self_us\": %.3f}",
                  first ? "" : ",", name.c_str(),
                  static_cast<long long>(t.count), t.totalUs, t.selfUs);
    out += buf;
    first = false;
  }
  out += "}}\n";
  return out;
}

}  // namespace perfbench
