#include "service/metrics.h"

#include <algorithm>
#include <bit>

#include "simcore/reuse_curve.h"

namespace dr::service {

void appendStatLine(std::string& out, std::string_view name, i64 value) {
  out += name;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

void raiseTo(std::atomic<i64>& slot, i64 value) {
  i64 prev = slot.load(std::memory_order_relaxed);
  while (prev < value && !slot.compare_exchange_weak(
                             prev, value, std::memory_order_relaxed)) {
  }
}

void Metrics::recordEngine(std::uint8_t fidelity,
                           const simcore::FoldedStats& sim) {
  // The curves_* lines follow simcore::Fidelity's order.
  constexpr auto first = static_cast<std::size_t>(Counter::curvesSymbolic);
  static_assert(static_cast<std::size_t>(Counter::curvesAnalytic) - first ==
                static_cast<std::size_t>(simcore::Fidelity::Analytic));
  if (fidelity <= static_cast<std::uint8_t>(simcore::Fidelity::Analytic))
    count(static_cast<Counter>(first + fidelity));
  if (!sim.runGranularity) return;
  count(Counter::runsDecoded, sim.runsDecoded);
  count(Counter::runFastEvents, sim.runFastEvents);
  count(Counter::runFallbackEvents, sim.simulatedEvents - sim.runFastEvents);
}

void LatencyHistogram::record(i64 us) {
  if (us < 0) us = 0;
  // Bucket i collects us with bit_width(us) == i, i.e. [2^(i-1), 2^i).
  int bucket = static_cast<int>(std::bit_width(static_cast<std::uint64_t>(us)));
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  buckets_[static_cast<std::size_t>(bucket)].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  totalUs_.fetch_add(us, std::memory_order_relaxed);
  raiseTo(maxUs_, us);
}

i64 LatencyHistogram::percentileUs(double q) const {
  // Each bucket is read once; under concurrent updates this is a
  // consistent-enough approximation, since the counts only grow.
  std::array<i64, kBuckets> copy;
  i64 total = 0;
  for (std::size_t i = 0; i < copy.size(); ++i) {
    copy[i] = buckets_[i].load(std::memory_order_relaxed);
    total += copy[i];
  }
  const i64 rank = static_cast<i64>(q * static_cast<double>(total - 1));
  i64 seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += copy[static_cast<std::size_t>(i)];
    if (seen > rank) return i == 0 ? 0 : (i64{1} << i) - 1;
  }
  return maxUs_.load(std::memory_order_relaxed);
}

LatencySummary LatencyHistogram::summarize() const {
  LatencySummary lat;
  lat.count = count();
  lat.totalUs = totalUs_.load(std::memory_order_relaxed);
  lat.maxUs = maxUs_.load(std::memory_order_relaxed);
  if (lat.count <= 0) return lat;
  lat.p50Us = std::min(percentileUs(0.50), lat.maxUs);
  lat.p95Us = std::min(percentileUs(0.95), lat.maxUs);
  return lat;
}

MetricsSnapshot Metrics::snapshot() const {
  MetricsSnapshot s;
#define DR_COPY(field, ...) s.field = get(Counter::field);
#define DR_SUMMARIZE(field, prefix) s.field = field.summarize();
  DR_DAEMON_LEDGER(DR_COPY, DR_LEDGER_SKIP, DR_SUMMARIZE)
#undef DR_COPY
#undef DR_SUMMARIZE
  return s;
}

std::string Metrics::render(const MetricsSnapshot& s) {
  std::string out;
  const auto latencyLines = [&out](const std::string& prefix,
                                   const LatencySummary& lat) {
    appendStatLine(out, prefix + "_count", lat.count);
    appendStatLine(out, prefix + "_p50_us", lat.p50Us);
    appendStatLine(out, prefix + "_p95_us", lat.p95Us);
    appendStatLine(out, prefix + "_max_us", lat.maxUs);
    appendStatLine(out, prefix + "_total_us", lat.totalUs);
  };
#define DR_LINE(field, name, ...) appendStatLine(out, name, s.field);
#define DR_LATENCY_LINES(field, prefix) latencyLines(prefix, s.field);
  DR_DAEMON_LEDGER(DR_LINE, DR_LINE, DR_LATENCY_LINES)
#undef DR_LINE
#undef DR_LATENCY_LINES
  return out;
}

}  // namespace dr::service
