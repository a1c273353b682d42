#include "loadgen.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

OpenLoopResult runOpenLoop(const std::vector<std::int64_t>& dueNs, int threads,
                           double backlogLimitMs,
                           const std::function<Outcome(std::size_t)>& send) {
  const std::size_t n = dueNs.size();
  OpenLoopResult r;
  r.latencyMs.assign(n, 0.0);
  r.lagMs.assign(n, 0.0);
  r.outcomes.assign(n, Outcome{});
  std::atomic<std::size_t> next{0};
  std::atomic<std::int64_t> lastEndNs{0};
  const Clock::time_point t0 = Clock::now();
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      const Clock::time_point due = t0 + std::chrono::nanoseconds(dueNs[i]);
      std::this_thread::sleep_until(due);
      const Clock::time_point start = Clock::now();
      r.outcomes[i] = send(i);
      const Clock::time_point end = Clock::now();
      r.lagMs[i] = std::chrono::duration<double, std::milli>(start - due).count();
      r.latencyMs[i] = std::chrono::duration<double, std::milli>(end - due).count();
      const std::int64_t endNs =
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - t0).count();
      std::int64_t prev = lastEndNs.load(std::memory_order_relaxed);
      while (prev < endNs && !lastEndNs.compare_exchange_weak(prev, endNs)) {
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  r.elapsedS = static_cast<double>(lastEndNs.load()) * 1e-9;
  if (n >= 10) {
    std::vector<double> tail(r.lagMs.end() - static_cast<std::ptrdiff_t>(n / 10),
                             r.lagMs.end());
    r.backlogGrowing = median(tail) > backlogLimitMs;
  }
  return r;
}

std::vector<std::int64_t> evenSchedule(double rate, std::size_t count) {
  std::vector<std::int64_t> due(count);
  for (std::size_t i = 0; i < count; ++i)
    due[i] = static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate);
  return due;
}

LadderResult searchLadder(double lowRate, double ratio, int rungs,
                          double limitMs,
                          const std::function<Rung(double rate)>& measure) {
  LadderResult out;
  int lo = -1;     // highest rung known to pass
  int hi = rungs;  // lowest rung known to fail
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    const double rate = lowRate * std::pow(ratio, mid);
    Rung r = measure(rate);
    r.rate = rate;
    r.pass = r.p99Ok && r.p99Ms <= limitMs && !r.backlogGrowing &&
             r.failedFrac == 0.0;
    out.rungs.push_back(r);
    (r.pass ? lo : hi) = mid;
  }
  out.maxRate = lo >= 0 ? lowRate * std::pow(ratio, lo) : 0.0;
  return out;
}

}  // namespace perfbench
