// Self-tests of the benchmark harness: percentile refusal, open-loop
// due-time accounting, the rate-ladder search and generator determinism.
// Run with: python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <unordered_set>

#include "loadgen.h"
#include "querygen.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Percentile, ReportsSampleCountAndRefusesThinTails) {
  std::vector<double> v(999);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  Percentile p99 = percentile(v, 0.99);
  EXPECT_EQ(p99.samples, 999);
  EXPECT_FALSE(p99.ok);  // only 9 samples beyond the 99th percentile

  v.push_back(1000.0);
  p99 = percentile(v, 0.99);
  EXPECT_TRUE(p99.ok);
  EXPECT_EQ(p99.samples, 1000);
  EXPECT_DOUBLE_EQ(p99.value, 990.0);

  std::vector<double> few = {3.0, 1.0, 2.0};
  EXPECT_FALSE(percentile(few, 0.5).ok);
  std::vector<double> twenty(20, 7.0);
  Percentile p50 = percentile(twenty, 0.5);
  EXPECT_TRUE(p50.ok);
  EXPECT_DOUBLE_EQ(p50.value, 7.0);
}

TEST(Percentile, WindowedTailIgnoresOneStalledWindow) {
  // Three windows of 1100 samples; one holds a stall of 50 slow samples.
  std::vector<double> v(3300, 1.0);
  for (std::size_t i = 1200; i < 1250; ++i) v[i] = 100.0;
  std::vector<double> all = v;
  EXPECT_DOUBLE_EQ(percentile(all, 0.99).value, 100.0);
  Percentile w = windowedPercentile(v, 0.99, 1100);
  EXPECT_TRUE(w.ok);
  EXPECT_EQ(w.samples, 3300);
  EXPECT_DOUBLE_EQ(w.value, 1.0);
  // A window too small for the quantile is refused, not guessed.
  EXPECT_FALSE(windowedPercentile(v, 0.99, 500).ok);
  // Fewer than two windows: the plain percentile.
  std::vector<double> few(1500, 2.0);
  EXPECT_DOUBLE_EQ(windowedPercentile(few, 0.99, 1100).value, 2.0);
}

TEST(Percentile, MedianOfEvenAndOdd) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(OpenLoop, LatencyCountsFromDueTimeAndReportsLag) {
  // One sender, 20 requests due 1 ms apart, each taking 5 ms: request i
  // goes out about 4*i ms late and its latency includes that wait.
  const std::vector<std::int64_t> due = evenSchedule(1000.0, 20);
  ASSERT_EQ(due[1], 1000000);
  OpenLoopResult r = runOpenLoop(due, 1, 1.0, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return Outcome{true, true, false};
  });
  ASSERT_EQ(r.latencyMs.size(), 20u);
  EXPECT_LT(r.lagMs[0], 2.0);
  for (std::size_t i = 1; i < 20; ++i) {
    EXPECT_GE(r.lagMs[i], 4.0 * static_cast<double>(i) - 0.5);
    EXPECT_GE(r.latencyMs[i], r.lagMs[i] + 5.0 - 0.5);
  }
  EXPECT_TRUE(r.backlogGrowing);
  EXPECT_GE(r.elapsedS, 0.1);

  // With enough senders nothing queues: lag stays small.
  OpenLoopResult fast = runOpenLoop(evenSchedule(200.0, 20), 4, 3.0,
                                    [](std::size_t) { return Outcome{true, true, true}; });
  EXPECT_FALSE(fast.backlogGrowing);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_TRUE(fast.outcomes[i].cached);
}

TEST(Ladder, BisectionFindsTheHighestPassingRung) {
  // Rungs 100 * 1.1^k; p99 stays at 1 ms up to 1000/s, then 50 ms.
  int measured = 0;
  const auto model = [&](double rate) {
    ++measured;
    Rung r;
    r.p99Ok = true;
    r.p99Ms = rate <= 1000.0 ? 1.0 : 50.0;
    return r;
  };
  LadderResult lr = searchLadder(100.0, 1.1, 40, 5.0, model);
  EXPECT_NEAR(lr.maxRate, 100.0 * std::pow(1.1, 24), 1e-6);  // 985/s
  EXPECT_LE(measured, 6);  // ceil(log2(41))
  EXPECT_EQ(lr.rungs.size(), static_cast<std::size_t>(measured));
  for (const Rung& r : lr.rungs) EXPECT_EQ(r.pass, r.rate <= 1000.0);
}

TEST(Ladder, EdgesAndFailureKinds) {
  Rung ok;
  ok.p99Ok = true;
  ok.p99Ms = 1.0;
  // Everything passes: the top rung is the answer.
  LadderResult all = searchLadder(100.0, 2.0, 4, 5.0, [&](double) { return ok; });
  EXPECT_DOUBLE_EQ(all.maxRate, 800.0);
  // Nothing passes: no rate met the limit.
  LadderResult none = searchLadder(100.0, 2.0, 4, 0.5, [&](double) { return ok; });
  EXPECT_DOUBLE_EQ(none.maxRate, 0.0);
  // Failed requests, a growing backlog or an unresolved p99 each fail a
  // rung even when the p99 itself is under the limit.
  const auto failsAbove = [&](double limitRate, int kind) {
    return searchLadder(100.0, 2.0, 4, 5.0, [=](double rate) {
      Rung r = ok;
      if (rate > limitRate) {
        if (kind == 0) r.failedFrac = 0.01;
        if (kind == 1) r.backlogGrowing = true;
        if (kind == 2) r.p99Ok = false;
      }
      return r;
    });
  };
  for (int kind = 0; kind < 3; ++kind)
    EXPECT_DOUBLE_EQ(failsAbove(300.0, kind).maxRate, 200.0) << kind;
}

TEST(Generator, SameSeedSameBytes) {
  std::unordered_set<std::uint64_t> t1, t2, t3;
  const std::vector<Query> a = coldQueries(7, 1, 60, 20, 1, t1);
  const std::vector<Query> b = coldQueries(7, 1, 60, 20, 1, t2);
  EXPECT_EQ(serialize(a), serialize(b));
  const std::vector<Query> c = coldQueries(8, 1, 60, 20, 1, t3);
  EXPECT_NE(serialize(a), serialize(c));
  // Every family appears, Advise every 20th, and no two queries share a
  // cache key.
  std::unordered_set<std::string> fams;
  for (std::size_t i = 0; i < a.size(); ++i) {
    fams.insert(a[i].family);
    EXPECT_EQ(a[i].kind == QueryKind::Advise, (i + 1) % 20 == 0) << i;
  }
  EXPECT_EQ(fams.size(), families().size());
  std::unordered_set<std::uint64_t> keys;
  std::size_t total = 0;
  for (const Query& q : a)
    for (std::uint64_t k : queryKeys(q)) {
      keys.insert(k);
      ++total;
    }
  EXPECT_EQ(keys.size(), total);
}

TEST(Generator, LongerListExtendsShorter) {
  std::unordered_set<std::uint64_t> t1, t2;
  const std::vector<Query> shortList = coldQueries(3, 2, 10, 0, 1, t1);
  const std::vector<Query> longList = coldQueries(3, 2, 30, 0, 1, t2);
  EXPECT_EQ(serialize(shortList),
            serialize({longList.begin(), longList.begin() + 10}));
  std::unordered_set<std::uint64_t> h1, h2;
  EXPECT_EQ(serialize(hotSet(5, 8, 2, 2, h1)), serialize(hotSet(5, 8, 2, 2, h2)));
}

TEST(Generator, ZipfFavoursLowRanks) {
  Zipf z(16, 1.0);
  dr::support::Rng rng(11);
  std::vector<int> hits(16, 0);
  for (int i = 0; i < 20000; ++i) ++hits[static_cast<std::size_t>(z.draw(rng))];
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[1], hits[15]);
  EXPECT_NEAR(static_cast<double>(hits[0]) / hits[1], 2.0, 0.25);
}

}  // namespace
}  // namespace perfbench
