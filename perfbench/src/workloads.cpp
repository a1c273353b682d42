#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "analytic/symbolic_curve.h"
#include "explorer/explorer.h"
#include "frontend/frontend.h"
#include "loadgen.h"
#include "loopir/normalize.h"
#include "partition/advisor.h"
#include "partition/partition.h"
#include "querygen.h"
#include "report/report.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/router.h"
#include "service/server.h"
#include "simcore/folded_curve.h"
#include "simcore/stream_stack.h"
#include "spans.h"
#include "stats.h"
#include "trace/address_map.h"
#include "trace/period.h"
#include "trace/stream.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace proto = dr::service::proto;
using Clock = std::chrono::steady_clock;
using dr::support::mixSeed;
using dr::support::Rng;
using dr::support::StatusCode;

namespace {

// ---- fixed workload settings ---------------------------------------------

/// Load generator threads and client connections: at most the core count
/// of the reference machine, so the numbers measure the program and not
/// the scheduler.
constexpr int kLoadThreads = 4;
constexpr int kSetupRepeats = 5;
/// p99 limit of the capacity ladders. Well above the 5-15 ms stalls the
/// reference VM shows about once a second, so capacity is set by
/// saturation and not by when the next stall lands.
constexpr double kLimitMs = 20.0;
/// Samples a ladder rung needs for its p99 (ten beyond it, with margin).
constexpr double kRungSamples = 1100.0;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool exactRung(std::uint8_t fidelity) {
  return fidelity <= static_cast<std::uint8_t>(dr::simcore::Fidelity::ExactFold);
}

int signalIndex(const dr::loopir::Program& p, const std::string& name) {
  for (std::size_t i = 0; i < p.signals.size(); ++i)
    if (p.signals[i].name == name) return static_cast<int>(i);
  return -1;
}

dr::loopir::Program compileOrThrow(const std::string& kernel) {
  auto compiled = dr::frontend::compileKernelChecked(kernel);
  if (!compiled.hasValue())
    throw std::runtime_error("generated kernel does not compile: " +
                             compiled.status().str());
  return std::move(*compiled);
}

// ---- daemons --------------------------------------------------------------

/// The daemon(s) of one workload, owned in-process.
struct Fleet {
  std::vector<std::unique_ptr<dr::service::Server>> shards;
  std::unique_ptr<dr::service::Router> router;
  std::vector<std::string> shardEndpoints;
  std::string front;  ///< the endpoint clients talk to

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { stop(); }

  void stop() {
    if (router) {
      router->requestShutdown();
      router->wait();
      router.reset();
    }
    for (auto& s : shards) {
      s->requestShutdown();
      s->wait();
    }
    shards.clear();
  }
};

/// Start `shardCount` daemons with fresh, memory-only result caches;
/// with `routed`, on TCP behind a Router, otherwise on a Unix socket
/// under `dir` (which must exist). The warm journal layer stays off: it
/// fsyncs every curve point, and on the reference VM those fsyncs were 6
/// of a cold query's 7 ms and varied fivefold from run to run. Journal
/// cost is measured on its own in the traced run (journal.write_us,
/// journal.replay_us).
std::unique_ptr<Fleet> startFleet(const std::string& dir, int shardCount,
                                  int workers, bool routed) {
  auto fleet = std::make_unique<Fleet>();
  for (int i = 0; i < shardCount; ++i) {
    dr::service::ServerOptions so;
    so.endpoint =
        routed ? "127.0.0.1:0" : dir + "/d" + std::to_string(i) + ".sock";
    so.workers = workers;
    auto server = std::make_unique<dr::service::Server>(so);
    if (dr::support::Status st = server->start(); !st.isOk())
      throw std::runtime_error("daemon did not start: " + st.str());
    fleet->shardEndpoints.push_back(
        dr::service::transport::toString(server->boundEndpoint()));
    fleet->shards.push_back(std::move(server));
  }
  fleet->front = fleet->shardEndpoints.front();
  if (routed) {
    dr::service::RouterOptions ro;
    ro.listen = "127.0.0.1:0";
    ro.shards = fleet->shardEndpoints;
    ro.workers = kLoadThreads;
    fleet->router = std::make_unique<dr::service::Router>(std::move(ro));
    if (dr::support::Status st = fleet->router->start(); !st.isOk())
      throw std::runtime_error("router did not start: " + st.str());
    fleet->front =
        dr::service::transport::toString(fleet->router->boundEndpoint());
  }
  return fleet;
}

dr::service::ClientOptions clientOptions(const std::string& endpoint) {
  dr::service::ClientOptions co;
  co.endpoint = endpoint;
  co.recvTimeoutMs = 20000;
  return co;
}

using StatMap = std::map<std::string, std::int64_t>;

/// The daemon's `stats` verb, parsed ("name value" per line).
StatMap statsVerb(const std::string& endpoint) {
  dr::service::Client c(clientOptions(endpoint));
  auto r = c.call(proto::Verb::Stats, "");
  if (!r.hasValue() || r->code != StatusCode::Ok)
    throw std::runtime_error("stats verb failed on " + endpoint);
  StatMap m;
  std::istringstream in(r->body);
  std::string name;
  std::int64_t v = 0;
  while (in >> name >> v) m[name] = v;
  return m;
}

/// Stats summed over every shard. High-water marks and percentiles do not
/// add up: for them the slowest shard's value is taken.
StatMap fleetStats(const Fleet& f) {
  const auto perShardPeak = [](const std::string& k) {
    for (const char* tag : {"hwm", "_p50_", "_p95_", "_p99_", "_max_"})
      if (k.find(tag) != std::string::npos) return true;
    return false;
  };
  StatMap sum;
  for (const std::string& ep : f.shardEndpoints)
    for (const auto& [k, v] : statsVerb(ep))
      sum[k] = perShardPeak(k) ? std::max(sum[k], v) : sum[k] + v;
  return sum;
}

StatMap delta(const StatMap& after, const StatMap& before) {
  StatMap d;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    d[k] = v - (it == before.end() ? 0 : it->second);
  }
  return d;
}

// ---- replies and the correctness gate -------------------------------------

/// The canonical bytes of a reply that the gate compares: the curve or
/// advisor CSV plus its headline numbers.
std::string exploreKey(const std::string& csv, std::int64_t ctot,
                       std::int64_t distinct) {
  return csv + "|Ctot=" + std::to_string(ctot) +
         "|distinct=" + std::to_string(distinct);
}

std::string adviseKey(const std::string& csv, std::int64_t baseline,
                      std::int64_t partitioned) {
  return csv + "|baseline=" + std::to_string(baseline) +
         "|partitioned=" + std::to_string(partitioned);
}

/// Distinct exact reply bodies seen per query, kept for the gate.
class ReplyLog {
 public:
  void add(std::size_t qid, std::string key) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string>& seen = bodies_[qid];
    for (const std::string& s : seen)
      if (s == key) return;
    seen.push_back(std::move(key));
  }
  std::unordered_map<std::size_t, std::vector<std::string>> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(bodies_);
  }

 private:
  std::mutex mutex_;
  std::unordered_map<std::size_t, std::vector<std::string>> bodies_;
};

/// One query over the client; exact replies go to `log` under `qid`.
Outcome sendQuery(dr::service::Client& c, const Query& q, std::size_t qid,
                  ReplyLog* log) {
  Outcome o;
  if (q.kind == QueryKind::Explore) {
    proto::ExploreRequest req;
    req.kernel = q.kernel;
    req.signal = q.signal;
    auto r = c.explore(req);
    if (!r.hasValue() || r->code != StatusCode::Ok) return o;
    auto body = proto::decodeExploreResult(r->body);
    if (!body.hasValue()) return o;
    o.ok = true;
    o.exact = exactRung(body->fidelity);
    o.cached = body->cached;
    if (o.exact && log)
      log->add(qid, exploreKey(body->csv, body->Ctot, body->distinctElements));
    return o;
  }
  proto::AdviseRequest req;
  req.kernel = q.kernel;
  req.mode = q.mode;
  req.capacity = q.capacity;
  req.ways = q.ways;
  auto r = c.advise(req);
  if (!r.hasValue() || r->code != StatusCode::Ok) return o;
  auto body = proto::decodeAdviseResult(r->body);
  if (!body.hasValue()) return o;
  o.ok = true;
  o.exact = exactRung(body->fidelity);
  o.cached = body->cached;
  if (o.exact && log)
    log->add(qid, adviseKey(body->csv, body->baselineMisses,
                            body->partitionedMisses));
  return o;
}

/// Reference answer, never from the path under test: an Explore is
/// recomputed with SimEngine::Materialized (collect the trace, then
/// simulate), an Advise with a cold adviseKernelChecked.
std::string referenceKey(const Query& q) {
  const dr::loopir::Program p = compileOrThrow(q.kernel);
  if (q.kind == QueryKind::Explore) {
    dr::explorer::ExploreOptions o;
    o.engine = dr::explorer::SimEngine::Materialized;
    auto ex = dr::explorer::exploreSignalChecked(p, signalIndex(p, q.signal), o);
    if (!ex.hasValue()) return "reference failed: " + ex.status().str();
    return exploreKey(dr::report::curveCsv(ex->signalName, ex->simulatedCurve),
                      ex->Ctot, ex->distinctElements);
  }
  dr::partition::AdvisorOptions a;
  a.solve.mode = static_cast<dr::partition::Mode>(q.mode);
  a.solve.capacity = q.capacity;
  a.solve.ways = q.ways;
  auto rep = dr::partition::adviseKernelChecked(p, a);
  if (!rep.hasValue()) return "reference failed: " + rep.status().str();
  return adviseKey(dr::report::advisorCsv(*rep), rep->result.baselineMisses,
                   rep->result.partitionedMisses);
}

/// Run `fn(i)` for i in [0, n) on `threads` threads.
void parallelIndex(std::size_t n, int threads,
                   const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  for (std::thread& t : pool) t.join();
}

/// Reference answers, computed once per query and reused across phases.
class References {
 public:
  explicit References(const std::vector<Query>& table) : table_(table) {}

  /// Compute the references of `qids` not yet known (in parallel).
  void ensure(const std::vector<std::size_t>& qids) {
    std::vector<std::size_t> todo;
    for (std::size_t q : qids)
      if (!refs_.count(q)) todo.push_back(q);
    std::vector<std::string> keys(todo.size());
    parallelIndex(todo.size(), kLoadThreads,
                  [&](std::size_t i) { keys[i] = referenceKey(table_[todo[i]]); });
    for (std::size_t i = 0; i < todo.size(); ++i) refs_[todo[i]] = keys[i];
  }

  const std::string& at(std::size_t q) const { return refs_.at(q); }

 private:
  const std::vector<Query>& table_;
  std::unordered_map<std::size_t, std::string> refs_;
};

/// Compare every logged exact reply byte for byte with its reference.
/// Returns the number of reply bodies compared; mismatches go to `res`.
std::int64_t verifyReplies(ReplyLog& log, References& refs,
                           const std::vector<Query>& table, RunResult& res) {
  auto bodies = log.take();
  std::vector<std::size_t> qids;
  for (const auto& [q, b] : bodies) qids.push_back(q);
  refs.ensure(qids);
  std::int64_t compared = 0;
  for (const auto& [q, seen] : bodies)
    for (const std::string& body : seen) {
      ++compared;
      if (body != refs.at(q)) {
        res.correct = false;
        const Query& query = table[q];
        res.problems.push_back("reply differs from reference: " +
                               query.family + " signal '" + query.signal +
                               "' (query " + std::to_string(q) + ")");
      }
    }
  return compared;
}

// ---- phase accounting ----------------------------------------------------

/// Latencies and outcomes of one timed phase.
struct Phase {
  std::vector<double> latencyMs;        ///< every request; failed = +inf
  std::vector<double> adviseLatencyMs;  ///< ok Advise replies
  std::vector<double> lagMs;
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::int64_t exact = 0;
  std::int64_t cached = 0;
  double elapsedS = 0.0;

  void add(const Query& q, const Outcome& o, double latMs, double lag) {
    ++attempted;
    lagMs.push_back(lag);
    if (!o.ok) {
      latencyMs.push_back(std::numeric_limits<double>::infinity());
      return;
    }
    ++ok;
    exact += o.exact ? 1 : 0;
    cached += o.cached ? 1 : 0;
    latencyMs.push_back(latMs);
    if (q.kind == QueryKind::Advise) adviseLatencyMs.push_back(latMs);
  }
};

/// A percentile as the median over windows of the fewest consecutive
/// requests that resolve it (eleven samples beyond q; see
/// windowedPercentile), or — when too few samples lie beyond it — the
/// maximum, with a note on stderr.
double tail(const std::vector<double>& v, double q, const char* what) {
  const auto window = static_cast<std::size_t>(std::ceil(11.0 / (1.0 - q)));
  const Percentile p = windowedPercentile(v, q, window);
  if (p.ok) return p.value;
  std::fprintf(stderr, "perfbench: %s: %lld samples, too few for p%g; "
               "reporting the maximum\n", what,
               static_cast<long long>(p.samples), q * 100);
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

const char* clientSpanName(const Query& q) {
  return q.kind == QueryKind::Explore ? "client.explore" : "client.advise";
}

/// Closed loop: one client sends queries[from..] in order until
/// `seconds` pass or the list ends. Returns the index one past the last
/// query sent.
std::size_t closedLoop(dr::service::Client& c, const std::vector<Query>& table,
                       std::size_t from, double seconds, ReplyLog& log,
                       Phase& ph, SpanRecorder& spans) {
  const Clock::time_point t0 = Clock::now();
  std::size_t i = from;
  for (; i < table.size() && secondsSince(t0) < seconds; ++i) {
    const Clock::time_point s = Clock::now();
    Outcome o;
    {
      ScopedSpan span(spans, clientSpanName(table[i]), 0, i + 1);
      o = sendQuery(c, table[i], i, &log);
    }
    ph.add(table[i], o, secondsSince(s) * 1e3, 0.0);
  }
  ph.elapsedS = secondsSince(t0);
  if (i == table.size())
    std::fprintf(stderr, "perfbench: the cold list ran out after %.1f s\n",
                 ph.elapsedS);
  return i;
}

/// Open loop over `plan` (query indices) with due times `due`.
void openLoop(dr::service::Client& c, const std::vector<Query>& table,
              const std::vector<std::size_t>& plan,
              const std::vector<std::int64_t>& due, double backlogLimitMs,
              ReplyLog& log, Phase& ph, SpanRecorder& spans,
              bool* backlogGrowing = nullptr) {
  OpenLoopResult r = runOpenLoop(due, kLoadThreads, backlogLimitMs,
                                 [&](std::size_t i) {
    const std::size_t q = plan[i];
    ScopedSpan span(spans, clientSpanName(table[q]), 0, i + 1);
    return sendQuery(c, table[q], q, &log);
  });
  for (std::size_t i = 0; i < plan.size(); ++i)
    ph.add(table[plan[i]], r.outcomes[i], r.latencyMs[i], r.lagMs[i]);
  ph.elapsedS = r.elapsedS;
  if (backlogGrowing) *backlogGrowing = r.backlogGrowing;
}

/// Capacity: bisection over a 4% geometric ladder spanning 0.3x to 3x
/// of `probe`, each rung a fresh plan from `planFor(count)` long enough
/// for three windows of a resolved p99.
double capacityLadder(
    dr::service::Client& c, const std::vector<Query>& table, double probe,
    ReplyLog& log,
    const std::function<std::vector<std::size_t>(std::size_t)>& planFor,
    RunResult& res) {
  LadderResult lr = searchLadder(0.3 * probe, 1.04, 60, kLimitMs, [&](double rate) {
    Rung rung;
    const auto count = static_cast<std::size_t>(
        std::max(3 * kRungSamples, rate * 0.4));
    const std::vector<std::size_t> plan = planFor(count);
    Phase ph;
    SpanRecorder off(false);
    openLoop(c, table, plan, evenSchedule(rate, plan.size()), kLimitMs, log, ph,
             off, &rung.backlogGrowing);
    const Percentile p = windowedPercentile(
        ph.latencyMs, 0.99, static_cast<std::size_t>(kRungSamples));
    rung.p99Ok = p.ok;
    rung.p99Ms = p.value;
    rung.failedFrac =
        static_cast<double>(ph.attempted - ph.ok) / static_cast<double>(ph.attempted);
    res.attempted += ph.attempted;
    std::fprintf(stderr, "perfbench:   rung %.0f/s: p99 %.3f ms%s%s\n", rate,
                 p.value, rung.backlogGrowing ? ", backlog" : "",
                 rung.failedFrac > 0 ? ", failures" : "");
    return rung;
  });
  if (lr.maxRate <= 0.0)
    std::fprintf(stderr, "perfbench: capacity ladder: no rung passed\n");
  return lr.maxRate;
}

/// Rate four back-to-back clients reach on `plan` — what the capacity
/// ladder scales to.
double probeRate(dr::service::Client& c, const std::vector<Query>& table,
                 const std::vector<std::size_t>& plan, ReplyLog& log) {
  const Clock::time_point t0 = Clock::now();
  parallelIndex(plan.size(), kLoadThreads, [&](std::size_t i) {
    sendQuery(c, table[plan[i]], plan[i], &log);
  });
  return static_cast<double>(plan.size()) / secondsSince(t0);
}

// ---- the layer replay of the traced run -----------------------------------

/// What the replay of a sample adds up, per pass.
struct ReplayTally {
  double exploreUs = 0, componentUs = 0, foldEvents = 0, foldUs = 0;
  std::int64_t explores = 0, accepted = 0, rejected = 0, certified = 0;
  std::vector<double> simEvents, traceEvents, runsDecoded, chains;
};

/// Per-layer figures from calling each layer's public functions, under
/// spans, on a sample of the workload's own queries. Each query's calls
/// are children of one "replay.query" span, whose self time is the
/// harness's own work between them. Every query is replayed twice, once
/// with the span recorder and once without (in alternating order), and
/// the time the recorder adds is bench.trace_overhead_frac. The journal
/// calls are left out of that comparison (and run on the traced pass
/// only): their fsyncs take milliseconds and vary more than the recorder
/// costs.
struct LayerReplay {
  SpanRecorder& traced;
  const std::string dir;
  std::map<std::string, double> out;
  SpanRecorder* spans = nullptr;  ///< the current pass's recorder
  std::int64_t parent = 0;        ///< the current query's root span

  double medianOf(const char* name) const {
    return median(traced.durationsUs(name));
  }

  double usSince(std::int64_t t0Ns) const {
    return static_cast<double>(traced.nowNs() - t0Ns) * 1e-3;
  }

  void run(const std::vector<Query>& sample) {
    fs::create_directories(dir);
    SpanRecorder off(false);
    ReplayTally t, discarded;
    double tracedUs = 0, plainUs = 0;
    for (std::size_t i = 0; i < sample.size(); ++i)
      for (int pass = 0; pass < 2; ++pass) {
        const bool withSpans = (pass == 0) == (i % 2 == 0);
        spans = withSpans ? &traced : &off;
        (withSpans ? tracedUs : plainUs) +=
            replayQuery(sample[i], i + 1, withSpans ? t : discarded, withSpans);
      }
    const auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out["bench.trace_overhead_frac"] = frac(tracedUs - plainUs, plainUs);
    out["frontend.compile_us"] = medianOf("frontend.compile");
    out["explorer.config_hash_us"] = medianOf("explorer.config_hash");
    out["explorer.explore_us"] = medianOf("explorer.explore");
    out["explorer.nosim_us"] = medianOf("explorer.nosim");
    out["explorer.unattributed_frac"] = 1.0 - frac(t.componentUs, t.exploreUs);
    out["hierarchy.chains_enumerated"] = median(t.chains);
    out["analytic.symbolic_us"] = medianOf("analytic.symbolic");
    out["analytic.symbolic_accept_frac"] =
        frac(static_cast<double>(t.accepted), static_cast<double>(t.explores));
    out["trace.detect_period_us"] = medianOf("trace.detect_period");
    out["trace.events"] = median(t.traceEvents);
    out["trace.runs_decoded"] = median(t.runsDecoded);
    out["simcore.fold_us"] = medianOf("simcore.fold");
    out["simcore.simulated_events"] = median(t.simEvents);
    out["simcore.events_per_us"] = frac(t.foldEvents, t.foldUs);
    out["simcore.fold_certified_frac"] =
        frac(static_cast<double>(t.certified), static_cast<double>(t.rejected));
    out["report.curve_csv_us"] = medianOf("report.curve_csv");
    out["protocol.roundtrip_us"] = medianOf("protocol.roundtrip");
    out["cache.lookup_us"] = medianOf("cache.lookup");
    out["journal.write_us"] = medianOf("journal.write");
    out["journal.replay_us"] = medianOf("journal.replay");
    out["partition.solve_us"] = medianOf("partition.solve");
  }

  /// Replay one query; returns the time (us) spent outside the journal.
  double replayQuery(const Query& q, std::uint64_t rid, ReplayTally& t,
                     bool journal) {
    const std::int64_t q0 = traced.nowNs();
    ScopedSpan root(*spans, "replay.query", 0, rid);
    parent = root.id();
    std::optional<dr::loopir::Program> prog;
    {
      ScopedSpan s(*spans, "frontend.compile", parent, rid);
      auto c = dr::frontend::compileKernelChecked(q.kernel);
      if (c.hasValue()) prog = std::move(*c);
    }
    if (!prog) return usSince(q0);
    const dr::loopir::Program& p = *prog;
    if (q.kind == QueryKind::Advise) {
      replaySolve(p, q, rid);
      return usSince(q0);
    }
    const int sig = signalIndex(p, q.signal);
    const dr::explorer::ExploreOptions opts;
    std::uint64_t hash = 0;
    {
      ScopedSpan s(*spans, "explorer.config_hash", parent, rid);
      hash = dr::explorer::exploreConfigHash(p, sig, opts);
    }
    // The whole exploration, then its components called one by one.
    const std::int64_t t0 = traced.nowNs();
    dr::support::Expected<dr::explorer::SignalExploration> ex =
        dr::support::Status::error(StatusCode::Internal, "not run");
    {
      ScopedSpan s(*spans, "explorer.explore", parent, rid);
      ex = dr::explorer::exploreSignalChecked(p, sig, opts);
    }
    const double wholeUs = usSince(t0);
    if (!ex.hasValue()) return usSince(q0);
    ++t.explores;
    t.exploreUs += wholeUs;
    t.chains.push_back(static_cast<double>(ex->chains.size()));
    const dr::loopir::Program pn = dr::loopir::normalized(p);
    const dr::trace::AddressMap map(pn);
    dr::trace::TraceFilter filter;
    filter.signal = sig;
    const std::int64_t c0 = traced.nowNs();
    bool acceptedHere = false;
    {
      ScopedSpan s(*spans, "analytic.symbolic", parent, rid);
      acceptedHere = dr::analytic::symbolicReuseCurve(
                         p, sig, dr::simcore::Policy::Opt)
                         .hasValue();
    }
    if (acceptedHere) {
      ++t.accepted;
    } else {
      ++t.rejected;
      dr::trace::TraceCursor cursor(pn, map, filter);
      dr::trace::PeriodInfo period;
      {
        ScopedSpan s(*spans, "trace.detect_period", parent, rid);
        period = dr::trace::detectPeriod(cursor.nests());
      }
      dr::simcore::FoldedStats st;
      const std::int64_t f0 = traced.nowNs();
      {
        ScopedSpan s(*spans, "simcore.fold", parent, rid);
        (void)dr::simcore::foldedStackHistogram(
            cursor, period, dr::simcore::Policy::Opt, &st, {});
      }
      t.foldUs += usSince(f0);
      t.foldEvents += static_cast<double>(st.simulatedEvents);
      t.simEvents.push_back(static_cast<double>(st.simulatedEvents));
      t.traceEvents.push_back(static_cast<double>(st.totalEvents));
      t.runsDecoded.push_back(static_cast<double>(st.runsDecoded));
      t.certified += st.folded && st.exact ? 1 : 0;
    }
    {
      dr::explorer::ExploreOptions nosim;
      nosim.runSimulation = false;
      ScopedSpan s(*spans, "explorer.nosim", parent, rid);
      (void)dr::explorer::exploreSignalChecked(p, sig, nosim);
    }
    // Without simulation the explorer counts the distinct elements in a
    // densifying pass of its own, which the full exploration does not
    // make (the stack engine counts them there). That pass, repeated
    // here, is taken out of the components.
    const std::int64_t d0 = traced.nowNs();
    {
      ScopedSpan s(*spans, "trace.densify", parent, rid);
      dr::trace::TraceCursor cursor(pn, map, filter);
      const auto [lo, hi] = cursor.addressRange();
      dr::simcore::StreamingDensifier densifier(lo, hi);
      std::vector<std::int64_t> buf;
      while (cursor.nextChunk(buf) > 0)
        for (std::int64_t addr : buf) densifier.idOf(addr);
    }
    const double densifyUs = usSince(d0);
    t.componentUs += usSince(c0) - 2 * densifyUs;
    std::string csv;
    {
      ScopedSpan s(*spans, "report.curve_csv", parent, rid);
      csv = dr::report::curveCsv(ex->signalName, ex->simulatedCurve);
    }
    replayProtocol(q, csv, *ex, rid);
    replayCache(hash, p, sig, rid);
    const double us = usSince(q0);
    if (journal) replayJournal(p, sig, hash, rid);
    return us;
  }

  /// Request and reply through encode, frame, parse and decode.
  void replayProtocol(const Query& q, const std::string& csv,
                      const dr::explorer::SignalExploration& ex,
                      std::uint64_t rid) {
    ScopedSpan s(*spans, "protocol.roundtrip", parent, rid);
    proto::ExploreRequest req;
    req.kernel = q.kernel;
    req.signal = q.signal;
    const std::string f1 = proto::encodeFrame(proto::Verb::Explore,
                                              proto::encodeExploreRequest(req));
    proto::FrameParse p1 = proto::tryParseFrame(f1);
    auto back = proto::decodeExploreRequest(p1.frame.payload);
    proto::ExploreResult body;
    body.Ctot = ex.Ctot;
    body.distinctElements = ex.distinctElements;
    body.csv = csv;
    proto::Reply reply;
    reply.body = proto::encodeExploreResult(body);
    const std::string f2 =
        proto::encodeFrame(proto::Verb::Reply, proto::encodeReply(reply));
    proto::FrameParse p2 = proto::tryParseFrame(f2);
    auto r = proto::decodeReply(p2.frame.payload);
    if (!back.hasValue() || !r.hasValue() ||
        !proto::decodeExploreResult(r->body).hasValue())
      throw std::runtime_error("protocol round trip failed");
  }

  /// getOrCompute on an entry already resident in memory (of a fresh
  /// cache, so both passes of a query do the same work).
  void replayCache(std::uint64_t hash, const dr::loopir::Program& p, int sig,
                   std::uint64_t rid) {
    dr::service::ResultCache cache({});
    const dr::explorer::ExploreOptions opts;
    (void)cache.getOrCompute(hash, p, sig, opts);
    ScopedSpan s(*spans, "cache.lookup", parent, rid);
    (void)cache.getOrCompute(hash, p, sig, opts);
  }

  /// exploreSignalChecked over a complete journal (zero recomputation).
  void replayJournal(const dr::loopir::Program& p, int sig, std::uint64_t hash,
                     std::uint64_t rid) {
    const std::string path = dr::service::warmJournalPath(dir, hash);
    const dr::explorer::ExploreOptions opts;
    {
      ScopedSpan s(*spans, "journal.write", parent, rid);
      (void)dr::explorer::exploreSignalChecked(p, sig, opts, {path, false, 1});
    }
    ScopedSpan s(*spans, "journal.replay", parent, rid);
    (void)dr::explorer::exploreSignalChecked(p, sig, opts, {path, true, 1});
  }

  /// solvePartition over the kernel's explored curves.
  void replaySolve(const dr::loopir::Program& p, const Query& q,
                   std::uint64_t rid) {
    std::vector<dr::partition::ObjectCurve> objects;
    for (int sig : dr::partition::readSignals(p)) {
      auto ex = dr::explorer::exploreSignalChecked(p, sig, {});
      if (!ex.hasValue()) return;
      objects.push_back(dr::partition::objectCurveFromExploration(*ex));
    }
    dr::partition::SolveOptions so;
    so.mode = static_cast<dr::partition::Mode>(q.mode);
    so.capacity = q.capacity;
    so.ways = q.ways;
    if (!dr::partition::validateSolveInputs(objects, so).isOk()) return;
    ScopedSpan s(*spans, "partition.solve", parent, rid);
    (void)dr::partition::solvePartition(objects, so);
  }
};

/// Median round trip (us) of `n` calls of `fn`.
double medianRttUs(int n, const std::function<void()>& fn) {
  std::vector<double> us;
  for (int i = 0; i < n; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    us.push_back(secondsSince(t0) * 1e6);
  }
  return median(us);
}

/// Routed p50 minus direct-shard p50 on one hot Explore. For a workload
/// without a router, a temporary one is put in front of its daemon.
double routerHopUs(const Fleet& fleet, const Query& q) {
  std::unique_ptr<dr::service::Router> temp;
  std::string routed = fleet.front;
  std::string direct = fleet.shardEndpoints.front();
  if (fleet.router) {
    const dr::loopir::Program p = compileOrThrow(q.kernel);
    const std::uint64_t h =
        dr::explorer::exploreConfigHash(p, signalIndex(p, q.signal), {});
    direct = fleet.shardEndpoints[static_cast<std::size_t>(
        fleet.router->ring().primary(h))];
  } else {
    dr::service::RouterOptions ro;
    ro.listen = "127.0.0.1:0";
    ro.shards = {direct};
    ro.workers = 1;
    ro.hedge = false;
    temp = std::make_unique<dr::service::Router>(std::move(ro));
    if (!temp->start().isOk()) return 0.0;
    routed = dr::service::transport::toString(temp->boundEndpoint());
  }
  dr::service::Client viaRouter(clientOptions(routed));
  dr::service::Client viaShard(clientOptions(direct));
  const auto once = [&](dr::service::Client& c) { sendQuery(c, q, 0, nullptr); };
  once(viaRouter);
  const double r = medianRttUs(200, [&] { once(viaRouter); });
  const double d = medianRttUs(200, [&] { once(viaShard); });
  if (temp) {
    temp->requestShutdown();
    temp->wait();
  }
  return r - d;
}

// ---- workload definitions --------------------------------------------------

// Offered load. Capacity measured on the reference machine (4 vCPUs) as
// the highest capacity-ladder rung with p99 under kLimitMs, median of five
// traced runs: 32,100 requests/s on the warm_hits hot set, 14,050/s on the
// routed hot path. Each open loop offers a quarter of its capacity: busy,
// yet well below the knee, so the p50 is the per-request cost and not
// queueing.
constexpr double kWarmRate = 8000.0;
constexpr double kRoutedRate = 3500.0;
// Hot set: 48 explores, six of each of the eight kernel families, plus 8
// Advise over them; set-up computes it in about 0.3 s. Routed hits are
// Zipf(1) over the explores, the usual model of cache request popularity.
constexpr int kHotExplores = 48;
constexpr int kHotAdvises = 8;
// Routed shares. Cold misses cost about 4 ms each (cold_explore's mean),
// so 2% of 3500/s keeps the two shards' four workers under a tenth busy
// with them. Duplicate pairs and Advise are sized for resolution: per
// 20 s run, about 350 concurrent pairs for singleflight.join_frac and
// 1400 Advise replies for advise_latency_p50_ms.
constexpr double kColdShare = 0.02;
constexpr double kDuplicateShare = 0.005;
constexpr double kAdviseShare = 0.02;

/// What differs between the workloads; the run skeleton is shared.
struct Workload {
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  std::vector<Query> table;  ///< every query the run may send
  std::vector<std::size_t> hot;  ///< hot-set indices (warmed in set-up)
  int shards = 1;
  int workers = 4;
  bool routed = false;
  bool closed = false;  ///< closed loop (cold) instead of open loop
  bool ladder = false;  ///< the traced run measures capacity
  double rate = 0.0;    ///< open-loop offered rate, requests per second
  std::size_t nextCold = 0;  ///< next unused cold query (closed loop)
  /// Open-loop plan of `count` requests (indices into table).
  std::function<std::vector<std::size_t>(std::size_t count)> plan;
};

void makeWorkload(Workload& w, const std::string& name, std::uint64_t seed,
                  double seconds) {
  std::unordered_set<std::uint64_t> taken;
  if (name == "cold_explore") {
    w.closed = true;
    w.table = coldQueries(seed, 1, 10000, 10, 1, taken);
    // Set-up starts the daemon and has it compute and verify the list's
    // fixed first query (the anchor); the closed loop sends the rest.
    w.hot = {0};
    w.nextCold = 1;
    return;
  }
  const bool routed = name == "routed_mix";
  if (!routed && name != "warm_hits")
    throw std::runtime_error("unknown workload '" + name + "'");
  w.routed = routed;
  w.shards = routed ? 2 : 1;
  w.workers = 2;
  w.table = hotSet(seed, kHotExplores, kHotAdvises, 1, taken);
  for (std::size_t i = 0; i < w.table.size(); ++i) w.hot.push_back(i);
  std::vector<std::size_t> hotExplores, hotAdvises;
  for (std::size_t i : w.hot)
    (w.table[i].kind == QueryKind::Explore ? hotExplores : hotAdvises).push_back(i);
  auto rng = std::make_shared<Rng>(mixSeed(seed, 0x91a4));
  if (!routed) {
    w.rate = kWarmRate;
    w.ladder = true;
    w.plan = [rng, hot = w.hot](std::size_t count) {
      std::vector<std::size_t> plan(count);
      for (std::size_t& q : plan)
        q = hot[static_cast<std::size_t>(
            rng->uniform(0, static_cast<std::int64_t>(hot.size()) - 1))];
      return plan;
    };
    return;
  }
  // routed_mix: Zipf hot explores, Advise with fresh capacities (curves
  // cached, the solve runs), distinct cold misses and duplicate pairs.
  w.rate = kRoutedRate;
  const auto coldCount = static_cast<int>(
      w.rate * seconds * (kColdShare + kDuplicateShare) * 1.25 + 50);
  const std::vector<Query> cold = coldQueries(seed, 2, coldCount, 0, 1, taken);
  auto nextColdQ = std::make_shared<std::size_t>(w.table.size());
  w.table.insert(w.table.end(), cold.begin(), cold.end());
  const std::size_t coldEnd = w.table.size();
  auto zipf = std::make_shared<Zipf>(static_cast<int>(hotExplores.size()), 1.0);
  auto table = &w.table;
  w.plan = [=](std::size_t count) {
    std::vector<std::size_t> plan;
    plan.reserve(count);
    while (plan.size() < count) {
      const double u = rng->uniform01();
      const bool coldLeft = *nextColdQ < coldEnd;
      if (u < kAdviseShare) {
        // An Advise over a hot kernel at a capacity not asked before.
        Query q = (*table)[hotAdvises[static_cast<std::size_t>(rng->uniform(
            0, static_cast<std::int64_t>(hotAdvises.size()) - 1))]];
        q.capacity = rng->uniform(16, 4096);
        table->push_back(std::move(q));
        plan.push_back(table->size() - 1);
      } else if (u < kAdviseShare + kColdShare && coldLeft) {
        plan.push_back((*nextColdQ)++);
      } else if (u < kAdviseShare + kColdShare + kDuplicateShare && coldLeft) {
        plan.push_back(*nextColdQ);  // the same cold query twice at once
        plan.push_back((*nextColdQ)++);
      } else {
        plan.push_back(hotExplores[static_cast<std::size_t>(zipf->draw(*rng))]);
      }
    }
    plan.resize(count);
    return plan;
  };
}

/// Open-loop due times for `plan`: evenly spaced at `rate`, except that
/// a repeated query right after itself shares its predecessor's due
/// time (a concurrent duplicate).
std::vector<std::int64_t> dueTimes(const std::vector<std::size_t>& plan,
                                   double rate) {
  std::vector<std::int64_t> due = evenSchedule(rate, plan.size());
  for (std::size_t i = 1; i < plan.size(); ++i)
    if (plan[i] == plan[i - 1]) due[i] = due[i - 1];
  return due;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> kNames = {"cold_explore", "warm_hits",
                                                  "routed_mix"};
  return kNames;
}

RunResult runWorkload(const RunConfig& cfg) {
  RunResult res;
  Workload w;  // its plans point into it, so it is filled in place
  makeWorkload(w, cfg.workload, cfg.seed, cfg.seconds);
  const std::string base = cfg.workdir + "/" + cfg.workload;
  References refs(w.table);
  ReplyLog log;

  // ---- set-up: start the daemon(s), warm and verify the hot set ----
  std::vector<double> setupS;
  const auto setUp = [&](int rep) {
    // A fresh scratch directory, made outside the timing: on the
    // reference VM's overlay file system, removing and making one
    // sometimes took 50 ms, more than a bare daemon start.
    const std::string dir = base + "-" + std::to_string(rep);
    fs::remove_all(dir);
    fs::create_directories(dir);
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Fleet> f = startFleet(dir, w.shards, w.workers, w.routed);
    dr::service::Client c(clientOptions(f->front));
    if (!c.call(proto::Verb::Health, "").hasValue())
      throw std::runtime_error("daemon does not answer Health");
    // Compute the hot set, then serve it from the cache: both passes must
    // agree byte for byte. The gate compares them with the reference
    // after the timed window, so no oracle memory lands in peak_rss_mb.
    ReplyLog warm;
    for (int pass = 0; pass < 2; ++pass)
      for (std::size_t q : w.hot)
        if (!sendQuery(c, w.table[q], q, &warm).ok)
          throw std::runtime_error("hot query failed in set-up: " +
                                   w.table[q].family);
    for (auto& [q, bodies] : warm.take()) {
      if (bodies.size() != 1) {
        res.correct = false;
        res.problems.push_back("cached reply differs from computed one: " +
                               w.table[q].family);
      }
      for (std::string& b : bodies) log.add(q, std::move(b));
    }
    setupS.push_back(secondsSince(t0));
    return f;
  };
  std::unique_ptr<Fleet> fleet = setUp(0);

  dr::service::Client client(clientOptions(fleet->front));
  SpanRecorder spans(cfg.trace);

  // ---- the timed window (shorter when traced, to leave time for the
  // capacity ladder and the layer replay) ----
  const StatMap shardBefore = fleetStats(*fleet);
  const dr::service::RouterStats routerBefore =
      fleet->router ? fleet->router->stats() : dr::service::RouterStats{};
  const dr::service::ClientStats clientBefore = client.stats();
  const double seconds = cfg.trace ? cfg.seconds * 0.6 : cfg.seconds;
  Phase main;
  if (w.closed) {
    w.nextCold = closedLoop(client, w.table, w.nextCold, seconds, log, main, spans);
  } else {
    const std::vector<std::size_t> plan =
        w.plan(static_cast<std::size_t>(w.rate * seconds));
    openLoop(client, w.table, plan, dueTimes(plan, w.rate), kLimitMs, log, main,
             spans);
  }
  const StatMap shardAfter = fleetStats(*fleet);
  StatMap d = delta(shardAfter, shardBefore);
  const double rssMb = peakRssMb();
  double maxQps = 0.0;
  if (cfg.trace && w.ladder) {
    // Capacity ladder, scaled to what four back-to-back clients reach.
    const std::vector<std::size_t> probePlan = w.plan(2000);
    const double probe = probeRate(client, w.table, probePlan, log);
    std::fprintf(stderr, "perfbench: probe %.0f/s\n", probe);
    maxQps = capacityLadder(client, w.table, probe, log, w.plan, res);
  }
  res.attempted += main.attempted;
  res.failed += main.attempted - main.ok;

  // ---- workload integrity from stats deltas ----
  const auto problem = [&](const std::string& what) {
    res.correct = false;
    res.problems.push_back("integrity: " + what);
  };
  if (cfg.workload == "warm_hits" && d["simulations"] != 0)
    problem("warm_hits ran " + std::to_string(d["simulations"]) + " simulations");
  if (cfg.workload == "cold_explore" &&
      (d["cache_hits"] + d["cache_warm_hits"] != 0 || d["inflight_joins"] != 0))
    problem("cold_explore saw " + std::to_string(d["cache_hits"]) +
            " cache hits and " + std::to_string(d["inflight_joins"]) + " joins");

  // The remaining set-up repeats run after the window, so the window's
  // daemons and memory are those of one set-up only.
  if (!cfg.trace) {
    fleet->stop();
    for (int rep = 1; rep < kSetupRepeats; ++rep) setUp(rep)->stop();
  }

  // ---- correctness gate, outside the timed window ----
  const std::int64_t compared = verifyReplies(log, refs, w.table, res);
  std::fprintf(stderr, "perfbench: %s: %lld replies compared with the reference, "
               "%zu problem(s)\n", cfg.workload.c_str(),
               static_cast<long long>(compared), res.problems.size());

  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double okD = static_cast<double>(main.ok);
  if (!cfg.trace) {
    res.metrics = {
        {"setup_s", median(setupS), "s"},
        {"queries_per_s", okD / main.elapsedS, "1/s"},
        {"latency_p50_ms", tail(main.latencyMs, 0.5, "latency"), "ms"},
        {"advise_latency_p50_ms", tail(main.adviseLatencyMs, 0.5, "advise latency"), "ms"},
        {"ok_frac", ratio(okD, static_cast<double>(main.attempted)), "ratio"},
        {"exact_frac", ratio(static_cast<double>(main.exact), okD), "ratio"},
    };
    return res;
  }

  // ---- traced run: per-layer metrics ----
  std::map<std::string, double> m;
  const double explores = static_cast<double>(d["explore_requests"]);
  const double admitted = static_cast<double>(d["connections_accepted"]);
  const double lookups = static_cast<double>(
      d["cache_hits"] + d["cache_warm_hits"] + d["cache_misses"]);
  m["admission.shed_frac"] =
      ratio(static_cast<double>(d["overload_replies"]), admitted);
  m["admission.tightened_frac"] =
      ratio(static_cast<double>(d["deadlines_tightened"]), explores);
  m["admission.queue_depth_hwm"] =
      static_cast<double>(shardAfter.at("queue_depth_hwm"));
  m["singleflight.join_frac"] =
      ratio(static_cast<double>(d["inflight_joins"]), explores);
  m["cache.hit_frac"] =
      ratio(static_cast<double>(d["cache_hits"] + d["cache_warm_hits"]), lookups);
  m["cache.served_frac"] = ratio(static_cast<double>(main.cached), okD);
  // The stats verb keeps no histogram buckets, so the p50 is the slowest
  // shard's over its lifetime up to the end of the window (the window's
  // requests outnumber set-up's by hundreds to one); the mean is the
  // window's own.
  m["server.explore_p50_us"] =
      static_cast<double>(shardAfter.at("explore_latency_p50_us"));
  m["server.explore_mean_us"] = ratio(
      static_cast<double>(d["explore_latency_total_us"]),
      static_cast<double>(d["explore_latency_count"]));
  m["client.retries"] =
      static_cast<double>(client.stats().retries - clientBefore.retries);
  if (fleet->router) {
    const dr::service::RouterStats rs = fleet->router->stats();
    const double fwd = static_cast<double>(rs.exploreRequests - routerBefore.exploreRequests);
    const double hedges = static_cast<double>(rs.hedgesLaunched - routerBefore.hedgesLaunched);
    m["router.hedge_frac"] = ratio(hedges, fwd);
    m["router.hedge_win_frac"] =
        ratio(static_cast<double>(rs.hedgesWon - routerBefore.hedgesWon), hedges);
    m["router.failovers"] = static_cast<double>(rs.failovers - routerBefore.failovers);
  } else {
    m["router.hedge_frac"] = 0.0;
    m["router.hedge_win_frac"] = 0.0;
    m["router.failovers"] = 0.0;
  }
  m["bench.generator_lag_ms"] =
      w.closed ? 0.0 : tail(main.lagMs, 0.99, "generator lag");
  // Tails and memory: on the reference VM they varied too much from run
  // to run to bound (see BENCHMARK.json).
  m["bench.latency_p95_ms"] = tail(main.latencyMs, 0.95, "latency");
  m["bench.latency_p99_ms"] = tail(main.latencyMs, 0.99, "latency");
  m["bench.peak_rss_mb"] = rssMb;
  m["bench.max_qps_at_p99_limit"] = maxQps;
  m["bench.failed_frac"] = ratio(static_cast<double>(main.attempted - main.ok),
                                 static_cast<double>(main.attempted));
  m["bench.degraded_frac"] = ratio(okD - static_cast<double>(main.exact), okD);

  // Client, transport and server without cache or compute: Health.
  {
    dr::service::Client hc(clientOptions(fleet->front));
    m["client.health_rtt_us"] = medianRttUs(200, [&] {
      ScopedSpan s(spans, "client.health");
      (void)hc.call(proto::Verb::Health, "");
    });
  }
  const std::size_t hotExplore = w.hot.empty() ? 0 : w.hot.front();
  m["router.hop_us"] = routerHopUs(*fleet, w.table[hotExplore]);

  // Layer replay over a sample of this workload's own queries.
  std::vector<Query> sample;
  int sampledExplores = 0, sampledAdvises = 0;
  for (const Query& q : w.table) {
    int& n = q.kind == QueryKind::Explore ? sampledExplores : sampledAdvises;
    if (n < (q.kind == QueryKind::Explore ? 40 : 8)) {
      sample.push_back(q);
      ++n;
    }
  }
  LayerReplay replay{spans, base + "-replay", {}};
  replay.run(sample);
  m.insert(replay.out.begin(), replay.out.end());

  fleet->stop();
  std::ofstream(base + "-trace.json") << spans.toJson();
  for (const auto& [name, v] : m) {
    std::string unit = "count";
    const auto ends = [&](const char* suf) {
      const std::string s(suf);
      return name.size() > s.size() &&
             name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (ends("_per_us")) unit = "1/us";
    else if (ends("_qps_at_p99_limit")) unit = "1/s";
    else if (ends("_mb")) unit = "MB";
    else if (ends("_us")) unit = "us";
    else if (ends("_ms")) unit = "ms";
    else if (ends("_frac")) unit = "ratio";
    res.metrics.push_back({name, v, unit});
  }
  return res;
}

}  // namespace perfbench
