// E14 — Frame-size scaling of the streaming trace pipeline: the QCIF
// motion-estimation curve of Fig. 4a regenerated at 720p, 1080p, 4K and
// 8K without ever materializing the trace. A 1080p Old-frame trace is
// 531M events (4.2 GB at 8 bytes/event); the streaming engine walks it
// in period-sized chunks and folds the steady state, so its peak RSS
// stays at the size of the distinct-element state — orders of magnitude
// below the materialized trace. On top of that sits the symbolic engine
// (analytic/symbolic_hist.h): the whole LRU histogram in closed form,
// O(1) in the trace size — the same milliseconds at 8K as at QCIF —
// cross-checked point by point against the folded LRU run engine. The
// whole curve stage stays as flat: each frame also times one
// explorer::exploreSignalChecked of the New signal, which the symbolic
// rung answers and whose footprints and knees come from closed forms.
// Results land in BENCH_scaling.json.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

#include "analytic/symbolic_curve.h"
#include "explorer/explorer.h"
#include "support/contracts.h"
#include "kernels/motion_estimation.h"
#include "simcore/folded_curve.h"
#include "simcore/lru_stack.h"
#include "simcore/opt_stack.h"
#include "simcore/reuse_curve.h"
#include "trace/period.h"
#include "trace/stream.h"
#include "trace/walker.h"

namespace {

using dr::support::i64;

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

i64 peakRssBytes() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<i64>(ru.ru_maxrss) * 1024;  // Linux reports KiB
}

struct Frame {
  const char* name;
  i64 width;
  i64 height;
  bool materialize;  ///< also run the materialized oracle (small frames)
  bool elementAB;    ///< also run the per-element A/B (too slow at 8K)
};

struct Row {
  std::string name;
  i64 width = 0, height = 0;
  i64 events = 0, distinct = 0, simulatedEvents = 0;
  bool folded = false, exact = false;
  i64 foldPeriodChunks = 0;
  double streamSeconds = 0;  ///< run-granularity engine (the default)
  i64 streamPeakRss = 0;
  i64 materializedBytesBound = 0;  ///< 8 bytes/event trace footprint
  double materializedSeconds = -1;
  i64 materializedPeakRss = -1;
  bool identical = false;  ///< streaming curve == materialized (if run)
  // Run-granularity stats + per-element A/B on the same frame.
  i64 runsDecoded = 0;
  i64 runFastEvents = 0;
  double meanRunLength = 0;  ///< simulated events per decoded run
  double elementSeconds = -1;     ///< -1: A/B not run for this frame
  bool enginesIdentical = false;  ///< run curve == element curve
  // Symbolic engine (closed form, whole Old signal, LRU) vs the folded
  // LRU run engine on the same full read stream.
  double symbolicSeconds = 0;
  i64 symbolicCells = 0;        ///< iteration classes resolved explicitly
  int symbolicBandedLevels = 0;
  double lruRunSeconds = 0;     ///< folded LRU run engine, exact
  bool symbolicIdentical = false;  ///< symbolic curve == folded LRU curve
  // The curve stage end to end: exploreSignalChecked on New.
  double exploreSeconds = 0;
  std::string exploreRung;  ///< fidelity rung that answered it
};

void writeJson(const std::vector<Row>& rows) {
  std::FILE* f = std::fopen("BENCH_scaling.json", "w");
  if (!f) {
    std::printf("(could not open BENCH_scaling.json for writing)\n");
    return;
  }
  std::fprintf(f, "{\n  \"experiment\": \"E14 frame-size scaling\",\n");
  std::fprintf(f, "  \"frames\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"width\": %lld, \"height\": %lld,\n"
                 "     \"events\": %lld, \"distinct\": %lld,\n"
                 "     \"streaming\": {\"seconds\": %.3f, \"peak_rss_bytes\": "
                 "%lld, \"simulated_events\": %lld, \"folded\": %s, "
                 "\"exact\": %s, \"fold_period_chunks\": %lld},\n"
                 "     \"materialized_trace_bytes\": %lld,\n"
                 "     \"mem_ratio_vs_materialized_trace\": %.1f",
                 r.name.c_str(), (long long)r.width, (long long)r.height,
                 (long long)r.events, (long long)r.distinct, r.streamSeconds,
                 (long long)r.streamPeakRss, (long long)r.simulatedEvents,
                 r.folded ? "true" : "false", r.exact ? "true" : "false",
                 (long long)r.foldPeriodChunks,
                 (long long)r.materializedBytesBound,
                 static_cast<double>(r.materializedBytesBound) /
                     static_cast<double>(r.streamPeakRss));
    std::fprintf(f,
                 ",\n     \"run_stats\": {\"runs_decoded\": %lld, "
                 "\"mean_run_length\": %.1f, \"run_fast_events\": %lld",
                 (long long)r.runsDecoded, r.meanRunLength,
                 (long long)r.runFastEvents);
    if (r.elementSeconds >= 0)
      std::fprintf(f,
                   ", \"element_seconds\": %.3f, \"speedup_vs_element\": %.1f, "
                   "\"curve_identical_vs_element\": %s",
                   r.elementSeconds,
                   r.streamSeconds > 0 ? r.elementSeconds / r.streamSeconds
                                       : 0.0,
                   r.enginesIdentical ? "true" : "false");
    std::fprintf(f, "}");
    std::fprintf(f,
                 ",\n     \"symbolic\": {\"seconds\": %.6f, "
                 "\"explicit_cells\": %lld, \"banded_levels\": %d, "
                 "\"lru_fold_seconds\": %.3f, "
                 "\"curve_identical_vs_lru_fold\": %s, "
                 "\"speedup_vs_opt_run\": %.0f}",
                 r.symbolicSeconds, (long long)r.symbolicCells,
                 r.symbolicBandedLevels, r.lruRunSeconds,
                 r.symbolicIdentical ? "true" : "false",
                 r.symbolicSeconds > 0 ? r.streamSeconds / r.symbolicSeconds
                                       : 0.0);
    std::fprintf(f,
                 ",\n     \"explore\": {\"signal\": \"New\", \"seconds\": %.6f, "
                 "\"rung\": \"%s\"}",
                 r.exploreSeconds, r.exploreRung.c_str());
    if (r.materializedSeconds >= 0)
      std::fprintf(f,
                   ",\n     \"materialized\": {\"seconds\": %.3f, "
                   "\"peak_rss_bytes\": %lld, \"curve_identical\": %s}",
                   r.materializedSeconds, (long long)r.materializedPeakRss,
                   r.identical ? "true" : "false");
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("(wrote BENCH_scaling.json)\n");
}

void printFigureData() {
  dr::bench::heading(
      "E14  |  Streaming pipeline scaling: ME Fig. 4a curve from QCIF to 8K");

  // Streaming passes run before any materialized oracle: ru_maxrss is a
  // high-water mark, so the small-footprint runs must come first.
  //
  // Every frame is always in the artifact — DR_BENCH_SMALL only trims the
  // optional extras (per-element A/B, materialized oracle), never rows, so
  // a small-scale regeneration can no longer commit a BENCH_scaling.json
  // missing the 1080p/4K/8K entries.
  std::vector<Frame> frames = {{"qcif", 176, 144, true, true},
                               {"720p", 1280, 720, false, true},
                               {"1080p", 1920, 1080, false, true},
                               {"4k", 3840, 2160, false, true},
                               {"8k", 7680, 4320, false, false}};
  if (dr::bench::smallScale())
    for (Frame& fr : frames) fr.elementAB = fr.materialize;  // qcif only

  std::vector<Row> rows;
  for (const Frame& fr : frames) {
    dr::kernels::MotionEstimationParams mp;
    mp.W = fr.width;
    mp.H = fr.height;
    const auto p = dr::kernels::motionEstimation(mp);
    dr::trace::AddressMap map(p);
    dr::trace::TraceFilter filter;
    filter.signal = p.findSignal("Old");
    filter.nest = 0;
    filter.accessIndex = dr::kernels::oldAccessIndex();

    Row row;
    row.name = fr.name;
    row.width = fr.width;
    row.height = fr.height;

    dr::trace::TraceCursor cursor(p, map, filter);
    const auto pd = dr::trace::detectPeriod(cursor.nests());
    dr::simcore::FoldedCurveOptions opts;
    opts.approximateAfterBudget = true;  // HD frames: trade tail wobble
    opts.maxMeasuredChunks = 4;          // for not streaming 10^9 events
    dr::simcore::FoldedStats stats;

    auto t0 = std::chrono::steady_clock::now();
    const auto hist = dr::simcore::foldedStackHistogram(
        cursor, pd, dr::simcore::Policy::Opt, &stats, opts);
    row.streamSeconds = secondsSince(t0);
    row.streamPeakRss = peakRssBytes();
    row.events = stats.totalEvents;
    row.distinct = stats.distinct;
    row.simulatedEvents = stats.simulatedEvents;
    row.folded = stats.folded;
    row.exact = stats.exact;
    row.foldPeriodChunks = stats.foldPeriodChunks;
    row.materializedBytesBound = stats.totalEvents * 8;
    row.runsDecoded = stats.runsDecoded;
    row.runFastEvents = stats.runFastEvents;
    row.meanRunLength =
        stats.runsDecoded > 0 ? static_cast<double>(stats.simulatedEvents) /
                                    static_cast<double>(stats.runsDecoded)
                              : 0.0;

    // Per-element A/B on the same frame: same options, run path off. Too
    // slow to be part of every row at 8K — gated per frame.
    if (fr.elementAB) {
      dr::trace::TraceCursor elemCursor(p, map, filter);
      dr::simcore::FoldedCurveOptions elemOpts = opts;
      elemOpts.runGranularity = false;
      dr::simcore::FoldedStats elemStats;
      t0 = std::chrono::steady_clock::now();
      const auto elemHist = dr::simcore::foldedStackHistogram(
          elemCursor, pd, dr::simcore::Policy::Opt, &elemStats, elemOpts);
      row.elementSeconds = secondsSince(t0);
      row.enginesIdentical = true;
      for (i64 s : dr::simcore::sizeGrid(row.distinct, 24))
        row.enginesIdentical =
            row.enginesIdentical &&
            hist.resultAt(s).misses == elemHist.resultAt(s).misses;
    }

    // Symbolic engine on the same frame: the whole LRU curve of the Old
    // signal in closed form, cross-checked point by point against the
    // exact folded LRU run engine over the identical full read stream.
    // Best-of-5 timing — the query is milliseconds, noise is comparable.
    dr::trace::TraceFilter lruFilter;
    lruFilter.signal = filter.signal;
    dr::analytic::SymbolicCurveResult sym;
    row.symbolicSeconds = 1e9;
    for (int rep = 0; rep < 5; ++rep) {
      t0 = std::chrono::steady_clock::now();
      auto s = dr::analytic::symbolicReuseCurve(p, lruFilter.signal,
                                                dr::simcore::Policy::Lru);
      const double sec = secondsSince(t0);
      DR_REQUIRE_MSG(s.hasValue(), "ME Old must be covered by closed forms");
      if (sec < row.symbolicSeconds) {
        row.symbolicSeconds = sec;
        sym = std::move(*s);
      }
    }
    row.symbolicCells = sym.detail.explicitCells;
    row.symbolicBandedLevels = sym.detail.bandedLevels;
    dr::trace::TraceCursor lruCursor(p, map, lruFilter);
    const auto lruPd = dr::trace::detectPeriod(lruCursor.nests());
    dr::simcore::FoldedStats lruStats;
    t0 = std::chrono::steady_clock::now();
    const auto lruHist = dr::simcore::foldedStackHistogram(
        lruCursor, lruPd, dr::simcore::Policy::Lru, &lruStats);
    row.lruRunSeconds = secondsSince(t0);
    row.symbolicIdentical = lruStats.exact;
    for (const auto& pt : sym.curve.points)
      row.symbolicIdentical = row.symbolicIdentical &&
                              lruHist.resultAt(pt.size).misses == pt.writes;

    // The curve stage of the OPT-symbolic signal, end to end: symbolic
    // histogram, closed-form footprints and knees. Best of 5.
    const int newSignal = p.findSignal("New");
    row.exploreSeconds = 1e9;
    for (int rep = 0; rep < 5; ++rep) {
      t0 = std::chrono::steady_clock::now();
      auto ex = dr::explorer::exploreSignalChecked(p, newSignal);
      const double sec = secondsSince(t0);
      DR_REQUIRE_MSG(ex.hasValue(), "ME New must explore");
      row.exploreSeconds = std::min(row.exploreSeconds, sec);
      row.exploreRung = dr::simcore::fidelityName(ex->curveFidelity);
    }

    std::printf(
        "%-6s %4lldx%-4lld  %11lld events  %8lld distinct  "
        "run %7.2f s  elem %7.2f s  rss %6.1f MB  %s  "
        "runs %lld (mean len %.0f)  FR_max %.1f\n"
        "       symbolic %7.2f ms (%lld cells, %d banded levels)  "
        "lru fold %6.2f s  %s  %.0fx vs opt run\n"
        "       explore New %7.2f ms (%s)\n",
        fr.name, (long long)fr.width, (long long)fr.height,
        (long long)row.events, (long long)row.distinct, row.streamSeconds,
        row.elementSeconds,
        static_cast<double>(row.streamPeakRss) / (1024.0 * 1024.0),
        row.folded ? (row.exact ? "folded(exact)" : "folded(approx)")
                   : "streamed",
        (long long)row.runsDecoded, row.meanRunLength,
        hist.resultAt(row.distinct).reuseFactor(), row.symbolicSeconds * 1e3,
        (long long)row.symbolicCells, row.symbolicBandedLevels,
        row.lruRunSeconds,
        row.symbolicIdentical ? "identical" : "MISMATCH",
        row.symbolicSeconds > 0 ? row.streamSeconds / row.symbolicSeconds : 0.0,
        row.exploreSeconds * 1e3, row.exploreRung.c_str());
    rows.push_back(row);
  }

  // Materialized oracles run after every streaming pass: ru_maxrss is a
  // process-wide high-water mark, and the whole point of the comparison
  // is that the streaming rows above never paid for a resident trace.
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (!frames[i].materialize) continue;
    Row& row = rows[i];
    dr::kernels::MotionEstimationParams mp;
    mp.W = frames[i].width;
    mp.H = frames[i].height;
    const auto p = dr::kernels::motionEstimation(mp);
    dr::trace::AddressMap map(p);
    dr::trace::TraceFilter filter;
    filter.signal = p.findSignal("Old");
    filter.nest = 0;
    filter.accessIndex = dr::kernels::oldAccessIndex();

    // Byte-identity of the exact (non-approximate) streaming path.
    dr::trace::TraceCursor cursor(p, map, filter);
    const auto pd = dr::trace::detectPeriod(cursor.nests());
    dr::simcore::FoldedStats exactStats;
    const auto exactHist = dr::simcore::foldedStackHistogram(
        cursor, pd, dr::simcore::Policy::Opt, &exactStats);

    auto t0 = std::chrono::steady_clock::now();
    const auto trace = dr::trace::collectTrace(p, map, filter);
    dr::simcore::OptStackDistances stack(trace);
    row.materializedSeconds = secondsSince(t0);
    row.materializedPeakRss = peakRssBytes();
    row.identical = exactStats.exact;
    for (i64 s : dr::simcore::sizeGrid(row.distinct, 24))
      row.identical =
          row.identical && exactHist.resultAt(s).misses == stack.missesAt(s);
    std::printf(
        "%-6s materialized oracle: %7.2f s  rss %6.1f MB  streaming curve "
        "%s\n",
        row.name.c_str(), row.materializedSeconds,
        static_cast<double>(row.materializedPeakRss) / (1024.0 * 1024.0),
        row.identical ? "byte-identical" : "MISMATCH");
  }
  writeJson(rows);
}

void BM_StreamingFoldedCurve(benchmark::State& state) {
  dr::kernels::MotionEstimationParams mp;
  mp.H = 64;
  mp.W = 64;
  mp.n = 8;
  mp.m = 2;
  const auto p = dr::kernels::motionEstimation(mp);
  dr::trace::AddressMap map(p);
  dr::trace::TraceFilter filter;
  filter.signal = p.findSignal("Old");
  filter.nest = 0;
  filter.accessIndex = dr::kernels::oldAccessIndex();
  for (auto _ : state) {
    dr::trace::TraceCursor cursor(p, map, filter);
    const auto pd = dr::trace::detectPeriod(cursor.nests());
    auto hist = dr::simcore::foldedStackHistogram(
        cursor, pd, dr::simcore::Policy::Lru);
    benchmark::DoNotOptimize(hist.saturationSize());
  }
}
BENCHMARK(BM_StreamingFoldedCurve)->Unit(benchmark::kMillisecond);

void BM_MaterializedCurve(benchmark::State& state) {
  dr::kernels::MotionEstimationParams mp;
  mp.H = 64;
  mp.W = 64;
  mp.n = 8;
  mp.m = 2;
  const auto p = dr::kernels::motionEstimation(mp);
  dr::trace::AddressMap map(p);
  dr::trace::TraceFilter filter;
  filter.signal = p.findSignal("Old");
  filter.nest = 0;
  filter.accessIndex = dr::kernels::oldAccessIndex();
  for (auto _ : state) {
    const auto trace = dr::trace::collectTrace(p, map, filter);
    dr::simcore::LruStackDistances stack(trace);
    benchmark::DoNotOptimize(stack.coldMisses());
  }
}
BENCHMARK(BM_MaterializedCurve)->Unit(benchmark::kMillisecond);

}  // namespace

DR_BENCH_MAIN(printFigureData)
