#include "report/report.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>

#include "report/ascii_plot.h"
#include "support/dataset.h"
#include "support/strings.h"

namespace dr::report {

using dr::explorer::SignalExploration;
using dr::support::fmtDouble;
using dr::support::i64;

namespace {

std::string num(i64 v) { return std::to_string(v); }

template <typename Row>
void subsampled(const std::vector<Row>& rows, std::size_t maxRows,
                const std::function<void(const Row&)>& emit) {
  std::size_t stride = rows.size() > maxRows ? (rows.size() + maxRows - 1) / maxRows : 1;
  for (std::size_t i = 0; i < rows.size(); ++i)
    if (i % stride == 0 || i + 1 == rows.size()) emit(rows[i]);
}

}  // namespace

std::string signalReport(const loopir::Program& program,
                         const SignalExploration& ex,
                         const ReportOptions& options) {
  std::string s;
  s += "# Data reuse exploration: signal `" + ex.signalName + "` of `" +
       program.name + "`\n\n";
  s += "* reads C_tot: " + num(ex.Ctot) + "\n";
  s += "* distinct elements: " + num(ex.distinctElements) + "\n";
  if (!ex.simulatedCurve.points.empty()) {
    s += std::string("* curve fidelity: ") +
         simcore::fidelityName(ex.curveFidelity);
    if (ex.simulationStats.trippedBy != dr::support::BudgetTrip::None)
      s += std::string(" (budget tripped: ") +
           dr::support::budgetTripName(ex.simulationStats.trippedBy) + ")";
    s += "\n";
  }
  s += "* maximum reuse factor: " +
       fmtDouble(static_cast<double>(ex.Ctot) /
                     static_cast<double>(std::max<i64>(1, ex.distinctElements)),
                 2) +
       "\n\n";

  s += "## Analytic copy-candidate points\n\n";
  if (ex.combinedPoints.empty()) {
    s += "(the pair model finds no reuse at any loop level)\n\n";
  } else {
    s += "| point | size (words) | F_R | bypassed reads |\n";
    s += "|---|---|---|---|\n";
    subsampled<dr::analytic::AnalyticPoint>(
        ex.combinedPoints, options.maxTableRows,
        [&s](const dr::analytic::AnalyticPoint& pt) {
          s += "| " + pt.label + " | " + num(pt.size) + " | " +
               fmtDouble(pt.FR, 3) + " | " + num(pt.CtotBypassTotal) +
               " |\n";
        });
    s += "\n";
  }

  if (!ex.accesses.empty() && !ex.accesses.front().multiLevel.empty()) {
    s += "## Closed-form multi-level footprints (first access)\n\n";
    s += "| loop level | footprint | background transfers | F_R |\n";
    s += "|---|---|---|---|\n";
    for (const auto& pt : ex.accesses.front().multiLevel)
      s += "| L" + num(pt.level) + " | " + num(pt.size) + " | " +
           num(pt.misses) + " | " + fmtDouble(pt.FR.toDouble(), 2) +
           (pt.exact ? "" : " (approx.)") + " |\n";
    s += "\n";
  }

  if (options.includePlots && !ex.simulatedCurve.points.empty()) {
    s += "## Reuse factor vs copy size (Belady `.`, analytic `o`)\n\n```\n";
    Series sim;
    sim.mark = '.';
    sim.name = std::string("Belady-optimal simulation [") +
               simcore::fidelityName(ex.curveFidelity) + "]";
    for (const auto& pt : ex.simulatedCurve.points)
      sim.points.emplace_back(static_cast<double>(pt.size), pt.reuseFactor);
    Series ana;
    ana.mark = 'o';
    ana.name = "analytic points";
    for (const auto& pt : ex.combinedPoints)
      ana.points.emplace_back(static_cast<double>(pt.size), pt.FR);
    PlotOptions popts;
    popts.logX = true;
    s += asciiPlot({sim, ana}, popts);
    s += "```\n\n";
  }

  if (options.includeChainTable && !ex.pareto.empty()) {
    s += "## Pareto-optimal hierarchies (power normalized to "
         "no-hierarchy)\n\n";
    s += "| on-chip words | normalized power | design |\n";
    s += "|---|---|---|\n";
    subsampled<dr::hierarchy::ChainDesign>(
        ex.pareto, options.maxTableRows,
        [&s](const dr::hierarchy::ChainDesign& d) {
          s += "| " + num(d.cost.onChipSize) + " | " +
               fmtDouble(d.cost.normalizedPower, 4) + " | " + d.label +
               " |\n";
        });
    s += "\n";
    if (options.includePlots) {
      s += "## Power vs on-chip size (Pareto front)\n\n```\n";
      Series front;
      front.mark = '*';
      front.name = "Pareto front";
      for (const auto& d : ex.pareto)
        front.points.emplace_back(
            std::max(1.0, static_cast<double>(d.cost.onChipSize)),
            d.cost.normalizedPower);
      PlotOptions popts;
      popts.logX = true;
      s += asciiPlot({front}, popts);
      s += "```\n";
    }
  }
  return s;
}

std::string curveCsv(const std::string& signalName,
                     const simcore::ReuseCurve& curve) {
  dr::support::DataSet ds("reuse curve: " + signalName,
                          {"size", "writes", "reads", "reuse_factor"});
  for (const auto& pt : curve.points)
    ds.addRow({static_cast<double>(pt.size), static_cast<double>(pt.writes),
               static_cast<double>(pt.reads), pt.reuseFactor});
  return ds.toCsv();
}

namespace {

/// Minimal JSON string escaping (quotes, backslash, control bytes).
std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Per-object predicted reduction; 0 when the baseline never missed.
double reductionPct(i64 baseline, i64 partitioned) {
  if (baseline <= 0 || partitioned >= baseline) return 0.0;
  return 100.0 * static_cast<double>(baseline - partitioned) /
         static_cast<double>(baseline);
}

}  // namespace

std::string advisorTable(const partition::AdvisorReport& report) {
  const partition::PartitionResult& r = report.result;
  std::vector<std::pair<std::string, std::string>> rows;
  rows.emplace_back("kernel", report.kernel);
  rows.emplace_back("placement", partition::modeName(r.mode));
  rows.emplace_back("objects", num(static_cast<i64>(r.allocations.size())));
  rows.emplace_back("capacity [elems]", num(r.capacity));
  if (r.mode == partition::Mode::WayPartition) {
    rows.emplace_back("nways", num(r.ways));
    rows.emplace_back("way size [elems]", num(r.waySizeElems));
  }
  rows.emplace_back("fidelity", simcore::fidelityName(report.worstFidelity));
  rows.emplace_back("solver",
                    r.exact ? "exact" : "greedy (fallback)");
  rows.emplace_back("misses part", num(r.partitionedMisses));
  rows.emplace_back("misses nopart", num(r.baselineMisses));
  rows.emplace_back("reduction [%]",
                    fmtDouble(r.reductionPercent, 6));
  std::size_t label = 0, value = 0;
  for (const auto& [k, v] : rows) {
    label = std::max(label, k.size());
    value = std::max(value, v.size());
  }
  const std::string rule(label + value + 2, '=');
  std::string out = rule + "\n";
  for (const auto& [k, v] : rows) {
    out += k;
    out += std::string(label + value + 2 - k.size() - v.size(), ' ');
    out += v + "\n";
  }
  for (const partition::Allocation& a : r.allocations) {
    const partition::ObjectCurve& obj =
        report.objects[static_cast<std::size_t>(a.object)];
    if (r.mode == partition::Mode::WayPartition) {
      if (a.ways <= 0) continue;
      out += "    " + report.kernel + ": grant object \"" + obj.name +
             "\" " + num(a.ways) + "/" + num(r.ways) + " ways (" +
             num(a.capacityElems) + " elems)\n";
    } else {
      if (!a.pinned) continue;
      out += "    " + report.kernel + ": pin object \"" + obj.name +
             "\" (" + num(a.capacityElems) + " elems)\n";
    }
  }
  out += rule + "\n";
  return out;
}

std::string advisorCsv(const partition::AdvisorReport& report) {
  const partition::PartitionResult& r = report.result;
  std::string out =
      "object,ctot,distinct,fidelity,ways,pinned,capacity_elems,"
      "misses_nopart,misses_part,reduction_pct\n";
  i64 ctot = 0, distinct = 0, ways = 0, pinned = 0, granted = 0;
  for (const partition::Allocation& a : r.allocations) {
    const partition::ObjectCurve& obj =
        report.objects[static_cast<std::size_t>(a.object)];
    ctot += obj.Ctot;
    distinct += obj.distinctElements;
    ways += a.ways;
    pinned += a.pinned ? 1 : 0;
    granted += a.capacityElems;
    out += obj.name + "," + num(obj.Ctot) + "," +
           num(obj.distinctElements) + "," +
           simcore::fidelityName(obj.fidelity) + "," + num(a.ways) + "," +
           (a.pinned ? "1" : "0") + "," + num(a.capacityElems) + "," +
           num(a.baselineMisses) + "," + num(a.misses) + "," +
           fmtDouble(reductionPct(a.baselineMisses, a.misses), 6) + "\n";
  }
  out += std::string("TOTAL,") + num(ctot) + "," + num(distinct) + "," +
         simcore::fidelityName(report.worstFidelity) + "," + num(ways) +
         "," + num(pinned) + "," + num(granted) + "," +
         num(r.baselineMisses) + "," + num(r.partitionedMisses) + "," +
         fmtDouble(r.reductionPercent, 6) + "\n";
  return out;
}

std::string advisorJson(const partition::AdvisorReport& report) {
  const partition::PartitionResult& r = report.result;
  std::string out = "{\n";
  out += "  \"kernel\": \"" + jsonEscape(report.kernel) + "\",\n";
  out += std::string("  \"mode\": \"") + partition::modeName(r.mode) +
         "\",\n";
  out += "  \"capacity\": " + num(r.capacity) + ",\n";
  if (r.mode == partition::Mode::WayPartition) {
    out += "  \"ways\": " + num(r.ways) + ",\n";
    out += "  \"way_size\": " + num(r.waySizeElems) + ",\n";
  }
  out += std::string("  \"fidelity\": \"") +
         simcore::fidelityName(report.worstFidelity) + "\",\n";
  out += std::string("  \"exact\": ") + (r.exact ? "true" : "false") +
         ",\n";
  out += std::string("  \"used_fallback\": ") +
         (r.usedFallback ? "true" : "false") + ",\n";
  out += "  \"misses_nopart\": " + num(r.baselineMisses) + ",\n";
  out += "  \"misses_part\": " + num(r.partitionedMisses) + ",\n";
  out += "  \"reduction_pct\": " + fmtDouble(r.reductionPercent, 6) +
         ",\n";
  out += "  \"objects\": [\n";
  for (std::size_t i = 0; i < r.allocations.size(); ++i) {
    const partition::Allocation& a = r.allocations[i];
    const partition::ObjectCurve& obj =
        report.objects[static_cast<std::size_t>(a.object)];
    out += "    {\"name\": \"" + jsonEscape(obj.name) + "\", ";
    out += "\"ctot\": " + num(obj.Ctot) + ", ";
    out += "\"distinct\": " + num(obj.distinctElements) + ", ";
    out += std::string("\"fidelity\": \"") +
           simcore::fidelityName(obj.fidelity) + "\", ";
    out += "\"ways\": " + num(a.ways) + ", ";
    out += std::string("\"pinned\": ") + (a.pinned ? "true" : "false") +
           ", ";
    out += "\"capacity_elems\": " + num(a.capacityElems) + ", ";
    out += "\"misses_nopart\": " + num(a.baselineMisses) + ", ";
    out += "\"misses_part\": " + num(a.misses) + "}";
    out += i + 1 < r.allocations.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string signalCurvesCsv(
    const std::vector<explorer::SignalExploration>& explorations) {
  std::string out = "signal,fidelity,size,writes,reads,reuse_factor\n";
  for (const explorer::SignalExploration& e : explorations) {
    for (const simcore::ReusePoint& pt : e.simulatedCurve.points) {
      out += e.signalName + "," + simcore::fidelityName(pt.fidelity) + "," +
             fmtDouble(static_cast<double>(pt.size), 6) + "," +
             fmtDouble(static_cast<double>(pt.writes), 6) + "," +
             fmtDouble(static_cast<double>(pt.reads), 6) + "," +
             fmtDouble(pt.reuseFactor, 6) + "\n";
    }
  }
  return out;
}

std::string signalCurvesJson(
    const std::vector<explorer::SignalExploration>& explorations) {
  std::string out = "{\n  \"signals\": [\n";
  for (std::size_t s = 0; s < explorations.size(); ++s) {
    const explorer::SignalExploration& e = explorations[s];
    out += "    {\"name\": \"" + jsonEscape(e.signalName) + "\", ";
    out += "\"ctot\": " + num(e.Ctot) + ", ";
    out += "\"distinct\": " + num(e.distinctElements) + ", ";
    out += std::string("\"fidelity\": \"") +
           simcore::fidelityName(e.curveFidelity) + "\",\n";
    out += "     \"curve\": [";
    const auto& pts = e.simulatedCurve.points;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (i > 0) out += ", ";
      out += "[" + num(pts[i].size) + ", " + num(pts[i].writes) + ", " +
             num(pts[i].reads) + "]";
    }
    out += "]}";
    out += s + 1 < explorations.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string metricsReport(const service::MetricsSnapshot& s) {
  std::string out = "# Exploration service metrics\n\n";
  out += "| counter | value |\n|---|---|\n";
  const auto row = [&out](const char* name, i64 v) {
    out += std::string("| ") + name + " | " + num(v) + " |\n";
  };
  row("connections accepted", s.connectionsAccepted);
  row("connections dropped", s.connectionsDropped);
  row("requests", s.requests);
  row("explore requests", s.exploreRequests);
  row("stats requests", s.statsRequests);
  row("shutdown requests", s.shutdownRequests);
  row("health requests", s.healthRequests);
  row("protocol errors", s.protocolErrors);
  row("explore errors", s.exploreErrors);
  row("degraded replies", s.degradedReplies);
  row("in-flight joins", s.inflightJoins);
  row("simulations", s.simulations);
  const i64 overloadEvents = s.shedQueueFull + s.shedQueueWait +
                             s.overloadReplies + s.expiredRequests +
                             s.queueDepthHighWater;
  if (overloadEvents > 0) {
    out += "\n## Overload ladder\n\n";
    out += "| counter | value |\n|---|---|\n";
    row("admission queue high-water mark", s.queueDepthHighWater);
    row("shed: queue full", s.shedQueueFull);
    row("shed: accept deadline", s.shedQueueWait);
    row("overload (Unavailable) replies", s.overloadReplies);
    row("expired in queue (rejected)", s.expiredRequests);
  }
  const i64 engineRuns = s.curvesSymbolic + s.curvesExactStream +
                         s.curvesExactFold + s.curvesApproxFold +
                         s.curvesAnalytic;
  if (engineRuns > 0) {
    out += "\n## Engine mix (leader computations)\n\n";
    out += "| fidelity rung | curves |\n|---|---|\n";
    row("symbolic (closed form)", s.curvesSymbolic);
    row("exact (streamed)", s.curvesExactStream);
    row("exact (certified fold)", s.curvesExactFold);
    row("approximate fold", s.curvesApproxFold);
    row("analytic (degraded)", s.curvesAnalytic);
    if (s.runsDecoded > 0) {
      out += "\nrun-granularity engine: " + num(s.runsDecoded) +
             " runs decoded, " + num(s.runFastEvents) +
             " events absorbed in closed form, " +
             num(s.runFallbackEvents) +
             " events fell back to per-element pushes\n";
    }
  }
  out += "\n## Result cache\n\n";
  out += "| counter | value |\n|---|---|\n";
  row("hits (memory)", s.cacheHits);
  row("hits (warm journal)", s.warmHits);
  row("misses", s.cacheMisses);
  row("evictions", s.cacheEvictions);
  row("entries", s.cacheEntries);
  row("bytes", s.cacheBytes);
  row("byte budget", s.cacheMaxBytes);
  row("warm journal write failures", s.cacheJournalFailures);
  const i64 lookups = s.cacheHits + s.warmHits + s.cacheMisses;
  if (lookups > 0)
    out += "\nhit rate: " +
           fmtDouble(static_cast<double>(s.cacheHits + s.warmHits) /
                         static_cast<double>(lookups),
                     3) +
           " over " + num(lookups) + " lookups\n";
  if (s.adviseRequests > 0) {
    out += "\n## Partitioning advisor\n\n";
    out += "| counter | value |\n|---|---|\n";
    row("advise requests", s.adviseRequests);
    row("advise errors", s.adviseErrors);
    row("advise cache hits", s.adviseCacheHits);
    row("solver greedy fallbacks", s.adviseFallbacks);
    const service::LatencySummary& solve = s.adviseSolveLatency;
    if (solve.count > 0) {
      row("solve count", solve.count);
      row("solve p50 (us, bucket bound)", solve.p50Us);
      row("solve p95 (us, bucket bound)", solve.p95Us);
      row("solve max (us)", solve.maxUs);
    }
  }
  const service::LatencySummary& lat = s.exploreLatency;
  if (lat.count > 0) {
    out += "\n## Explore latency (end to end)\n\n";
    out += "| stat | value |\n|---|---|\n";
    row("count", lat.count);
    row("p50 (us, bucket bound)", lat.p50Us);
    row("p95 (us, bucket bound)", lat.p95Us);
    row("max (us)", lat.maxUs);
    row("mean (us)", lat.totalUs / lat.count);
  }
  return out;
}

}  // namespace dr::report
