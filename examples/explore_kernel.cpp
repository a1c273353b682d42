// Generic exploration tool — the library equivalent of the paper's
// prototype ("the tool will be extended in the future for automatic input
// parameter extraction and transformation of the source code"; this tool
// does both: it parses a kernel file and can emit the transformed code).
//
//   $ ./examples/explore_kernel --kernel path/to/kernel.krn
//                               [--signal NAME] [--no-sim] [--emit-code]
//                               [--report] [--orderings BUDGET]
//                               [--journal PATH] [--no-resume]
//                               [--cache-dir DIR]
//                               [--deadline-ms N] [--curve-out PATH]
//                               [--hist-out PATH]
//                               [--engine run|element|streaming|symbolic]
//
// Without --kernel it runs on a built-in 2-D convolution example. The
// kernel language grammar is documented in src/frontend/parser.h.
// --journal makes the curve durable: a completed exact curve is written
// once as one CRC-checksummed record (temp file, fsync, rename), and a
// rerun with the same flags replays it instead of recomputing; a torn or
// corrupt file restarts clean and is overwritten, and a degraded run
// writes nothing. --no-resume ignores an existing file and recomputes.
// --cache-dir DIR is the content-addressed flavour of the same
// mechanism: the journal lands at DIR/<config-hash>.journal — the exact
// warm-cache files the exploration daemon (datareuse_serve) reads and
// writes — so reruns and daemon queries with the same kernel + options
// reuse each other's results. --deadline-ms bounds the run with a
// RunBudget (degrading, not failing, on expiry) and --curve-out writes
// the simulated curve as CSV. --hist-out writes every explored signal's
// curve into one document — CSV (long format, a `signal` column ahead of
// the curve columns) or, with a .json extension, JSON — the partitioning
// advisor's input surface for external tools. --engine picks the
// simulation engine:
// `run` (default, Auto) upgrades to the closed-form symbolic engine when
// its preconditions hold and otherwise simulates decoded constant-stride
// runs, `element` forces one event at a time, `streaming` forces the
// streaming pipeline (no symbolic upgrade), and `symbolic` requires the
// closed forms (failing on uncovered signals) — byte-identical curves in
// every case, kept for A/B debugging and the CI symbolic-diff check.

#include <chrono>
#include <cstdio>
#include <sstream>

#include "analytic/pair_analysis.h"
#include "codegen/templates.h"
#include "explorer/explorer.h"
#include "frontend/frontend.h"
#include "kernels/conv2d.h"
#include "loopir/printer.h"
#include "report/report.h"
#include "service/cache.h"
#include "support/budget.h"
#include "support/cli.h"
#include "support/dataset.h"
#include "support/strings.h"

namespace {

struct JournalCli {
  std::string path;       ///< empty = unjournaled run
  std::string cacheDir;   ///< --cache-dir: journal at DIR/<hash>.journal
  bool resume = true;     ///< false with --no-resume
  std::string curveOut;   ///< --curve-out CSV path (empty = none)
};

/// Run the exploration, journaled when asked to; prints the one-line
/// resume summary for journaled runs. Returns false on a Status failure
/// (already printed to stderr).
bool exploreForSignal(const dr::loopir::Program& p, int signal,
                      const dr::explorer::ExploreOptions& opts,
                      const JournalCli& journalIn,
                      dr::explorer::SignalExploration& out) {
  JournalCli journal = journalIn;
  if (journal.path.empty() && !journal.cacheDir.empty()) {
    // Content-addressed journal: the daemon's warm-cache file for this
    // exact request, so CLI runs and daemon queries share one warm layer.
    if (auto st = dr::service::ensureWarmDir(journal.cacheDir); !st.isOk()) {
      std::fprintf(stderr, "%s\n", st.str().c_str());
      return false;
    }
    journal.path = dr::service::warmJournalPath(
        journal.cacheDir, dr::explorer::exploreConfigHash(p, signal, opts));
  }
  if (journal.path.empty()) {
    auto ex = dr::explorer::exploreSignalChecked(p, signal, opts);
    if (!ex.hasValue()) {
      std::fprintf(stderr, "%s\n", ex.status().str().c_str());
      return false;
    }
    out = std::move(*ex);
    return true;
  }
  dr::explorer::ResumeContext ctx;
  ctx.journalPath = journal.path;
  ctx.resume = journal.resume;
  dr::explorer::ResumeSummary summary;
  auto ex = dr::explorer::exploreSignalChecked(p, signal, opts, ctx,
                                               &summary);
  if (!ex.hasValue()) {
    std::fprintf(stderr, "%s\n", ex.status().str().c_str());
    return false;
  }
  std::ostringstream line;
  line << "journal " << journal.path << ": " << summary.pointsReused
       << " point(s) reused, " << summary.pointsRecomputed
       << " recomputed";
  if (summary.restarted)
    line << " (restarted clean: " << summary.restartReason << ")";
  std::printf("%s\n", line.str().c_str());
  out = std::move(*ex);
  return true;
}

/// The simulated curve as a CSV DataSet — the artifact the CI
/// kill/resume smoke test diffs between an interrupted-then-resumed run
/// and a clean one.
bool writeCurveCsv(const dr::explorer::SignalExploration& ex,
                   const std::string& path) {
  auto st = dr::support::DataSet::writeFileStatus(
      path, dr::report::curveCsv(ex.signalName, ex.simulatedCurve));
  if (!st.isOk()) {
    std::fprintf(stderr, "%s\n", st.str().c_str());
    return false;
  }
  return true;
}

bool exploreOne(const dr::loopir::Program& p, int signal,
                const dr::explorer::ExploreOptions& opts, bool emitCode,
                bool fullReport, long long orderingsBudget,
                const JournalCli& journal,
                std::vector<dr::explorer::SignalExploration>* collect) {
  dr::explorer::SignalExploration ex;
  if (!exploreForSignal(p, signal, opts, journal, ex)) return false;
  if (collect) collect->push_back(ex);
  if (!journal.curveOut.empty() && !writeCurveCsv(ex, journal.curveOut))
    return false;
  dr::explorer::designChains(p, ex, opts);
  if (fullReport) {
    std::printf("%s\n", dr::report::signalReport(p, ex).c_str());
    return true;
  }
  if (orderingsBudget > 0) {
    auto results =
        dr::explorer::orderingSweep(p, signal, orderingsBudget);
    std::printf("---- signal '%s': loop orderings under a %lld-word "
                "budget ----\n",
                ex.signalName.c_str(), orderingsBudget);
    for (std::size_t i = 0; i < std::min<std::size_t>(5, results.size());
         ++i) {
      const auto& r = results[i];
      if (!r.feasible) continue;
      std::vector<std::string> names;
      for (int l : r.perm)
        names.push_back(p.nests[0].loops[static_cast<std::size_t>(l)].name);
      std::printf("  (%s): size %lld, %lld transfers, F_R %.2f\n",
                  dr::support::join(names, ",").c_str(),
                  static_cast<long long>(r.bestSize),
                  static_cast<long long>(r.bestMisses), r.bestFR);
    }
    std::printf("\n");
  }
  std::printf("---- signal '%s': C_tot %lld, distinct %lld ----\n",
              ex.signalName.c_str(), static_cast<long long>(ex.Ctot),
              static_cast<long long>(ex.distinctElements));

  if (ex.combinedPoints.empty()) {
    std::printf("  no reuse found by the pair model at any loop level\n\n");
    return true;
  }
  for (const auto& pt : ex.combinedPoints)
    std::printf("  %-22s size %6lld  F_R %10.3f%s\n", pt.label.c_str(),
                static_cast<long long>(pt.size), pt.FR,
                pt.exact ? "" : "  (approximate)");

  std::printf("  Pareto front (size, normalized power):\n");
  std::size_t stride =
      ex.pareto.size() > 24 ? (ex.pareto.size() + 23) / 24 : 1;
  for (std::size_t i = 0; i < ex.pareto.size(); ++i) {
    if (i % stride != 0 && i + 1 != ex.pareto.size()) continue;
    const auto& d = ex.pareto[i];
    std::printf("    %7lld  %.4f  |  %s\n",
                static_cast<long long>(d.cost.onChipSize),
                d.cost.normalizedPower, d.label.c_str());
  }
  if (stride > 1)
    std::printf("    (%zu Pareto points, subsampled)\n", ex.pareto.size());

  if (emitCode) {
    // Emit the maximum-reuse template for the first canonical access.
    for (const auto& acc : ex.accesses) {
      const auto& nest = p.nests[static_cast<std::size_t>(acc.nest)];
      for (int level = nest.depth() - 2; level >= 0; --level) {
        auto m = dr::analytic::analyzePair(
            nest, nest.body[static_cast<std::size_t>(acc.accessIndex)],
            level);
        if (!m.hasReuse || m.cls.kind != dr::analytic::ReuseKind::Vector ||
            m.cls.vec.cprime < 1 || m.cls.vec.flippedK ||
            m.reuseRepeat != 1)
          continue;
        auto code = dr::codegen::generateCopyTemplate(p, acc.nest,
                                                      acc.accessIndex, m);
        std::printf("\n  transformed code (nest %d, access %d, level %d):\n"
                    "%s\n",
                    acc.nest, acc.accessIndex, level,
                    code.transformedCode.c_str());
        return true;  // one template is enough for the report
      }
    }
  }
  std::printf("\n");
  return true;
}

int runExploreKernel(int argc, char** argv) {
  auto parsed = dr::support::CliOptions::parse(argc, argv);
  if (!parsed) {
    std::fprintf(stderr, "%s\n", parsed.status().str().c_str());
    return 1;
  }
  const dr::support::CliOptions& cli = *parsed;
  std::string kernelPath = cli.getString("kernel", "");
  std::string signalName = cli.getString("signal", "");
  dr::explorer::ExploreOptions opts;
  opts.runSimulation = !cli.getBool("no-sim", false);
  const std::string engine = cli.getString("engine", "run");
  if (engine == "element") {
    opts.runGranularity = false;
  } else if (engine == "symbolic") {
    opts.engine = dr::explorer::SimEngine::Symbolic;
  } else if (engine == "streaming") {
    // Force the streaming pipeline even where the symbolic engine would
    // apply — the A/B reference for the CI symbolic-diff check.
    opts.engine = dr::explorer::SimEngine::Streaming;
  } else if (engine != "run") {
    std::fprintf(stderr,
                 "error: --engine must be 'element', 'run', 'streaming' or "
                 "'symbolic'\n");
    return 1;
  }
  bool emitCode = cli.getBool("emit-code", false);
  bool fullReport = cli.getBool("report", false);
  long long orderingsBudget = cli.getInt("orderings", 0);
  JournalCli journal;
  journal.path = cli.getString("journal", "");
  journal.cacheDir = cli.getString("cache-dir", "");
  journal.resume = !cli.getBool("no-resume", false);
  journal.curveOut = cli.getString("curve-out", "");
  std::string histOut = cli.getString("hist-out", "");
  long long deadlineMs = cli.getInt("deadline-ms", 0);
  dr::support::RunBudget budget;
  if (deadlineMs > 0) {
    budget.setDeadline(std::chrono::milliseconds(deadlineMs));
    opts.budget = &budget;
  }
  for (const auto& name : cli.unusedNames())
    std::fprintf(stderr, "warning: unknown option --%s\n", name.c_str());

  dr::loopir::Program p;
  if (kernelPath.empty()) {
    p = dr::kernels::conv2d({});
  } else {
    auto compiled = dr::frontend::compileKernelFileChecked(kernelPath);
    if (!compiled) {
      std::fprintf(stderr, "%s\n", compiled.status().str().c_str());
      return 1;
    }
    p = std::move(*compiled);
  }

  std::printf("%s\n", dr::loopir::programToString(p).c_str());

  // --hist-out wants every explored curve in one document; collect them
  // across the sweep and write once at the end.
  std::vector<dr::explorer::SignalExploration> collected;
  std::vector<dr::explorer::SignalExploration>* collect =
      histOut.empty() ? nullptr : &collected;
  const auto writeHist = [&]() -> bool {
    if (histOut.empty()) return true;
    const bool json = histOut.size() >= 5 &&
                      histOut.compare(histOut.size() - 5, 5, ".json") == 0;
    auto st = dr::support::DataSet::writeFileStatus(
        histOut, json ? dr::report::signalCurvesJson(collected)
                      : dr::report::signalCurvesCsv(collected));
    if (!st.isOk()) {
      std::fprintf(stderr, "%s\n", st.str().c_str());
      return false;
    }
    std::printf("wrote %zu signal curve(s) to %s\n", collected.size(),
                histOut.c_str());
    return true;
  };

  if (!signalName.empty()) {
    int sig = p.findSignal(signalName);
    if (sig < 0) {
      std::fprintf(stderr, "error: no signal named '%s'\n",
                   signalName.c_str());
      return 1;
    }
    if (!exploreOne(p, sig, opts, emitCode, fullReport, orderingsBudget,
                    journal, collect))
      return 1;
    return writeHist() ? 0 : 1;
  }
  for (std::size_t s = 0; s < p.signals.size(); ++s) {
    // Only read signals are explored (the data reuse step analyzes reads).
    bool hasReads = false;
    for (const auto& nest : p.nests)
      for (const auto& acc : nest.body)
        if (acc.signal == static_cast<int>(s) &&
            acc.kind == dr::loopir::AccessKind::Read)
          hasReads = true;
    if (hasReads &&
        !exploreOne(p, static_cast<int>(s), opts, emitCode, fullReport,
                    orderingsBudget, journal, collect))
      return 1;
  }
  return writeHist() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return dr::support::guardedMain(
      [&] { return runExploreKernel(argc, argv); });
}
