#include "explorer/explorer.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "analytic/symbolic_hist.h"
#include "loopir/normalize.h"
#include "loopir/permute.h"
#include "loopir/printer.h"
#include "simcore/opt_stack.h"
#include "support/contracts.h"
#include "support/fault.h"
#include "support/hash.h"
#include "support/journal.h"
#include "support/parallel.h"
#include "support/strings.h"

namespace dr::explorer {

using analytic::AnalyticPoint;
using dr::support::Rational;
using loopir::AccessKind;
using loopir::Program;

namespace {

/// Effective "reuse fraction" key for aligning points of different
/// accesses: partial points use their gamma; the maximum-reuse point sits
/// above every gamma of its access (kRange - b').
i64 effectiveGamma(const AccessAnalysis& acc, const AnalyticPoint& pt) {
  (void)acc;
  return pt.gamma >= 0 ? pt.gamma : std::numeric_limits<i64>::max();
}

/// The point of `list` with the largest effective gamma <= g among points
/// with the requested bypass flavour; falls back to the smallest point.
const AnalyticPoint* pickAtGamma(const AccessAnalysis& acc, i64 g,
                                 bool bypass) {
  const AnalyticPoint* best = nullptr;
  const AnalyticPoint* smallest = nullptr;
  for (const AnalyticPoint& pt : acc.points) {
    if (pt.bypass != bypass) continue;
    if (!smallest || pt.size < smallest->size) smallest = &pt;
    i64 eg = effectiveGamma(acc, pt);
    if (eg <= g && (!best || effectiveGamma(acc, *best) < eg)) best = &pt;
  }
  return best ? best : smallest;
}

/// The degradation ladder's last rung: a curve from closed forms alone —
/// combined analytic points, per-access multi-level footprints, and
/// working-set knees — when the budget tripped before any simulation
/// produced full-trace counts. Sorted ascending by size, one point per
/// size (best reuse factor wins), every point tagged Analytic.
simcore::ReuseCurve analyticFallbackCurve(const SignalExploration& result) {
  std::vector<simcore::ReusePoint> pts;
  auto add = [&](i64 size, i64 misses, i64 reads) {
    if (size <= 0 || misses <= 0 || reads <= 0) return;
    simcore::ReusePoint p;
    p.size = size;
    p.writes = misses;
    p.reads = reads;
    p.reuseFactor =
        static_cast<double>(reads) / static_cast<double>(misses);
    p.fidelity = simcore::Fidelity::Analytic;
    pts.push_back(p);
  };
  for (const AnalyticPoint& pt : result.combinedPoints)
    if (!pt.bypass) add(pt.size, pt.CjTotal, pt.CtotCopyTotal);
  for (const AccessAnalysis& a : result.accesses)
    for (const analytic::MultiLevelPoint& pt : a.multiLevel)
      add(pt.size, pt.misses, pt.Ctot);
  for (const auto& knees : result.kneesPerNest)
    for (const analytic::LevelKnee& k : knees)
      add(k.workingSetMax, k.misses, k.Ctot);

  std::sort(pts.begin(), pts.end(),
            [](const simcore::ReusePoint& a, const simcore::ReusePoint& b) {
              if (a.size != b.size) return a.size < b.size;
              return a.reuseFactor > b.reuseFactor;
            });
  simcore::ReuseCurve curve;
  for (const simcore::ReusePoint& p : pts)
    if (curve.points.empty() || curve.points.back().size != p.size)
      curve.points.push_back(p);
  return curve;
}

/// Bump whenever a simulation-engine or size-planning change alters the
/// numbers a journal would persist: resumes against journals written by
/// older code then restart clean instead of mixing generations.
constexpr std::uint64_t kJournalCodeVersion = 2;

bool fidelityIsExact(std::uint8_t f) {
  return f == static_cast<std::uint8_t>(simcore::Fidelity::Symbolic) ||
         f == static_cast<std::uint8_t>(simcore::Fidelity::ExactStream) ||
         f == static_cast<std::uint8_t>(simcore::Fidelity::ExactFold);
}

/// Strict-engine rejection (SimEngine::Symbolic on a signal the closed
/// forms do not cover). Thrown out of exploreSignalImpl and converted to
/// an InvalidInput status by the checked facades.
struct SymbolicRejectError {
  std::string reason;
};

/// FNV-1a 64 over a canonical description of everything that determines
/// the journaled curve: the normalized kernel text, the signal, the
/// engine and size-grid configuration, and the format/code versions. The
/// budget is deliberately excluded — a budgeted and an unbudgeted run ask
/// the same question, so one may resume the other. runGranularity is
/// excluded for the same reason: the run-decoded and per-element engines
/// are byte-identical, so either may resume (or serve cached results to)
/// the other.
std::uint64_t journalConfigHash(const Program& pn, int signal,
                                const ExploreOptions& opts) {
  std::string blob = loopir::programToString(pn);
  blob += "\nsignal=" + std::to_string(signal);
  blob += " engine=" + std::to_string(static_cast<int>(opts.engine));
  blob += " sim=" + std::to_string(opts.runSimulation ? 1 : 0);
  blob += " dense=" + std::to_string(opts.denseGridUpTo);
  blob += " knees=" + std::to_string(opts.includeWorkingSetKnees ? 1 : 0);
  blob += " stride=" + std::to_string(opts.analyticOptions.partialStride);
  blob += " bypass=" + std::to_string(opts.analyticOptions.withBypass ? 1 : 0);
  blob += " maxpp=" +
          std::to_string(opts.analyticOptions.maxPartialPointsPerLevel);
  for (i64 s : opts.extraSizes) blob += " x" + std::to_string(s);
  blob += " fmt=" + std::to_string(support::kJournalFormatVersion);
  blob += " code=" + std::to_string(kJournalCodeVersion);
  return support::fnv1a(blob);
}

/// The journaled-run state threaded through exploreSignalImpl: the shared
/// writer, the committed points of a prior run (exact rungs only, keyed
/// by size, last record per size wins), and the summary being filled.
struct JournalHook {
  support::JournalWriter* writer = nullptr;
  std::map<i64, support::JournalPoint> priorExact;
  bool hasMeta = false;
  support::JournalMeta meta;
  ResumeSummary* summary = nullptr;
};

simcore::ReusePoint pointFromJournal(const support::JournalPoint& jp) {
  simcore::ReusePoint pt;
  pt.size = jp.size;
  pt.writes = jp.writes;
  pt.reads = jp.reads;
  // Recomputed, never stored: matches SimResult::reuseFactor() bit for
  // bit, which is what keeps a resumed curve byte-identical.
  pt.reuseFactor = jp.writes == 0
                       ? static_cast<double>(jp.reads)
                       : static_cast<double>(jp.reads) /
                             static_cast<double>(jp.writes);
  pt.fidelity = static_cast<simcore::Fidelity>(jp.fidelity);
  return pt;
}

/// Assemble the simulated curve at `sizes` (sorted, deduplicated),
/// reusing journaled exact points and computing the rest through
/// `evalAt`. With a hook, each computed point runs as an isolated task
/// (support::parallelForIsolated): a task failure — the FaultSite::Task
/// probe or a failed journal append — is retried, and on exhaustion marks
/// only its own point Fidelity::Failed instead of sinking the sweep.
/// Only exact-rung points are journaled.
void assembleCurve(SignalExploration& result, const std::vector<i64>& sizes,
                   simcore::Fidelity runFidelity, JournalHook* hook,
                   const std::function<simcore::SimResult(i64)>& evalAt) {
  simcore::ReuseCurve& curve = result.simulatedCurve;
  curve.points.assign(sizes.size(), simcore::ReusePoint{});
  const bool journal =
      hook && hook->writer &&
      fidelityIsExact(static_cast<std::uint8_t>(runFidelity));
  std::vector<std::size_t> missing;
  missing.reserve(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (hook) {
      auto it = hook->priorExact.find(sizes[i]);
      if (it != hook->priorExact.end()) {
        curve.points[i] = pointFromJournal(it->second);
        ++hook->summary->pointsReused;
        continue;
      }
    }
    missing.push_back(i);
  }
  if (missing.empty()) return;

  if (!hook) {
    // Unjournaled runs keep the plain parallel sweep: no retry ladder to
    // pay for, identical numbers.
    dr::support::parallelFor(static_cast<i64>(missing.size()), [&](i64 k) {
      const std::size_t idx = missing[static_cast<std::size_t>(k)];
      const simcore::SimResult r = evalAt(sizes[idx]);
      simcore::ReusePoint pt;
      pt.size = sizes[idx];
      pt.writes = r.misses;
      pt.reads = r.accesses;
      pt.reuseFactor = r.reuseFactor();
      pt.fidelity = runFidelity;
      curve.points[idx] = pt;
    });
    return;
  }

  support::IsolatedOptions iso;
  iso.maxAttempts = 3;
  iso.seed = 0x6472206a6f75726eULL;  // fixed: retries deterministic per task
  const std::vector<support::Status> statuses = support::parallelForIsolated(
      static_cast<i64>(missing.size()), iso,
      [&](i64 k, int attempt) -> support::Status {
        (void)attempt;
        if (support::fault::shouldFail(support::fault::FaultSite::Task))
          return support::Status::error(support::StatusCode::Internal,
                                        "injected task fault");
        const std::size_t idx = missing[static_cast<std::size_t>(k)];
        const simcore::SimResult r = evalAt(sizes[idx]);
        simcore::ReusePoint pt;
        pt.size = sizes[idx];
        pt.writes = r.misses;
        pt.reads = r.accesses;
        pt.reuseFactor = r.reuseFactor();
        pt.fidelity = runFidelity;
        curve.points[idx] = pt;
        if (journal) {
          support::JournalPoint jp;
          jp.size = sizes[idx];
          jp.writes = r.misses;
          jp.reads = r.accesses;
          jp.fidelity = static_cast<std::uint8_t>(runFidelity);
          return hook->writer->appendPoint(jp);
        }
        return support::Status::ok();
      });
  for (std::size_t k = 0; k < statuses.size(); ++k) {
    const std::size_t idx = missing[k];
    if (statuses[k].isOk()) {
      ++hook->summary->pointsRecomputed;
      continue;
    }
    // Exhausted retries: pin the failure to this point. The Failed record
    // is journaled (best effort) so a resume retries exactly this size.
    simcore::ReusePoint failed;
    failed.size = sizes[idx];
    failed.fidelity = simcore::Fidelity::Failed;
    curve.points[idx] = failed;
    ++hook->summary->pointsFailed;
    support::JournalPoint jp;
    jp.size = sizes[idx];
    jp.fidelity = static_cast<std::uint8_t>(simcore::Fidelity::Failed);
    (void)hook->writer->appendPoint(jp);
  }
}

support::JournalMeta metaFromStats(const SignalExploration& result) {
  support::JournalMeta m;
  m.Ctot = result.Ctot;
  m.distinct = result.distinctElements;
  m.fidelity = static_cast<std::uint8_t>(result.simulationStats.fidelity);
  m.folded = result.simulationStats.folded ? 1 : 0;
  m.exact = result.simulationStats.exact ? 1 : 0;
  m.totalEvents = result.simulationStats.totalEvents;
  m.simulatedEvents = result.simulationStats.simulatedEvents;
  m.period = result.simulationStats.period;
  m.repeatCount = result.simulationStats.repeatCount;
  m.warmupEvents = result.simulationStats.warmupEvents;
  m.foldPeriodChunks = result.simulationStats.foldPeriodChunks;
  return m;
}

}  // namespace

std::vector<AnalyticPoint> combineAccessPoints(
    const std::vector<AccessAnalysis>& accesses) {
  std::vector<const AccessAnalysis*> usable;
  for (const AccessAnalysis& a : accesses)
    if (!a.points.empty()) usable.push_back(&a);
  if (usable.empty()) return {};
  if (usable.size() == 1) return usable.front()->points;

  // Alignment grid: every gamma occurring anywhere, plus "max".
  std::vector<i64> gammas;
  for (const AccessAnalysis* a : usable)
    for (const AnalyticPoint& pt : a->points)
      gammas.push_back(effectiveGamma(*a, pt));
  std::sort(gammas.begin(), gammas.end());
  gammas.erase(std::unique(gammas.begin(), gammas.end()), gammas.end());

  std::vector<AnalyticPoint> out;
  for (i64 g : gammas) {
    for (bool bypass : {false, true}) {
      AnalyticPoint combined;
      combined.bypass = bypass;
      combined.gamma = g == std::numeric_limits<i64>::max() ? -1 : g;
      combined.level = -1;
      bool any = false;
      for (const AccessAnalysis* a : usable) {
        const AnalyticPoint* pt = pickAtGamma(*a, g, bypass);
        if (!pt) {
          // This access has no point of that flavour (e.g. no bypass
          // variant): the whole combination is skipped for consistency.
          any = false;
          break;
        }
        any = true;
        combined.size += pt->size;
        combined.CjTotal += pt->CjTotal;
        combined.CtotCopyTotal += pt->CtotCopyTotal;
        combined.CtotBypassTotal += pt->CtotBypassTotal;
        combined.exact = combined.exact && pt->exact;
      }
      if (!any || combined.CjTotal == 0) continue;
      combined.FRExact = Rational(combined.CtotCopyTotal, combined.CjTotal);
      combined.FR = combined.FRExact.toDouble();
      combined.label =
          std::string("combined ") +
          (combined.gamma < 0 ? "max" : "g=" + std::to_string(combined.gamma)) +
          (bypass ? " bypass" : "");
      out.push_back(std::move(combined));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const AnalyticPoint& a, const AnalyticPoint& b) {
              if (a.size != b.size) return a.size < b.size;
              return a.FR < b.FR;
            });
  return out;
}

std::vector<hierarchy::CandidatePoint> toCandidates(
    const std::vector<AnalyticPoint>& points, i64 Ctot) {
  std::vector<hierarchy::CandidatePoint> out;
  out.reserve(points.size());
  for (const AnalyticPoint& pt : points) {
    DR_REQUIRE_MSG(pt.CtotCopyTotal + pt.CtotBypassTotal <= Ctot,
                   "point models more reads than the signal has");
    hierarchy::CandidatePoint c;
    c.size = pt.size;
    c.writes = pt.CjTotal;
    c.copyReads = pt.CtotCopyTotal;
    c.bypassReads = pt.CtotBypassTotal;
    c.label = pt.label;
    out.push_back(std::move(c));
  }
  return out;
}

namespace {

/// The curve stage (steps 1-4), optionally journaled. `hook` == nullptr is
/// the plain exploreSignal path and must stay byte-identical to it.
SignalExploration exploreSignalImpl(const Program& p, int signal,
                                    const ExploreOptions& opts,
                                    JournalHook* hook) {
  DR_REQUIRE(signal >= 0 && signal < static_cast<int>(p.signals.size()));
  SignalExploration result;
  result.signal = signal;
  result.signalName = p.signals[static_cast<std::size_t>(signal)].name;

  const Program pn = loopir::normalized(p);
  dr::trace::AddressMap map(pn);

  // 1. Trace. The streaming engines (Auto/Streaming) never materialize
  // it: a TraceCursor provides the totals and — when simulation is on —
  // one folded OPT stack-distance histogram later answers every curve
  // size at once. Materialized keeps the original collect-then-simulate
  // flow as the reference oracle.
  const bool streaming = opts.engine != SimEngine::Materialized;
  dr::trace::TraceFilter filter;
  filter.signal = signal;  // reads only (the filter's default)
  dr::trace::Trace trace;  // filled on the materialized path only
  if (streaming) {
    dr::trace::TraceCursor cursor(pn, map, filter);
    result.Ctot = cursor.length();
    DR_REQUIRE_MSG(result.Ctot > 0, "signal is never read");
    if (opts.runSimulation) {
      // The stack engine runs in step 4: the planned curve sizes decide
      // there whether a journaled prior run already answers everything
      // (in which case no engine pass happens at all).
    } else {
      // No stack engine needed: one densifying pass counts the distinct
      // elements in O(distinct) memory.
      cursor.attachBudget(opts.budget);
      const auto [lo, hi] = cursor.addressRange();
      simcore::StreamingDensifier densifier(lo, hi);
      std::vector<i64> buf;
      while (cursor.nextChunk(buf) > 0)
        for (i64 addr : buf) densifier.idOf(addr);
      result.distinctElements = densifier.distinct();
      result.simulationStats.totalEvents = result.Ctot;
      if (cursor.truncated()) {
        result.simulationStats.completed = false;
        result.simulationStats.trippedBy = opts.budget->state();
      }
    }
  } else {
    trace = dr::trace::readTrace(pn, map, signal);
    result.Ctot = trace.length();
    result.distinctElements = trace.distinctCount();
    DR_REQUIRE_MSG(result.Ctot > 0, "signal is never read");
    result.simulationStats.totalEvents = result.Ctot;
    result.simulationStats.simulatedEvents =
        opts.runSimulation ? result.Ctot : 0;
    result.simulationStats.distinct = result.distinctElements;
  }

  // 2. Analytic points per read access; accesses with identical index
  // expressions share one copy-candidate (paper Section 6.4), so they are
  // merged: the copy is filled once (C_j unchanged) and every duplicate
  // read hits it (reads scale with the occurrence count).
  //
  // Grouping is order-dependent (first occurrence wins) and stays serial;
  // the analytic point computation per merged group is independent and
  // runs in parallel, each group writing only its own slot.
  for (std::size_t n = 0; n < pn.nests.size(); ++n) {
    const loopir::LoopNest& nest = pn.nests[n];
    for (std::size_t a = 0; a < nest.body.size(); ++a) {
      const loopir::ArrayAccess& acc = nest.body[a];
      if (acc.signal != signal || acc.kind != AccessKind::Read) continue;
      // Merge into an earlier identical access of the same nest.
      bool merged = false;
      for (AccessAnalysis& prev : result.accesses) {
        if (prev.nest != static_cast<int>(n)) continue;
        const loopir::ArrayAccess& first =
            nest.body[static_cast<std::size_t>(prev.accessIndex)];
        if (first.indices != acc.indices) continue;
        ++prev.occurrences;
        prev.Ctot += nest.iterationCount();
        merged = true;
        break;
      }
      if (merged) continue;
      AccessAnalysis analysis;
      analysis.nest = static_cast<int>(n);
      analysis.accessIndex = static_cast<int>(a);
      analysis.Ctot = nest.iterationCount();
      result.accesses.push_back(std::move(analysis));
    }
  }
  dr::support::parallelFor(
      static_cast<i64>(result.accesses.size()), [&](i64 i) {
        AccessAnalysis& analysis =
            result.accesses[static_cast<std::size_t>(i)];
        const loopir::LoopNest& nest =
            pn.nests[static_cast<std::size_t>(analysis.nest)];
        const loopir::ArrayAccess& acc =
            nest.body[static_cast<std::size_t>(analysis.accessIndex)];
        if (nest.depth() >= 2)
          analysis.points =
              analytic::analyticReusePoints(nest, acc, opts.analyticOptions);
        analysis.multiLevel = analytic::multiLevelPoints(nest, acc);
      });
  // Scale the merged groups' read counts: the copy content and fills are
  // those of one occurrence, the served reads multiply.
  for (AccessAnalysis& a : result.accesses) {
    if (a.occurrences == 1) continue;
    for (analytic::AnalyticPoint& pt : a.points) {
      pt.CtotCopyTotal *= a.occurrences;
      pt.CtotBypassTotal *= a.occurrences;
      pt.FRExact = dr::support::Rational(pt.CtotCopyTotal, pt.CjTotal);
      pt.FR = pt.FRExact.toDouble();
    }
    for (analytic::MultiLevelPoint& pt : a.multiLevel) {
      pt.Ctot *= a.occurrences;
      pt.FR = dr::support::Rational(pt.Ctot, pt.misses);
    }
  }
  result.combinedPoints = combineAccessPoints(result.accesses);

  // 3. Working-set knees per nest that reads the signal.
  if (opts.includeWorkingSetKnees) {
    for (std::size_t n = 0; n < pn.nests.size(); ++n) {
      std::vector<int> indices;
      for (std::size_t a = 0; a < pn.nests[n].body.size(); ++a)
        if (pn.nests[n].body[a].signal == signal &&
            pn.nests[n].body[a].kind == AccessKind::Read)
          indices.push_back(static_cast<int>(a));
      if (!indices.empty())
        result.kneesPerNest.push_back(
            analytic::workingSetKnees(pn, map, static_cast<int>(n), indices));
    }
  }

  // 4. Simulated Belady curve over grid + analytic sizes + knee sizes.
  // The degradation ladder lands here: a budget trip that still produced
  // full-trace counts (certified or approximate fold) keeps the simulated
  // curve at that rung; a trip before any full-trace counts existed
  // (simulationStats.completed == false) drops to the closed-form rung.
  if (opts.runSimulation) {
    auto plannedSizes = [&] {
      std::vector<i64> sizes =
          simcore::sizeGrid(std::max<i64>(1, result.distinctElements),
                            opts.denseGridUpTo);
      for (const AnalyticPoint& pt : result.combinedPoints)
        if (pt.size > 0) sizes.push_back(pt.size);
      for (const auto& knees : result.kneesPerNest)
        for (const analytic::LevelKnee& knee : knees)
          if (knee.workingSetMax > 0) sizes.push_back(knee.workingSetMax);
      for (const AccessAnalysis& a : result.accesses)
        for (const analytic::MultiLevelPoint& pt : a.multiLevel)
          if (pt.size > 0) sizes.push_back(pt.size);
      sizes.insert(sizes.end(), opts.extraSizes.begin(),
                   opts.extraSizes.end());
      std::sort(sizes.begin(), sizes.end());
      sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
      return sizes;
    };

    if (streaming) {
      // Resume shortcut: the journaled stream totals plus a full set of
      // committed exact points reconstruct the curve with zero
      // simulation — the engine never runs.
      bool reconstructed = false;
      if (hook && hook->hasMeta && fidelityIsExact(hook->meta.fidelity) &&
          hook->meta.Ctot == result.Ctot) {
        result.distinctElements = hook->meta.distinct;
        const std::vector<i64> sizes = plannedSizes();
        bool covered = !sizes.empty();
        for (i64 s : sizes)
          covered = covered && hook->priorExact.count(s) > 0;
        if (covered) {
          result.simulationStats.folded = hook->meta.folded != 0;
          result.simulationStats.exact = hook->meta.exact != 0;
          result.simulationStats.completed = true;
          result.simulationStats.fidelity =
              static_cast<simcore::Fidelity>(hook->meta.fidelity);
          result.simulationStats.totalEvents = hook->meta.totalEvents;
          result.simulationStats.simulatedEvents =
              hook->meta.simulatedEvents;
          result.simulationStats.period = hook->meta.period;
          result.simulationStats.repeatCount = hook->meta.repeatCount;
          result.simulationStats.warmupEvents = hook->meta.warmupEvents;
          result.simulationStats.foldPeriodChunks =
              hook->meta.foldPeriodChunks;
          result.simulationStats.distinct = hook->meta.distinct;
          result.curveFidelity = result.simulationStats.fidelity;
          result.simulatedCurve.points.clear();
          result.simulatedCurve.points.reserve(sizes.size());
          for (i64 s : sizes)
            result.simulatedCurve.points.push_back(
                pointFromJournal(hook->priorExact.at(s)));
          hook->summary->pointsReused += static_cast<i64>(sizes.size());
          reconstructed = true;
        } else {
          // Partial journal: the engine reruns below (and recounts the
          // footprint itself); committed points are still reused.
          result.distinctElements = 0;
        }
      }
      if (!reconstructed) {
        // Top fidelity rung: the symbolic engine answers the whole OPT
        // stack-distance histogram in closed form when the signal's read
        // stream is a covered trace class — no trace walked, query time
        // independent of the iteration counts. Values are byte-identical
        // to the folded/streamed engines (pinned by tests and fuzzing);
        // only the fidelity tag differs. Auto falls through to the fold
        // path on rejection; SimEngine::Symbolic makes rejection fatal.
        bool symbolicDone = false;
        if (opts.engine == SimEngine::Auto ||
            opts.engine == SimEngine::Symbolic) {
          auto sym = analytic::symbolicStackHistogram(pn, signal,
                                                      simcore::Policy::Opt);
          if (sym.hasValue()) {
            const simcore::StackHistogram& h = sym->hist;
            DR_REQUIRE_MSG(h.accesses == result.Ctot,
                           "symbolic engine disagrees with the cursor on "
                           "the stream length");
            result.distinctElements = h.distinct();
            result.simulationStats.folded = false;
            result.simulationStats.exact = true;
            result.simulationStats.completed = true;
            result.simulationStats.fidelity = simcore::Fidelity::Symbolic;
            result.simulationStats.totalEvents = result.Ctot;
            result.simulationStats.simulatedEvents = 0;
            result.simulationStats.distinct = result.distinctElements;
            const std::vector<i64> sizes = plannedSizes();
            result.curveFidelity = simcore::Fidelity::Symbolic;
            if (hook && hook->writer && !hook->hasMeta)
              (void)hook->writer->appendMeta(metaFromStats(result));
            assembleCurve(result, sizes, result.curveFidelity, hook,
                          [&](i64 s) { return h.resultAt(s); });
            symbolicDone = true;
          } else if (opts.engine == SimEngine::Symbolic) {
            throw SymbolicRejectError{
                sym.status().message() +
                " (the simulated sweep is OPT; analytic::symbolicReuseCurve "
                "serves LRU curves directly)"};
          }
        }
        if (!symbolicDone) {
          dr::trace::TraceCursor cursor(pn, map, filter);
          const dr::trace::PeriodInfo period =
              dr::trace::detectPeriod(cursor.nests());
          simcore::FoldedCurveOptions foldOpts;
          foldOpts.budget = opts.budget;
          foldOpts.runGranularity = opts.runGranularity;
          const simcore::StackHistogram h = simcore::foldedStackHistogram(
              cursor, period, simcore::Policy::Opt, &result.simulationStats,
              foldOpts);
          result.distinctElements = h.distinct();
          // The degraded rungs count no exact footprint: an approximate
          // fold extrapolates it, an unfinished stream never counted it.
          // The level-0 windows count it without a trace — a single nest's
          // level-0 knee, or the union over the nests reading the signal.
          auto readFootprint = [&] {
            if (result.kneesPerNest.size() == 1 &&
                !result.kneesPerNest.front().empty())
              return result.kneesPerNest.front().front().workingSetMax;
            return analytic::distinctReadElements(pn, map, signal);
          };
          if (!result.simulationStats.completed) {
            result.simulatedCurve = analyticFallbackCurve(result);
            result.curveFidelity = simcore::Fidelity::Analytic;
            result.distinctElements = readFootprint();
            result.simulationStats.distinct = result.distinctElements;
            // Ladder re-entry only for the missing points: a prior run's
            // committed exact points overlay the closed-form curve, each
            // keeping its exact tag. Nothing new is journaled on a
            // degraded run.
            if (hook && !hook->priorExact.empty()) {
              std::map<i64, simcore::ReusePoint> merged;
              for (const simcore::ReusePoint& pt :
                   result.simulatedCurve.points)
                merged[pt.size] = pt;
              for (const auto& [size, jp] : hook->priorExact)
                merged[size] = pointFromJournal(jp);
              result.simulatedCurve.points.clear();
              for (const auto& [size, pt] : merged) {
                (void)size;
                result.simulatedCurve.points.push_back(pt);
              }
              hook->summary->pointsReused +=
                  static_cast<i64>(hook->priorExact.size());
            }
          } else {
            if (result.simulationStats.fidelity ==
                simcore::Fidelity::ApproxFold)
              result.distinctElements = readFootprint();
            const std::vector<i64> sizes = plannedSizes();
            result.curveFidelity = result.simulationStats.fidelity;
            if (hook && hook->writer && !hook->hasMeta &&
                fidelityIsExact(
                    static_cast<std::uint8_t>(result.curveFidelity)))
              (void)hook->writer->appendMeta(metaFromStats(result));
            assembleCurve(result, sizes, result.curveFidelity, hook,
                          [&](i64 s) { return h.resultAt(s); });
          }
        }
      }
    } else {
      const std::vector<i64> sizes = plannedSizes();
      result.curveFidelity = simcore::Fidelity::ExactStream;
      if (!hook) {
        result.simulatedCurve = simcore::simulateReuseCurve(trace, sizes);
      } else {
        // The materialized oracle journals too: one OPT stack pass (the
        // same engine simulateReuseCurve uses) answers every size.
        const dr::trace::DenseTrace dense = dr::trace::densify(trace);
        const simcore::OptStackDistances stack(dense);
        if (hook->writer && !hook->hasMeta)
          (void)hook->writer->appendMeta(metaFromStats(result));
        assembleCurve(result, sizes, result.curveFidelity, hook,
                      [&](i64 s) { return stack.resultAt(s); });
      }
    }
  }

  return result;
}

/// Shared request validation of the checked facades.
support::Status validateSignalRequest(const Program& p, int signal) {
  if (signal < 0 || signal >= static_cast<int>(p.signals.size()))
    return support::Status::error(
        support::StatusCode::InvalidInput,
        "signal index " + std::to_string(signal) + " out of range [0, " +
            std::to_string(p.signals.size()) + ")");
  bool isRead = false;
  for (const loopir::LoopNest& nest : p.nests)
    for (const loopir::ArrayAccess& acc : nest.body)
      if (acc.signal == signal && acc.kind == AccessKind::Read) isRead = true;
  if (!isRead)
    return support::Status::error(
        support::StatusCode::InvalidInput,
        "signal '" + p.signals[static_cast<std::size_t>(signal)].name +
            "' is never read");
  return support::Status::ok();
}

}  // namespace

SignalExploration exploreSignal(const Program& p, int signal,
                                const ExploreOptions& opts) {
  return exploreSignalImpl(p, signal, opts, nullptr);
}

void designChains(const Program& p, SignalExploration& ex,
                  const ExploreOptions& opts) {
  DR_REQUIRE(ex.signal >= 0 && ex.signal < static_cast<int>(p.signals.size()));
  // Analytic candidates, plus working-set knee candidates when the signal
  // lives in a single nest (the knee counts then correspond to one
  // coherent copy per level).
  i64 modeledCtot = 0;
  for (const AccessAnalysis& a : ex.accesses)
    if (!a.points.empty()) modeledCtot += a.Ctot;
  std::vector<hierarchy::CandidatePoint> candidates;
  if (modeledCtot > 0)
    candidates = toCandidates(ex.combinedPoints, modeledCtot);
  hierarchy::EnumerateOptions chainOpts = opts.chainOptions;
  chainOpts.directBackgroundReads = ex.Ctot - modeledCtot;

  if (ex.kneesPerNest.size() == 1 && modeledCtot == ex.Ctot) {
    for (const analytic::LevelKnee& knee : ex.kneesPerNest.front()) {
      if (knee.workingSetMax <= 0 || knee.misses <= 0) continue;
      hierarchy::CandidatePoint c;
      c.size = knee.workingSetMax;
      c.writes = knee.misses;
      c.copyReads = ex.Ctot;
      c.bypassReads = 0;
      c.label = "WS L" + std::to_string(knee.level);
      candidates.push_back(std::move(c));
    }
  }

  // Closed-form multi-level footprint points (the analytical A_1..A_3
  // knees): exact only for single-read-access signals, where the
  // per-access totals are the signal totals.
  if (ex.accesses.size() == 1 && modeledCtot == ex.Ctot &&
      ex.accesses.front().Ctot == ex.Ctot) {
    for (const analytic::MultiLevelPoint& pt : ex.accesses.front().multiLevel) {
      if (!pt.exact || pt.misses >= pt.Ctot || pt.size <= 0) continue;
      hierarchy::CandidatePoint c;
      c.size = pt.size;
      c.writes = pt.misses;
      c.copyReads = ex.Ctot;
      c.bypassReads = 0;
      c.label = "ML L" + std::to_string(pt.level);
      candidates.push_back(std::move(c));
    }
  }

  // Selected simulated-curve points (the paper's Fig. 4b combines "points
  // on the data reuse factor curve"): subsample at roughly equal reuse
  // ratios so the candidate count stays bounded. Only meaningful when the
  // simulated counts cover the whole signal (they always do: the trace is
  // the signal's full read stream).
  if (opts.includeSimulatedCandidates && opts.runSimulation &&
      ex.curveFidelity != simcore::Fidelity::Analytic &&
      chainOpts.directBackgroundReads == 0 &&
      !ex.simulatedCurve.points.empty()) {
    double maxFr = ex.simulatedCurve.maxReuseFactor();
    double lastKept = 1.0;
    std::vector<const simcore::ReusePoint*> picked;
    for (const simcore::ReusePoint& pt : ex.simulatedCurve.points) {
      if (pt.writes <= 0 || pt.reuseFactor <= 1.0) continue;
      bool saturated = pt.reuseFactor >= maxFr * (1.0 - 1e-9);
      if (pt.reuseFactor >= lastKept * 1.4 || saturated) {
        picked.push_back(&pt);
        lastKept = pt.reuseFactor;
        if (saturated) break;  // smallest saturating size is enough
      }
    }
    while (static_cast<i64>(picked.size()) > opts.maxSimulatedCandidates)
      picked.erase(picked.begin() + 1);  // keep the extremes
    for (const simcore::ReusePoint* pt : picked) {
      hierarchy::CandidatePoint c;
      c.size = pt->size;
      c.writes = pt->writes;
      c.copyReads = ex.Ctot;
      c.bypassReads = 0;
      c.label = "sim A=" + std::to_string(pt->size);
      candidates.push_back(std::move(c));
    }
  }

  if (chainOpts.directBackgroundReads < ex.Ctot && !candidates.empty()) {
    int bits = p.signals[static_cast<std::size_t>(ex.signal)].elementBits;
    ex.chains = hierarchy::enumerateChains(ex.Ctot, candidates, opts.library,
                                           bits, chainOpts);
    ex.pareto = hierarchy::paretoChains(ex.chains);
  }
}

std::uint64_t exploreConfigHash(const Program& p, int signal,
                                const ExploreOptions& opts) {
  return journalConfigHash(loopir::normalized(p), signal, opts);
}

support::Expected<SignalExploration> exploreSignalChecked(
    const Program& p, int signal, const ExploreOptions& opts) {
  if (support::Status st = validateSignalRequest(p, signal); !st.isOk())
    return st;
  try {
    return exploreSignal(p, signal, opts);
  } catch (const SymbolicRejectError& e) {
    return support::Status::error(support::StatusCode::InvalidInput,
                                  e.reason);
  } catch (const support::OverflowError& e) {
    // Checked arithmetic gave out on the requested bounds (8K+ frames on
    // deep level products): a property of the input, reported as such.
    return support::Status::error(support::StatusCode::Overflow, e.what());
  } catch (const std::bad_alloc&) {
    return support::Status::error(support::StatusCode::BudgetExceeded,
                                  "allocation failed during exploration");
  }
}

support::Expected<SignalExploration> exploreSignalChecked(
    const Program& p, int signal, const ExploreOptions& opts,
    const ResumeContext& resume, ResumeSummary* summaryOut) {
  ResumeSummary localSummary;
  ResumeSummary* summary = summaryOut ? summaryOut : &localSummary;
  *summary = ResumeSummary{};
  if (support::Status st = validateSignalRequest(p, signal); !st.isOk())
    return st;
  if (resume.journalPath.empty())
    return support::Status::error(support::StatusCode::InvalidInput,
                                  "ResumeContext.journalPath is empty");
  if (resume.commitEveryPoints < 1)
    return support::Status::error(support::StatusCode::InvalidInput,
                                  "ResumeContext.commitEveryPoints must be "
                                  ">= 1");

  support::JournalHeader header;
  header.configHash = exploreConfigHash(p, signal, opts);
  header.description =
      "signal=" + p.signals[static_cast<std::size_t>(signal)].name +
      " engine=" + std::to_string(static_cast<int>(opts.engine));

  // Load the prior journal, if asked to and one exists. Any rejection —
  // unreadable, corrupt beyond the header, version skew, or a config-hash
  // mismatch — restarts clean and records why; it never aborts the run.
  std::optional<support::JournalContents> prior;
  if (resume.resume) {
    const bool exists =
        std::ifstream(resume.journalPath, std::ios::binary).good();
    if (exists) {
      auto loaded = support::loadJournal(resume.journalPath);
      if (!loaded.hasValue()) {
        summary->restarted = true;
        summary->restartReason = loaded.status().message();
      } else if (loaded->header.configHash != header.configHash) {
        summary->restarted = true;
        summary->restartReason =
            "journal belongs to a different kernel/engine configuration "
            "(config hash mismatch)";
      } else {
        prior = std::move(*loaded);
        summary->journalLoaded = true;
        summary->droppedTailBytes = prior->droppedTailBytes;
      }
    }
  }

  std::optional<support::JournalWriter> writer;
  if (prior) {
    auto w = support::JournalWriter::resumeAt(resume.journalPath, *prior,
                                              resume.commitEveryPoints);
    if (!w.hasValue()) return w.status();
    writer.emplace(std::move(*w));
  } else {
    auto w = support::JournalWriter::create(resume.journalPath, header,
                                            resume.commitEveryPoints);
    if (!w.hasValue()) return w.status();
    writer.emplace(std::move(*w));
  }

  JournalHook hook;
  hook.writer = &*writer;
  hook.summary = summary;
  if (prior) {
    hook.hasMeta = prior->hasMeta;
    hook.meta = prior->meta;
    // Only exact rungs are reusable; a Failed record never enters the
    // map, so its point is retried on resume. Append order means the
    // last record per size wins (a retried point supersedes its failure).
    for (const support::JournalPoint& jp : prior->points)
      if (fidelityIsExact(jp.fidelity)) hook.priorExact[jp.size] = jp;
  }

  try {
    SignalExploration result = exploreSignalImpl(p, signal, opts, &hook);
    if (support::Status st = writer->close(); !st.isOk()) return st;
    return result;
  } catch (const SymbolicRejectError& e) {
    return support::Status::error(support::StatusCode::InvalidInput,
                                  e.reason);
  } catch (const support::OverflowError& e) {
    return support::Status::error(support::StatusCode::Overflow, e.what());
  } catch (const std::bad_alloc&) {
    return support::Status::error(support::StatusCode::BudgetExceeded,
                                  "allocation failed during exploration");
  }
}

}  // namespace dr::explorer

namespace dr::explorer {

std::vector<OrderingResult> orderingSweep(const Program& p, int signal,
                                          i64 sizeBudget, int fixedPrefix,
                                          int validateTopK,
                                          const support::RunBudget* budget) {
  DR_REQUIRE(signal >= 0 && signal < static_cast<int>(p.signals.size()));
  DR_REQUIRE(sizeBudget >= 1);
  const Program pn = loopir::normalized(p);

  // The signal must be read in exactly one nest.
  int nestIdx = -1;
  std::vector<int> accessIndices;
  for (std::size_t n = 0; n < pn.nests.size(); ++n)
    for (std::size_t a = 0; a < pn.nests[n].body.size(); ++a) {
      const loopir::ArrayAccess& acc = pn.nests[n].body[a];
      if (acc.signal != signal || acc.kind != AccessKind::Read) continue;
      DR_REQUIRE_MSG(nestIdx < 0 || nestIdx == static_cast<int>(n),
                     "orderingSweep needs the signal read in a single nest");
      nestIdx = static_cast<int>(n);
      accessIndices.push_back(static_cast<int>(a));
    }
  DR_REQUIRE_MSG(nestIdx >= 0, "signal is never read");
  const loopir::LoopNest& nest = pn.nests[static_cast<std::size_t>(nestIdx)];
  DR_REQUIRE(fixedPrefix >= 0 && fixedPrefix <= nest.depth());

  // One slot per permutation, filled in parallel; the final sort sees the
  // same deterministic sequence a serial loop would produce.
  const std::vector<std::vector<int>> perms =
      loopir::loopOrderings(nest.depth(), fixedPrefix);
  std::vector<OrderingResult> out(perms.size());
  dr::support::parallelFor(static_cast<i64>(perms.size()), budget, [&](i64 pi) {
    const std::vector<int>& perm = perms[static_cast<std::size_t>(pi)];
    loopir::LoopNest reordered = loopir::permuted(nest, perm);
    OrderingResult r;
    r.perm = perm;

    // Combined closed-form level points: one copy per access, coexisting.
    std::vector<std::vector<analytic::MultiLevelPoint>> perAccess;
    for (int a : accessIndices)
      perAccess.push_back(analytic::multiLevelPoints(
          reordered, reordered.body[static_cast<std::size_t>(a)]));
    for (int level = 0; level < reordered.depth(); ++level) {
      i64 size = 0, misses = 0, Ctot = 0;
      bool exact = true;
      for (const auto& pts : perAccess) {
        const analytic::MultiLevelPoint& pt =
            pts[static_cast<std::size_t>(level)];
        size += pt.size;
        misses += pt.misses;
        Ctot += pt.Ctot;
        exact = exact && pt.exact;
      }
      if (size > sizeBudget) continue;
      if (!r.feasible || misses < r.bestMisses) {
        r.feasible = true;
        r.bestSize = size;
        r.bestMisses = misses;
        r.bestFR = static_cast<double>(Ctot) / static_cast<double>(misses);
        r.exact = exact;
      }
    }
    out[static_cast<std::size_t>(pi)] = std::move(r);
  });

  std::sort(out.begin(), out.end(),
            [](const OrderingResult& a, const OrderingResult& b) {
              if (a.feasible != b.feasible) return a.feasible;
              if (a.bestMisses != b.bestMisses)
                return a.bestMisses < b.bestMisses;
              return a.bestSize < b.bestSize;
            });

  // Cross-check the analytic winners with the streaming folded OPT
  // simulation: one shared buffer of bestSize over the reordered nest's
  // full read stream, no trace materialized.
  const i64 topK =
      std::min<i64>(validateTopK, static_cast<i64>(out.size()));
  if (topK > 0) {
    dr::support::parallelFor(topK, budget, [&](i64 i) {
      OrderingResult& r = out[static_cast<std::size_t>(i)];
      if (!r.feasible) return;
      Program reorderedProgram = pn;
      reorderedProgram.nests[static_cast<std::size_t>(nestIdx)] =
          loopir::permuted(nest, r.perm);
      dr::trace::AddressMap rmap(reorderedProgram);
      dr::trace::TraceFilter f;
      f.signal = signal;
      dr::trace::TraceCursor cursor(reorderedProgram, rmap, f);
      const dr::trace::PeriodInfo period =
          dr::trace::detectPeriod(cursor.nests());
      simcore::FoldedStats stats;
      simcore::FoldedCurveOptions foldOpts;
      foldOpts.budget = budget;
      const simcore::StackHistogram h = simcore::foldedStackHistogram(
          cursor, period, simcore::Policy::Opt, &stats, foldOpts);
      if (!stats.completed) return;  // budget tripped: leave simMisses = -1
      r.simMisses = h.missesAt(r.bestSize);
      r.simExact = stats.exact;
    });
  }
  return out;
}

}  // namespace dr::explorer
