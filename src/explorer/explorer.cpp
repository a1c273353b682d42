#include "explorer/explorer.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <variant>

#include "analytic/symbolic_hist.h"
#include "loopir/normalize.h"
#include "loopir/permute.h"
#include "loopir/printer.h"
#include "support/contracts.h"
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

/// Bump whenever a simulation-engine or size-planning change alters the
/// numbers a journal would persist: resumes against journals written by
/// older code then restart clean instead of mixing generations.
constexpr std::uint64_t kJournalCodeVersion = 2;

/// The simulated sweep's size grid is dense (every size) up to here.
constexpr i64 kDenseGridUpTo = 64;
/// Step 2's analytic points: every partial stride, bypass variants, at
/// most 64 partial points per level.
constexpr analytic::AnalyticCurveOptions kAnalyticOptions{};
/// designChains offers at most this many simulated-curve points.
constexpr i64 kMaxSimulatedCandidates = 12;

/// FNV-1a 64 over a canonical description of everything that determines
/// the journaled curve: the normalized kernel text, the signal, the
/// engine and size-grid configuration, and the format/code versions. The
/// budget is deliberately excluded — a budgeted and an unbudgeted run ask
/// the same question, so one may resume the other.
std::uint64_t journalConfigHash(const Program& pn, int signal,
                                const ExploreOptions& opts) {
  std::string blob = loopir::programToString(pn);
  blob += "\nsignal=" + std::to_string(signal);
  blob += " engine=" + std::to_string(static_cast<int>(opts.engine));
  blob += " sim=" + std::to_string(opts.runSimulation ? 1 : 0);
  blob += " dense=" + std::to_string(kDenseGridUpTo);
  blob += " knees=" + std::to_string(opts.includeWorkingSetKnees ? 1 : 0);
  blob += " stride=" + std::to_string(kAnalyticOptions.partialStride);
  blob += " bypass=" + std::to_string(kAnalyticOptions.withBypass ? 1 : 0);
  blob += " maxpp=" +
          std::to_string(kAnalyticOptions.maxPartialPointsPerLevel);
  blob += " fmt=" + std::to_string(support::kJournalFormatVersion);
  blob += " code=" + std::to_string(kJournalCodeVersion);
  return support::fnv1a(blob);
}

simcore::ReusePoint pointAt(i64 size, const simcore::SimResult& r,
                            simcore::Fidelity fidelity) {
  return {size, r.misses, r.accesses, r.reuseFactor(), fidelity};
}

/// The durable record of a freshly computed curve.
support::JournalRecord recordOf(const SignalExploration& result,
                                std::uint64_t configHash) {
  support::JournalRecord rec;
  rec.configHash = configHash;
  const simcore::FoldedStats& st = result.simulationStats;
  support::JournalMeta& m = rec.meta;
  m.Ctot = result.Ctot;
  m.distinct = result.distinctElements;
  m.fidelity = static_cast<std::uint8_t>(st.fidelity);
  m.folded = st.folded ? 1 : 0;
  m.exact = st.exact ? 1 : 0;
  m.totalEvents = st.totalEvents;
  m.simulatedEvents = st.simulatedEvents;
  m.period = st.period;
  m.repeatCount = st.repeatCount;
  m.warmupEvents = st.warmupEvents;
  m.foldPeriodChunks = st.foldPeriodChunks;
  for (const simcore::ReusePoint& pt : result.simulatedCurve.points)
    rec.points.push_back({pt.size, pt.writes, pt.reads});
  return rec;
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

/// The sizes the simulated curve is read at, for a stream of `distinct`
/// elements: the size grid plus every analytic, knee and multi-level size
/// of steps 2 and 3.
std::vector<i64> plannedSizes(const SignalExploration& result, i64 distinct) {
  std::vector<i64> sizes =
      simcore::sizeGrid(std::max<i64>(1, distinct), kDenseGridUpTo);
  for (const AnalyticPoint& pt : result.combinedPoints)
    if (pt.size > 0) sizes.push_back(pt.size);
  for (const auto& knees : result.kneesPerNest)
    for (const analytic::LevelKnee& knee : knees)
      if (knee.workingSetMax > 0) sizes.push_back(knee.workingSetMax);
  for (const AccessAnalysis& a : result.accesses)
    for (const analytic::MultiLevelPoint& pt : a.multiLevel)
      if (pt.size > 0) sizes.push_back(pt.size);
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

/// The stream rung's engine, shared with orderingSweep's validation: the
/// folded OPT stack-distance histogram of `signal`'s reads, streamed from
/// a trace cursor and never materialized.
simcore::StackHistogram foldedOptHistogram(const Program& pn,
                                           const dr::trace::AddressMap& map,
                                           int signal,
                                           const support::RunBudget* budget,
                                           simcore::FoldedStats* stats) {
  dr::trace::TraceFilter filter;
  filter.signal = signal;  // reads only (the filter's default)
  dr::trace::TraceCursor cursor(pn, map, filter);
  return simcore::foldedStackHistogram(
      cursor, dr::trace::detectPeriod(cursor.nests()), simcore::Policy::Opt,
      stats, {.budget = budget});
}

/// A rung's answer: the stream totals it produced (stats.fidelity names
/// the rung, stats.distinct is its own distinct-element count) and its
/// counts, as a histogram for the walk to read at the planned sizes or as
/// finished points.
struct RungCurve {
  simcore::FoldedStats stats;
  std::optional<simcore::StackHistogram> hist;
  simcore::ReuseCurve curve;  ///< when there is no histogram
};

/// A rung's failed precondition: the walk goes on to the next rung.
struct Reject {
  std::string reason;
};

using RungResult = std::variant<RungCurve, Reject>;

/// What the rungs of one walk read: the request with steps 1-3 done.
struct Walk {
  const Program& pn;
  const dr::trace::AddressMap& map;
  const SignalExploration& result;
  const support::RunBudget* budget;
  const support::JournalRecord* record;  ///< a prior run's, or null
  /// The stream rung's totals when a budget trip stopped it before any
  /// full-trace counts: the analytic rung keeps them.
  simcore::FoldedStats tripped;
};

using Rung = RungResult (*)(Walk&);

/// Record replay: a loaded journal record answers when it was written for
/// this stream — an exact rung, the same read count, and exactly the sizes
/// this run plans (they follow from the recorded footprint).
RungResult replayRung(Walk& w) {
  if (!w.record) return Reject{};
  const support::JournalMeta& m = w.record->meta;
  const auto fidelity = static_cast<simcore::Fidelity>(m.fidelity);
  bool same = simcore::isExact(fidelity) && m.Ctot == w.result.Ctot;
  if (same) {
    const std::vector<i64> sizes = plannedSizes(w.result, m.distinct);
    same = sizes.size() == w.record->points.size();
    for (std::size_t i = 0; same && i < sizes.size(); ++i)
      same = sizes[i] == w.record->points[i].size;
  }
  if (!same)
    return Reject{"journal record does not cover the planned curve sizes"};
  RungCurve c;
  simcore::FoldedStats& st = c.stats;
  st.folded = m.folded != 0;
  st.exact = m.exact != 0;
  st.fidelity = fidelity;
  st.totalEvents = m.totalEvents;
  st.simulatedEvents = m.simulatedEvents;
  st.period = m.period;
  st.repeatCount = m.repeatCount;
  st.warmupEvents = m.warmupEvents;
  st.foldPeriodChunks = m.foldPeriodChunks;
  st.distinct = m.distinct;
  for (const support::JournalPoint& jp : w.record->points)
    c.curve.points.push_back(pointAt(
        jp.size, {.accesses = jp.reads, .misses = jp.writes}, fidelity));
  return c;
}

/// Closed forms: the whole OPT stack-distance histogram from the nest
/// geometry when the read stream is a covered trace class — no trace
/// walked, query time independent of the iteration counts.
RungResult symbolicRung(Walk& w) {
  auto sym = analytic::symbolicStackHistogram(w.pn, w.result.signal,
                                              simcore::Policy::Opt);
  if (!sym.hasValue())
    return Reject{sym.status().message() +
                  " (the simulated sweep is OPT; analytic::symbolicReuseCurve "
                  "serves LRU curves directly)"};
  DR_REQUIRE_MSG(sym->hist.accesses == w.result.Ctot,
                 "symbolic engine disagrees with the cursor on the stream "
                 "length");
  RungCurve c;
  c.stats.fidelity = simcore::Fidelity::Symbolic;
  c.stats.totalEvents = w.result.Ctot;
  c.stats.distinct = sym->hist.distinct();
  c.hist = std::move(sym->hist);
  return c;
}

/// The streamed simulation: an exact stream or a certified fold, or an
/// approximate fold when the budget trips after full-trace counts exist.
/// A trip before that rejects.
RungResult streamRung(Walk& w) {
  RungCurve c;
  c.hist =
      foldedOptHistogram(w.pn, w.map, w.result.signal, w.budget, &c.stats);
  if (c.stats.completed) return c;
  w.tripped = c.stats;
  return Reject{"budget tripped before any full-trace counts"};
}

/// The last rung, after a trip stopped the stream before any full-trace
/// counts: a curve from closed forms alone — combined analytic points,
/// per-access multi-level footprints, and working-set knees — under the
/// tripped stream's totals. Sorted ascending by size, one point per size
/// (best reuse factor wins), every point tagged Analytic.
RungResult analyticRung(Walk& w) {
  std::vector<simcore::ReusePoint> pts;
  auto add = [&](i64 size, i64 misses, i64 reads) {
    if (size <= 0 || misses <= 0 || reads <= 0) return;
    pts.push_back(pointAt(size, {.accesses = reads, .misses = misses},
                          simcore::Fidelity::Analytic));
  };
  for (const AnalyticPoint& pt : w.result.combinedPoints)
    if (!pt.bypass) add(pt.size, pt.CjTotal, pt.CtotCopyTotal);
  for (const AccessAnalysis& a : w.result.accesses)
    for (const analytic::MultiLevelPoint& pt : a.multiLevel)
      add(pt.size, pt.misses, pt.Ctot);
  for (const auto& knees : w.result.kneesPerNest)
    for (const analytic::LevelKnee& k : knees)
      add(k.workingSetMax, k.misses, k.Ctot);

  std::sort(pts.begin(), pts.end(),
            [](const simcore::ReusePoint& a, const simcore::ReusePoint& b) {
              if (a.size != b.size) return a.size < b.size;
              return a.reuseFactor > b.reuseFactor;
            });
  RungCurve c;
  c.stats = w.tripped;
  c.stats.fidelity = simcore::Fidelity::Analytic;
  for (const simcore::ReusePoint& p : pts)
    if (c.curve.points.empty() || c.curve.points.back().size != p.size)
      c.curve.points.push_back(p);
  return c;
}

/// The reference oracle: collect the whole trace, then simulate it.
RungResult materializedRung(Walk& w) {
  const dr::trace::Trace trace =
      dr::trace::readTrace(w.pn, w.map, w.result.signal);
  RungCurve c;
  c.stats.totalEvents = trace.length();
  c.stats.simulatedEvents = trace.length();
  c.stats.distinct = trace.distinctCount();
  c.curve = simcore::simulateReuseCurve(
      trace, plannedSizes(w.result, c.stats.distinct));
  return c;
}

/// Each engine's fidelity ladder, top rung first (DESIGN.md).
std::span<const Rung> rungsOf(SimEngine engine) {
  static constexpr Rung kAuto[] = {replayRung, symbolicRung, streamRung,
                                   analyticRung};
  static constexpr Rung kStreaming[] = {replayRung, streamRung, analyticRung};
  static constexpr Rung kMaterialized[] = {replayRung, materializedRung};
  static constexpr Rung kSymbolic[] = {replayRung, symbolicRung};
  switch (engine) {
    case SimEngine::Auto: return kAuto;
    case SimEngine::Streaming: return kStreaming;
    case SimEngine::Materialized: return kMaterialized;
    case SimEngine::Symbolic: return kSymbolic;
  }
  DR_UNREACHABLE("unknown SimEngine");
}

/// The curve stage (steps 1-4). `record` is a loaded journal record for
/// the replay rung (null on the plain exploreSignal path; a replayed curve
/// must stay byte-identical to it); `replayRejection` receives the replay
/// rung's reason when it turns the record down. Running out of rungs — a
/// strict symbolic rejection — is an InvalidInput status.
support::Expected<SignalExploration> exploreSignalImpl(
    const Program& p, int signal, const ExploreOptions& opts,
    const support::JournalRecord* record, std::string* replayRejection) {
  DR_REQUIRE(signal >= 0 && signal < static_cast<int>(p.signals.size()));
  SignalExploration result;
  result.signal = signal;
  result.signalName = p.signals[static_cast<std::size_t>(signal)].name;

  const Program pn = loopir::normalized(p);
  dr::trace::AddressMap map(pn);

  // 1. The read count, from a trace cursor: no engine materializes the
  // trace here.
  dr::trace::TraceFilter filter;
  filter.signal = signal;  // reads only (the filter's default)
  result.Ctot = dr::trace::TraceCursor(pn, map, filter).length();
  DR_REQUIRE_MSG(result.Ctot > 0, "signal is never read");

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
              analytic::analyticReusePoints(nest, acc, kAnalyticOptions);
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

  // 4. The simulated Belady curve: walk the engine's rungs top down; the
  // first that answers serves the curve. Without simulation no rung is
  // walked.
  const std::span<const Rung> rungs =
      opts.runSimulation ? rungsOf(opts.engine) : std::span<const Rung>{};
  Walk walk{pn, map, result, opts.budget, record, {}};
  RungCurve answer;
  answer.stats.totalEvents = result.Ctot;
  std::string rejection;
  auto rung = rungs.begin();
  for (; rung != rungs.end(); ++rung) {
    RungResult r = (*rung)(walk);
    if (auto* c = std::get_if<RungCurve>(&r)) {
      answer = std::move(*c);
      break;
    }
    rejection = std::move(std::get<Reject>(r).reason);
    if (*rung == replayRung && replayRejection) *replayRejection = rejection;
  }
  if (!rungs.empty() && rung == rungs.end())
    return support::Status::error(support::StatusCode::InvalidInput,
                                  rejection);

  // The answer lands here, and only here. An exact rung counted the
  // distinct elements itself. A degraded rung extrapolated the count or
  // never finished it, and without simulation nothing counted it: those
  // take the read footprint from the closed forms — a single nest's
  // level-0 knee, or the union of the level-0 windows.
  simcore::FoldedStats& st = answer.stats;
  if (rungs.empty() || !simcore::isExact(st.fidelity))
    st.distinct = result.kneesPerNest.size() == 1 &&
                          !result.kneesPerNest.front().empty()
                      ? result.kneesPerNest.front().front().workingSetMax
                      : analytic::distinctReadElements(pn, map, signal);
  if (answer.hist)
    for (i64 s : plannedSizes(result, st.distinct))
      answer.curve.points.push_back(
          pointAt(s, answer.hist->resultAt(s), st.fidelity));
  result.distinctElements = st.distinct;
  result.curveFidelity = st.fidelity;
  result.simulationStats = st;
  result.simulatedCurve = std::move(answer.curve);
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

/// Run `explore`, converting the input-driven exceptions into statuses:
/// checked arithmetic giving out on the requested bounds (8K+ frames on
/// deep level products), and allocation failure.
template <class Explore>
support::Expected<SignalExploration> runChecked(const Explore& explore) {
  try {
    return explore();
  } catch (const support::OverflowError& e) {
    return support::Status::error(support::StatusCode::Overflow, e.what());
  } catch (const std::bad_alloc&) {
    return support::Status::error(support::StatusCode::BudgetExceeded,
                                  "allocation failed during exploration");
  }
}

}  // namespace

SignalExploration exploreSignal(const Program& p, int signal,
                                const ExploreOptions& opts) {
  auto ex = exploreSignalImpl(p, signal, opts, nullptr, nullptr);
  return std::move(ex.value());
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
  hierarchy::EnumerateOptions chainOpts;
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
  if (opts.runSimulation &&
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
    while (static_cast<i64>(picked.size()) > kMaxSimulatedCandidates)
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
  return runChecked(
      [&] { return exploreSignalImpl(p, signal, opts, nullptr, nullptr); });
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
  const std::uint64_t configHash = exploreConfigHash(p, signal, opts);

  // Load the prior record, if asked to and one exists. Any rejection —
  // unreadable, torn, corrupt, version skew, or a config-hash mismatch —
  // restarts clean and records why; it never aborts the run.
  std::optional<support::JournalRecord> prior;
  if (resume.resume &&
      std::ifstream(resume.journalPath, std::ios::binary).good()) {
    auto loaded = support::loadJournal(resume.journalPath);
    if (!loaded.hasValue())
      summary->restartReason = loaded.status().message();
    else if (loaded->configHash != configHash)
      summary->restartReason =
          "journal belongs to a different kernel/engine configuration "
          "(config hash mismatch)";
    else
      prior = std::move(*loaded);
    summary->journalLoaded = prior.has_value();
    summary->restarted = !prior;
  }

  std::string replayRejection;
  auto ex = runChecked([&] {
    return exploreSignalImpl(p, signal, opts, prior ? &*prior : nullptr,
                             &replayRejection);
  });
  if (!ex.hasValue()) return ex;
  const i64 points = static_cast<i64>(ex->simulatedCurve.points.size());
  if (!replayRejection.empty()) {
    summary->journalLoaded = false;
    summary->restarted = true;
    summary->restartReason = replayRejection;
  } else if (prior && opts.runSimulation) {
    summary->pointsReused = points;  // the record answered: no engine pass
    return ex;
  }
  if (ex->curveFidelity != simcore::Fidelity::Analytic)
    summary->pointsRecomputed = points;
  // One durable write per exact curve; a degraded run writes nothing, so
  // a later run redoes it at full fidelity.
  if (points == 0 || !simcore::isExact(ex->curveFidelity)) return ex;
  if (support::Status st = support::writeJournal(
          resume.journalPath, recordOf(*ex, configHash));
      !st.isOk())
    return st;
  return ex;
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
      simcore::FoldedStats stats;
      const simcore::StackHistogram h = foldedOptHistogram(
          reorderedProgram, dr::trace::AddressMap(reorderedProgram), signal,
          budget, &stats);
      if (!stats.completed) return;  // budget tripped: leave simMisses = -1
      r.simMisses = h.missesAt(r.bestSize);
      r.simExact = stats.exact;
    });
  }
  return out;
}

}  // namespace dr::explorer
