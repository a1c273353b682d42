#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analytic/curve.h"
#include "analytic/footprint.h"
#include "hierarchy/enumerate.h"
#include "hierarchy/pareto.h"
#include "simcore/folded_curve.h"
#include "simcore/reuse_curve.h"
#include "support/budget.h"
#include "support/status.h"
#include "trace/walker.h"

/// \file explorer.h
/// The top-level data-reuse exploration flow — the library equivalent of
/// the paper's prototype tool ("computes, based on the loop and index
/// expression parameters as input, the data reuse factor and power/memory
/// size Pareto curve points with and without bypass", Section 6.3). Two
/// stages. The curve stage, which every exploreSignal* overload returns:
///
///   1. count the signal's reads (and, without simulation, its distinct
///      elements); only SimEngine::Materialized collects the trace,
///   2. produce the analytical curve points per access (max + partial +
///      bypass) and the closed-form multi-level footprints,
///   3. count the working-set knees per loop level,
///   4. produce the simulated (Belady) reuse-factor curve down the
///      fidelity ladder (symbolic, streamed/folded, analytic fallback).
///
/// The design stage, designChains, only for callers that print or use
/// hierarchies: enumerate copy-candidate chains over those points and
/// Pareto-filter power vs on-chip size. The service and the partitioning
/// advisor read only the curve and never run it.
///
/// Accesses in different nests (SUSAN's series of loops) are combined by
/// aligning their partial-reuse fractions, as the paper's "combined"
/// curves do; accesses with identical index expressions share one
/// copy-candidate ("the copy-candidates of accesses with identical index
/// expressions are merged").

namespace dr::explorer {

using dr::support::i64;

/// Which trace engine feeds the simulated curve.
enum class SimEngine {
  Auto,          ///< symbolic when closed forms apply, else streaming
  Streaming,     ///< force the streaming pipeline
  Materialized,  ///< collect the full trace first — the reference oracle
  /// Force the closed-form symbolic engine (analytic/symbolic_hist.h):
  /// the whole stack-distance histogram from nest geometry, no trace
  /// walked. Fails with InvalidInput when the signal falls outside the
  /// covered trace classes instead of falling back.
  Symbolic,
};

struct ExploreOptions {
  bool runSimulation = true;  ///< Belady sweep (skip for analytic-only runs)
  /// Trace engine for the simulated sweep. Auto/Streaming never
  /// materialize the trace: one folded OPT stack-distance histogram
  /// answers every curve size (byte-identical to Materialized, pinned by
  /// tests); Materialized keeps the original collect-then-simulate flow.
  SimEngine engine = SimEngine::Auto;
  std::vector<i64> extraSizes;  ///< extra sizes for the simulated sweep
  i64 denseGridUpTo = 64;
  analytic::AnalyticCurveOptions analyticOptions;
  hierarchy::EnumerateOptions chainOptions;
  dr::power::MemoryLibrary library = dr::power::MemoryLibrary::standard();
  bool includeWorkingSetKnees = true;
  /// Also feed selected points of the simulated Belady curve into the
  /// chain enumeration — the paper's Fig. 4b builds its Pareto curve from
  /// exactly those points. Points are subsampled at roughly equal reuse
  /// ratios; requires runSimulation.
  bool includeSimulatedCandidates = true;
  i64 maxSimulatedCandidates = 12;
  /// Drive the streaming engines at run granularity (decoded
  /// constant-stride bursts, simcore/folded_curve.h) instead of one event
  /// at a time. Byte-identical results either way — it is deliberately
  /// *excluded* from the exploration config hash, so cached results are
  /// shared across engines; flip with explore_kernel --engine for A/B
  /// debugging.
  bool runGranularity = true;
  /// Cooperative resource budget shared by every stage of the run
  /// (support/budget.h). A trip never aborts the exploration — the
  /// simulated curve degrades down the ladder instead: exact streaming →
  /// certified fold → approximate fold → analytic-only closed forms, with
  /// SignalExploration::curveFidelity (and every point's fidelity tag)
  /// recording the rung that survived. Null = unlimited.
  const support::RunBudget* budget = nullptr;
};

/// One access's analytic results. Accesses of the same nest with
/// *identical index expressions* share one copy-candidate (paper Section
/// 6.4: "the copy-candidates of accesses with identical index expressions
/// are merged"): one AccessAnalysis represents the whole group, with
/// `occurrences` > 1 and all read counts scaled — the copy is filled once
/// and every duplicate read hits it.
struct AccessAnalysis {
  int nest = 0;
  int accessIndex = 0;  ///< first access of the merged group
  int occurrences = 1;  ///< identical-expression accesses merged in
  std::vector<analytic::AnalyticPoint> points;
  /// Closed-form multi-level footprint points (one per loop level; the
  /// outer knees A_1..A_3 of Fig. 4a in analytical form).
  std::vector<analytic::MultiLevelPoint> multiLevel;
  i64 Ctot = 0;  ///< total reads of the group (occurrences included)
};

struct SignalExploration {
  int signal = -1;
  std::string signalName;
  i64 Ctot = 0;           ///< total reads of the signal
  i64 distinctElements = 0;

  simcore::ReuseCurve simulatedCurve;  ///< empty when !runSimulation
  /// Ladder rung the curve was produced at (every point carries the same
  /// tag): Analytic means the budget tripped before any full-trace counts
  /// existed and the curve holds closed-form points only.
  simcore::Fidelity curveFidelity = simcore::Fidelity::ExactStream;
  /// How the simulated curve was produced (streaming engines only):
  /// whether the periodic fold kicked in and how many events were
  /// actually simulated vs the stream's total.
  simcore::FoldedStats simulationStats;
  std::vector<AccessAnalysis> accesses;
  /// Combined analytic curve over all accesses (sizes and transfer counts
  /// summed at aligned reuse fractions).
  std::vector<analytic::AnalyticPoint> combinedPoints;
  /// Working-set knees per nest touching the signal.
  std::vector<std::vector<analytic::LevelKnee>> kneesPerNest;

  /// Filled by designChains only; empty after exploreSignal*.
  std::vector<hierarchy::ChainDesign> chains;  ///< all enumerated designs
  std::vector<hierarchy::ChainDesign> pareto;  ///< non-dominated designs
};

/// Run the curve stage (steps 1-4) for every read access to `signal`.
SignalExploration exploreSignal(const loopir::Program& p, int signal,
                                const ExploreOptions& opts = {});

/// The design stage: enumerate copy-candidate chains over `exploration`'s
/// analytic points, single-nest knees, exact multi-level footprints and
/// subsampled simulated points, and fill its `chains` and `pareto`.
/// `exploration` must come from exploreSignal*(p, signal, opts) with the
/// same `p` and `opts`.
void designChains(const loopir::Program& p, SignalExploration& exploration,
                  const ExploreOptions& opts = {});

/// FNV-1a 64 content address of one exploration request: hashes the
/// *normalized* kernel, the signal, the engine/size-grid configuration,
/// and the journal format/code versions — everything that determines the
/// resulting curve, and nothing that doesn't (budgets are excluded, so a
/// budgeted run may reuse an unbudgeted result). This is the key of the
/// journal record, of the service result cache (src/service/), and of
/// explore_kernel's --cache-dir warm files: equal hashes mean the cached
/// curve answers the request byte-identically.
std::uint64_t exploreConfigHash(const loopir::Program& p, int signal,
                                const ExploreOptions& opts = {});

/// Non-throwing facade over exploreSignal (the curve stage) for
/// user-input-driven callers (the CLI and example binaries): input problems
/// come back as a Status instead of an exception — InvalidInput for a bad
/// signal / never-read signal, Overflow when the requested bounds leave the
/// i64 range (8K+ frames on deep products), BudgetExceeded when an
/// allocation gives out.
/// Internal invariant violations still throw: those are library bugs.
support::Expected<SignalExploration> exploreSignalChecked(
    const loopir::Program& p, int signal, const ExploreOptions& opts = {});

/// Durable reuse of the simulated curve through a journal file
/// (support/journal.h): one CRC-checksummed record per curve — its
/// points and stream totals — under the request's config hash (kernel,
/// signal, engine configuration, code version).
struct ResumeContext {
  std::string journalPath;
  /// True: load an existing record at journalPath and, when it answers
  /// this request, skip the engine pass. False: ignore it and recompute.
  bool resume = true;
  /// No effect: every curve is written with one fsync. Kept so existing
  /// positional initializers ({path, resume, 1}) still compile.
  support::i64 commitEveryPoints = 1;
};

/// What a journaled exploration did — for the CLI's one-line summary.
struct ResumeSummary {
  bool journalLoaded = false;  ///< a prior record answered this run
  /// An existing file was rejected (torn or corrupt record, version skew,
  /// config mismatch, or a record that does not cover the planned sizes)
  /// and the curve was recomputed; restartReason says why. Never set on a
  /// fresh run with no prior file.
  bool restarted = false;
  std::string restartReason;
  support::i64 pointsReused = 0;      ///< curve points taken from the record
  support::i64 pointsRecomputed = 0;  ///< curve points computed this run
};

/// exploreSignalChecked with a durable journal: a prior record whose
/// config hash, read count and planned sizes match replaces the engine
/// pass; anything else restarts clean (summary.restartReason says why).
/// A freshly computed exact curve (Fidelity::Symbolic/ExactStream/
/// ExactFold) is written once, atomically (temp file, fsync, rename), so
/// the path holds a complete record or nothing new. A degraded run writes
/// nothing, so a later run redoes it at full fidelity. A failed write
/// surfaces as StatusCode::IoError. A replayed curve is byte-identical to
/// a computed one (pinned by tests/test_resume.cpp).
support::Expected<SignalExploration> exploreSignalChecked(
    const loopir::Program& p, int signal, const ExploreOptions& opts,
    const ResumeContext& resume, ResumeSummary* summary = nullptr);

/// Combine per-access analytic points into signal-level candidate points
/// by aligning partial-reuse fractions (exposed for tests and benches).
std::vector<analytic::AnalyticPoint> combineAccessPoints(
    const std::vector<AccessAnalysis>& accesses);

/// Convert analytic points to chain candidate points for `Ctot` total
/// signal reads (bypassReads filled from the point's bypass totals).
std::vector<hierarchy::CandidatePoint> toCandidates(
    const std::vector<analytic::AnalyticPoint>& points, i64 Ctot);

/// One evaluated loop ordering of the nest reading a signal.
struct OrderingResult {
  std::vector<int> perm;  ///< new level l runs old loop perm[l]
  /// Best copy-candidate fitting the size budget under this ordering
  /// (closed-form multi-level points, summed over the signal's accesses).
  i64 bestSize = 0;
  i64 bestMisses = 0;  ///< background transfers with that copy
  double bestFR = 1.0;
  bool exact = true;
  bool feasible = false;  ///< some level fits the budget
  /// Folded-simulation cross-check (filled for the top validateTopK
  /// orderings only): exact OPT misses of one shared buffer of bestSize
  /// serving all the signal's reads under this ordering. -1 when not
  /// validated. The analytic bestMisses models one coherent copy per
  /// access, so the two counts agree only when that model is tight.
  i64 simMisses = -1;
  bool simExact = false;  ///< FoldedStats.exact of the validation run
};

/// Evaluate every loop ordering of the (single) nest reading `signal`
/// with the outer `fixedPrefix` loops pinned — the per-ordering reuse
/// decision of paper Section 3, step 3 ("the optimal memory hierarchy
/// cost for each of the signals and each loop nest ordering separately").
/// Results are sorted best (fewest background transfers) first. The top
/// `validateTopK` orderings are additionally cross-checked against the
/// streaming folded OPT simulation (simMisses/simExact), so the analytic
/// ranking's winners carry exact simulated miss counts without paying a
/// full sweep for every permutation.
/// Preconditions: the signal is read in exactly one nest; sizeBudget >= 1.
/// `budget` (optional) gates both sweeps cooperatively: orderings claimed
/// after a trip keep their default (infeasible) slot, and validation runs
/// cut short leave simMisses = -1 — degraded, never thrown.
std::vector<OrderingResult> orderingSweep(
    const loopir::Program& p, int signal, i64 sizeBudget,
    int fixedPrefix = 0, int validateTopK = 0,
    const support::RunBudget* budget = nullptr);

}  // namespace dr::explorer
