#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "explorer/explorer.h"
#include "loopir/program.h"
#include "partition/partition.h"
#include "support/status.h"

/// \file advisor.h
/// Whole-kernel capacity co-exploration: explore every read signal of a
/// kernel (any fidelity rung — symbolic, folded, run, element), convert
/// each simulated reuse curve into an ObjectCurve, and solve the shared
/// capacity placement (partition.h). This is the first consumer that
/// crosses signal boundaries: the paper's per-signal chains answer "how
/// big a copy does *this* array want", the advisor answers "who gets the
/// cache" — pincpt's `reduction [%]` table, predicted instead of
/// measured.
///
/// The service exposes the same flow as the `Advise` verb: the server
/// rebuilds ObjectCurves from per-signal cached curve CSVs (service
/// result cache), so an Advise reply is byte-identical to the cold CLI
/// (pinned by tests/test_partition.cpp). objectCurveFromCsv exists for
/// exactly that path.

namespace dr::partition {

struct AdvisorOptions {
  SolveOptions solve;
  explorer::ExploreOptions explore;
  /// Optional warm-journal location per exploration config hash (the
  /// service's warmJournalPath, explore_kernel's --cache-dir). When
  /// set, per-signal explorations run journaled: a matching curve record
  /// is replayed across runs and a newly computed exact curve persisted.
  std::function<std::string(std::uint64_t)> journalPathFor;
};

/// The advisor's full answer for one kernel.
struct AdvisorReport {
  std::string kernel;                ///< Program::name
  std::vector<ObjectCurve> objects;  ///< one per read signal, signal order
  PartitionResult result;
  /// Least trustworthy rung across the input curves — the fidelity of
  /// the *prediction*: exact rungs mean the miss counts are exact OPT
  /// counts, degraded rungs mean the placement rests on approximations.
  simcore::Fidelity worstFidelity = simcore::Fidelity::ExactStream;
  support::i64 solveMicros = 0;  ///< solver wall time (metrics only)
};

/// Indices of signals with at least one read access, ascending — the
/// advisor's object set and its canonical object order.
std::vector<int> readSignals(const loopir::Program& p);

/// ObjectCurve from an explored signal: the simulated curve's points
/// become the steps (writes = misses into the copy), with a running-min
/// repair for non-exact rungs; Failed points (no counts) are dropped.
ObjectCurve objectCurveFromExploration(const explorer::SignalExploration& e);

/// ObjectCurve from a cached curve CSV (report::curveCsv format:
/// "size,writes,reads,reuse_factor" header, %.6f fixed-decimal rows) —
/// how the service path rebuilds curves without re-simulation. Counts
/// round-trip exactly through the fixed-decimal encoding. InvalidInput
/// on malformed CSV.
support::Expected<ObjectCurve> objectCurveFromCsv(
    std::string name, support::i64 Ctot, support::i64 distinctElements,
    simcore::Fidelity fidelity, std::string_view csv);

/// Solve the placement over prebuilt curves (both service and CLI end
/// here, which is what makes their reports byte-identical).
AdvisorReport adviseFromCurves(std::string kernelName,
                               std::vector<ObjectCurve> objects,
                               const SolveOptions& solve);

/// Full flow: explore every read signal (journaled when
/// opts.journalPathFor is set), then solve. InvalidInput when the
/// kernel has no read signals or a solve option is out of range;
/// exploration failures propagate with the failing signal named.
support::Expected<AdvisorReport> adviseKernelChecked(
    const loopir::Program& p, const AdvisorOptions& opts);

/// Content address of one advise request: chains the per-signal
/// exploreConfigHash of every read signal (so it inherits everything
/// the curve cache keys on — normalized kernel, engine, size grid,
/// format versions) plus the solve parameters. Keys the service's
/// advise result cache.
std::uint64_t adviseConfigHash(const loopir::Program& p,
                               const AdvisorOptions& opts);

}  // namespace dr::partition
