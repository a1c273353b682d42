#pragma once

#include <vector>

#include "simcore/reuse_curve.h"
#include "simcore/stream_stack.h"
#include "support/budget.h"
#include "trace/period.h"
#include "trace/stream.h"

/// \file folded_curve.h
/// Reuse curves straight from the loop nest, without materializing the
/// trace — the ISSUE-2 streaming pipeline's simulation half.
///
/// The pipeline: trace::TraceCursor generates the filtered access stream
/// in bounded chunks; trace::detectPeriod proves (symbolically, from the
/// lowered affine coefficients) that chunk c+1 is a shifted copy of chunk
/// c; this file drives the streaming stack-distance accumulators
/// (stream_stack.h) over the warmup chunks plus a few measured periods,
/// certifies that the per-chunk histogram increments have reached their
/// steady state, and extrapolates the exact full-trace histogram — so a
/// 4K motion-estimation frame costs a couple of periods of simulation
/// instead of billions of events.
///
/// The steady state may span several chunks: OPT's slot layering can
/// settle into a cycle of s > 1 chunks even though the address stream
/// shifts every chunk (motion estimation reaches a 2-chunk cycle), so the
/// engine certifies the smallest super-period s in [1, maxSuperPeriod]
/// instead of insisting on s = 1. Certification before folding:
///   - the per-chunk histogram increment, cold-miss increment, and the
///     FNV hash of each chunk's distance *sequence* must replay as an
///     s-cycle for `convergenceRuns` consecutive repetitions;
///   - for OPT additionally the slot-tree state at the fold boundary must
///     be the state s chunks earlier advanced by s*period (busy-until
///     times shift by exactly s*period, or are ancient enough that every
///     future query treats them identically) — OPT has no per-slot
///     steady-state theorem like LRU's, so the engine state itself is the
///     certificate.
/// When certification fails (or no period exists, e.g. multi-nest SUSAN
/// streams), the engine falls back to plainly streaming the remaining
/// events — always exact, just without the fold speedup. Byte-identity
/// of both paths against the materialized engines is pinned by
/// tests/test_folded_stream.cpp.
///
/// OPT on motion estimation never certifies: a band of slots drifts a
/// fraction of a period per chunk (the per-chunk histogram increments
/// wobble by ±1 in ~0.2% of the bins, forever), so no finite super-period
/// replays the state exactly. For such streams
/// FoldedCurveOptions::approximateAfterBudget trades that wobble for the
/// fold speedup and reports it honestly via FoldedStats::exact = false.

namespace dr::simcore {

/// How a folded/streaming simulation was obtained.
struct FoldedStats {
  bool folded = false;  ///< steady state certified and extrapolated
  bool exact = true;    ///< false only for an uncertified extrapolation
  /// False when a tripped RunBudget stopped the run before any full-trace
  /// counts (exact or extrapolated) existed: the returned histogram then
  /// covers only simulatedEvents events and the caller should fall to the
  /// next ladder rung (explorer.h).
  bool completed = true;
  /// Which budget limit cut the run short; None for an unbudgeted or
  /// untripped run.
  support::BudgetTrip trippedBy = support::BudgetTrip::None;
  /// Ladder rung of the returned histogram (reuse_curve.h).
  Fidelity fidelity = Fidelity::ExactStream;
  i64 totalEvents = 0;
  i64 simulatedEvents = 0;  ///< events actually pushed through the engine
  i64 period = 0;           ///< events per chunk (0 when no period found)
  i64 repeatCount = 0;
  i64 warmupEvents = 0;
  i64 distinct = 0;  ///< distinct addresses of the full stream
  /// Chunks per certified steady-state cycle (the super-period s); 0 when
  /// the run did not fold.
  i64 foldPeriodChunks = 0;
  /// True when the engine consumed decoded constant-stride runs
  /// (trace::TraceCursor::nextRuns + pushRun) instead of one event at a
  /// time. Results are byte-identical either way; this only records which
  /// path ran.
  bool runGranularity = false;
  /// Runs decoded by the cursor for this engine (0 on the element path).
  i64 runsDecoded = 0;
  /// Events the accumulators absorbed through closed-form run segments
  /// (the rest fell back to per-element pushes inside pushRun).
  i64 runFastEvents = 0;
};

struct FoldedCurveOptions {
  bool allowFold = true;  ///< false: always stream the whole trace
  /// Chunk size for non-periodic streaming (periodic chunks are one
  /// period long by construction).
  i64 chunkEvents = dr::trace::TraceCursor::kDefaultChunkEvents;
  /// Consecutive repetitions of the per-chunk increment cycle required
  /// before folding.
  int convergenceRuns = 2;
  /// Largest steady-state cycle length (in chunks) to look for.
  int maxSuperPeriod = 4;
  /// Post-warmup chunks to measure before giving up on convergence and
  /// streaming the rest plainly.
  int maxMeasuredChunks = 8;
  /// When the measure budget runs out without a certified steady state,
  /// extrapolate from the most recent chunk anyway and report
  /// FoldedStats::exact = false. The error is bounded by the residual
  /// per-chunk wobble (±1 per affected bin per chunk on motion
  /// estimation); intended for scaling sweeps where streaming billions of
  /// events is the alternative. Default keeps every result byte-exact.
  bool approximateAfterBudget = false;
  /// Consume the stream as decoded constant-stride runs (pushRun fast
  /// path) when the cursor's runLengthHint says the decode can pay off.
  /// Byte-identical to the element path by construction (pushRun falls
  /// back to push() whenever a closed form's precondition fails), so this
  /// is a pure speed knob; only bench_scaling_hd clears it, for its
  /// run-vs-element A/B and the CI guard that reads it.
  bool runGranularity = true;
  /// Cooperative resource budget, polled at chunk boundaries (attached to
  /// the cursor for the run). A trip degrades rather than aborts: a
  /// periodic stream with >= 1 measured chunk extrapolates the rest
  /// (Fidelity::ApproxFold, exact = false); otherwise the run returns its
  /// partial counts with FoldedStats::completed = false. Null = unlimited.
  const support::RunBudget* budget = nullptr;
};

/// Stack-distance histogram of the cursor's whole stream (Opt or Lru
/// policy), folded when `period` permits, streamed otherwise. The cursor
/// is reset first and left exhausted unless folding cut the run short.
/// Results are byte-identical to running the batch engine on the
/// materialized trace.
StackHistogram foldedStackHistogram(dr::trace::TraceCursor& cursor,
                                    const dr::trace::PeriodInfo& period,
                                    Policy policy,
                                    FoldedStats* stats = nullptr,
                                    const FoldedCurveOptions& opts = {});

/// Streaming FIFO simulation of one capacity (FIFO is not a stack
/// algorithm, so no one-pass histogram exists). Takes the cursor by
/// value: per-size sweeps copy one template cursor and run in parallel.
SimResult streamFifo(dr::trace::TraceCursor cursor, i64 capacity,
                     i64 chunkEvents =
                         dr::trace::TraceCursor::kDefaultChunkEvents);

/// simulateReuseCurve straight from the program: generates the filtered
/// read stream on the fly and answers every size from one folded (or
/// streamed) histogram — Opt and Lru never materialize the trace; Fifo
/// sweeps per size with parallel streaming cursors.
ReuseCurve simulateReuseCurve(const loopir::Program& p,
                              const dr::trace::AddressMap& map,
                              const dr::trace::TraceFilter& filter,
                              std::vector<i64> sizes,
                              Policy policy = Policy::Opt,
                              FoldedStats* stats = nullptr,
                              const FoldedCurveOptions& opts = {});

/// optSaturationSize straight from the program (folded when possible).
i64 optSaturationSize(const loopir::Program& p,
                      const dr::trace::AddressMap& map,
                      const dr::trace::TraceFilter& filter,
                      FoldedStats* stats = nullptr);

}  // namespace dr::simcore
