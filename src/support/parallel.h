#pragma once

#include <functional>

#include "support/intmath.h"

/// \file parallel.h
/// Minimal deterministic parallelism for the exploration sweeps: a lazily
/// created process-wide thread pool plus a blocking `parallelFor` whose
/// callers write results into per-index slots, so the output is identical
/// to the serial loop regardless of scheduling.
///
/// Thread count: `DR_THREADS` environment variable when set (1 forces the
/// serial path), otherwise std::thread::hardware_concurrency(). Nested
/// parallelFor calls (a task spawning another sweep) degrade to serial
/// execution instead of deadlocking the pool.

namespace dr::support {

class RunBudget;

/// Worker count parallelFor uses by default: DR_THREADS when set (clamped
/// to >= 1), else the hardware concurrency (>= 1).
int parallelThreads();

/// Runs fn(i) for every i in [0, n), blocking until all calls finished.
/// `threads` <= 0 means parallelThreads(). With 1 effective thread (or
/// n <= 1, or when called from inside another parallelFor task) the loop
/// runs serially on the calling thread. The first exception thrown by any
/// fn(i) is rethrown on the caller after the sweep drains; fn must write
/// only to per-index state for the result to be deterministic.
void parallelFor(i64 n, const std::function<void(i64)>& fn, int threads = 0);

/// Budget-aware sweep: indices claimed after `budget` trips are skipped —
/// their output slots keep whatever defaults the caller initialized them
/// to, which the exploration sweeps treat as "not evaluated" (e.g.
/// OrderingResult::simMisses == -1). The sweep still joins fully and
/// still rethrows the first fn exception. Which indices ran before the
/// trip depends on timing; the *content* of every slot that did run stays
/// deterministic. `budget` may be null (plain sweep).
void parallelFor(i64 n, const RunBudget* budget,
                 const std::function<void(i64)>& fn, int threads = 0);

}  // namespace dr::support
