#pragma once

#include <string>
#include <vector>

#include "analytic/pair_analysis.h"
#include "analytic/partial.h"
#include "trace/address_map.h"

/// \file curve.h
/// Assembles the analytically computed points of the data-reuse-factor
/// curve for one access (paper Fig. 10a): for every loop level that
/// carries reuse under the pair model, the maximum-reuse point (Section
/// 6.1) plus the partial-reuse points with and without bypass (Section
/// 6.2). Levels the closed-form model cannot see (multi-loop interactions,
/// the paper's listed future work) are covered by the working-set knees,
/// the library's equivalent of the paper's simulation fallback ("for other
/// kind of expressions we will rely on simulation", §5.1). The knees too
/// come from the loop description where it allows: no walk of the
/// iteration space runs on the query path for a single-expression group,
/// and workingSetKneesByWalk is kept as the oracle tests and fuzzing
/// compare against.

namespace dr::analytic {

/// One analytically derived copy-candidate design point.
struct AnalyticPoint {
  dr::support::i64 size = 0;     ///< copy-candidate size A, elements
  Rational FRExact = 1;          ///< reuse factor of the copy level
  double FR = 1.0;
  dr::support::i64 CjTotal = 0;  ///< writes into the copy over the program
  dr::support::i64 CtotCopyTotal = 0;    ///< reads arriving at the copy
  dr::support::i64 CtotBypassTotal = 0;  ///< reads bypassing the copy
  int level = -1;                ///< pair outer loop p
  dr::support::i64 gamma = -1;   ///< -1 for the maximum-reuse point
  bool bypass = false;
  bool exact = true;             ///< closed form valid (see pair_analysis.h)
  std::string label;             ///< e.g. "L4 max", "L4 g=3 bypass"
};

struct AnalyticCurveOptions {
  dr::support::i64 partialStride = 1;  ///< gamma step between partial points
  bool withBypass = true;
  /// Cap on partial points per level; the stride is widened to respect it.
  dr::support::i64 maxPartialPointsPerLevel = 64;
};

/// All analytic points for `access` of `nest` (which must be normalized),
/// sorted ascending by size.
std::vector<AnalyticPoint> analyticReusePoints(
    const LoopNest& nest, const ArrayAccess& access,
    const AnalyticCurveOptions& opts = {});

/// A per-loop-level working-set knee measured by counting (not closed
/// form): holding the full working set of loops [level..innermost] for one
/// iteration of the outer loops yields `misses` compulsory transfers.
struct LevelKnee {
  int level = 0;
  dr::support::i64 workingSetMax = 0;  ///< knee size A (max over windows)
  dr::support::i64 misses = 0;         ///< C_j at that size
  dr::support::i64 Ctot = 0;
  double FR = 1.0;
};

/// Working-set knees of one access (or several merged accesses with
/// identical index expressions — pass all their indices) of one nest.
/// Exact counting, no replacement model. At each level where every access
/// has the same address coefficient on every outer loop, each window is a
/// translate of the first: workingSetMax = |S_l|, misses = outer
/// iterations * |S_l|. When the group reads through one index expression
/// and no inner iterator drives two dimensions, |S_l| is the product of
/// the dimension shapes (footprint.h, windowFootprint) — the padded
/// address map is injective — and nothing is walked; otherwise the first
/// window is counted (a bitmap over its address range). Levels failing
/// the translate precondition fall back to the per-element walk of
/// workingSetKneesByWalk.
std::vector<LevelKnee> workingSetKnees(const loopir::Program& p,
                                       const dr::trace::AddressMap& map,
                                       int nestIdx,
                                       const std::vector<int>& accessIndices);

/// The same knees from one walk of the iteration space, every window of
/// every level held in a hash set — the reference oracle for
/// workingSetKnees.
std::vector<LevelKnee> workingSetKneesByWalk(
    const loopir::Program& p, const dr::trace::AddressMap& map, int nestIdx,
    const std::vector<int>& accessIndices);

/// Distinct elements of `signal` read anywhere in `p`: the union of the
/// level-0 windows of every nest reading it, counted without a trace.
dr::support::i64 distinctReadElements(const loopir::Program& p,
                                      const dr::trace::AddressMap& map,
                                      int signal);

}  // namespace dr::analytic
