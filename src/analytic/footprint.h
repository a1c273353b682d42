#pragma once

#include <optional>
#include <vector>

#include "analytic/pair_analysis.h"
#include "loopir/program.h"
#include "support/intmath.h"

/// \file footprint.h
/// Closed-form multi-level reuse analysis — the paper's declared follow-up
/// ("Currently we are extending the model to characterize multiple level
/// hierarchies", Section 7). The pair model of Sections 5-6 covers the
/// inner knee of the reuse curve; the outer knees (A_1..A_3 of Fig. 4a)
/// correspond to copies holding the *footprint* of deeper loop subsets.
/// Both the footprint sizes and the transfer counts have closed forms for
/// affine accesses:
///
///  * per array dimension, the image of the index expression over the
///    inner loop box is a fixed shape translated by the outer iterators;
///    its element count comes from an exact reachable-offset set, built in
///    O(terms) when the shape is an interval,
///  * the copy for level l holds that footprint for one iteration of the
///    outer loops; its fills are sum over consecutive outer iterations of
///    |S_t \ S_{t-1}|, and the overlap |S_t ^ S_{t-1}| factors per
///    dimension into shifted-set intersections of the same fixed shape.
///    Each step between outer iterations is a carry at some outer level,
///    and every carry at the same level shifts the window by the same
///    vector, so the sum has one term per carry level.
///
/// Everything is computed without touching the trace, and no walk runs on
/// the query path: O(depth^2 * dims) per level once the shapes exist.
/// multiLevelPointsByWalk walks the outer iterations instead; it is the
/// oracle that tests and fuzzing compare the closed form against.

namespace dr::analytic {

using dr::support::i64;

/// Reachable-offset shape of one dimension's index expression over the
/// loops [level, depth): offsets relative to the minimal value.
struct DimShape {
  i64 span = 1;      ///< hi - lo + 1 of the offset range
  i64 count = 1;     ///< reachable offsets (== span when contiguous)
  bool contiguous = true;
  /// Sparse shapes only (empty when contiguous): size span, reachable[0]
  /// and back are true.
  std::vector<bool> reachable;

  /// |S ^ (S + delta)| for this shape: span - |delta| for an interval.
  i64 overlapWithShift(i64 delta) const;
};

/// Shape of `expr` restricted to loops [level, depth) of `nest` (the
/// outer iterators only translate it). Loop d contributes its iterator
/// steps, coeff(d) * step_d apart. Precondition: no empty loop.
DimShape dimShape(const loopir::AffineExpr& expr,
                  const loopir::LoopNest& nest, int level);

/// |S_l|: the distinct index tuples `access` reads over loops
/// [level, depth) for one iteration of the outer loops — the product of
/// its dimensions' shape counts. nullopt when an inner iterator drives two
/// dimensions: the tuples are then no product of the shapes.
std::optional<i64> windowFootprint(const loopir::LoopNest& nest,
                                   const loopir::ArrayAccess& access,
                                   int level);

/// One multi-level analytic design point: a copy at loop level `level`
/// holding the inner footprint for one outer iteration.
struct MultiLevelPoint {
  int level = 0;
  i64 size = 0;     ///< footprint elements (A)
  i64 misses = 0;   ///< fills over the whole nest (C_j)
  i64 Ctot = 0;     ///< reads of the access over the whole nest
  dr::support::Rational FR = 1;
  /// False when the per-dimension factorization does not apply (two
  /// dimensions sharing an inner iterator): size/misses are then not
  /// exact and callers should fall back to counting (workingSetKnees).
  bool exact = true;
};

/// Closed-form points for every loop level of `access` (level 0 =
/// whole-signal copy), fills summed per carry level. Precondition:
/// normalized nest, no empty loop.
std::vector<MultiLevelPoint> multiLevelPoints(const loopir::LoopNest& nest,
                                              const loopir::ArrayAccess& access);

/// The same points with the fills counted by walking every outer tuple —
/// the oracle for multiLevelPoints, equal field for field (exact or not).
std::vector<MultiLevelPoint> multiLevelPointsByWalk(
    const loopir::LoopNest& nest, const loopir::ArrayAccess& access);

}  // namespace dr::analytic
