#include "analytic/footprint.h"

#include <algorithm>
#include <map>

#include "support/contracts.h"

namespace dr::analytic {

using dr::support::checkedAdd;
using dr::support::checkedMul;
using dr::support::checkedSub;
using loopir::AffineExpr;
using loopir::ArrayAccess;
using loopir::LoopNest;

i64 DimShape::overlapWithShift(i64 delta) const {
  if (delta < 0) delta = -delta;
  if (delta >= span) return 0;
  if (contiguous) return span - delta;
  i64 n = 0;
  for (i64 i = 0; i + delta < span; ++i)
    if (reachable[static_cast<std::size_t>(i)] &&
        reachable[static_cast<std::size_t>(i + delta)])
      ++n;
  return n;
}

DimShape dimShape(const AffineExpr& expr, const LoopNest& nest, int level) {
  DR_REQUIRE(level >= 0 && level <= nest.depth());

  // Offsets Σ |c_d·step_d| * x_d, x_d in [0, trip_d - 1]; the sign of a
  // step only mirrors the set, which changes neither counts nor shifted
  // overlaps. Single-trip loops add nothing.
  std::vector<std::pair<i64, i64>> terms;  // (|coeff·step|, trip)
  for (int d = level; d < nest.depth(); ++d) {
    const loopir::Loop& loop = nest.loops[static_cast<std::size_t>(d)];
    const i64 trip = loop.tripCount();
    DR_REQUIRE(trip >= 1);
    i64 c = checkedMul(expr.coeff(d), loop.step);
    if (c == 0 || trip == 1) continue;
    terms.emplace_back(c < 0 ? -c : c, trip);
  }

  // In ascending step order, a term whose step is no larger than the
  // offsets reached so far, [0, span), extends them to one interval
  // [0, span + c·(trip - 1)). The first term that steps further leaves
  // the offset `span` unreachable for good: the shape is sparse.
  std::sort(terms.begin(), terms.end());
  DimShape shape;
  for (auto [c, trip] : terms) {
    shape.contiguous = shape.contiguous && c <= shape.span;
    shape.span = checkedAdd(shape.span, checkedMul(c, trip - 1));
  }
  if (shape.contiguous) {
    shape.count = shape.span;
    return shape;
  }

  shape.reachable.assign(static_cast<std::size_t>(shape.span), false);
  shape.reachable[0] = true;
  for (auto [c, trip] : terms) {
    std::vector<bool> next(static_cast<std::size_t>(shape.span), false);
    for (i64 x = 0; x < trip; ++x) {
      i64 shift = checkedMul(c, x);
      if (shift >= shape.span) break;
      for (i64 i = 0; i + shift < shape.span; ++i)
        if (shape.reachable[static_cast<std::size_t>(i)])
          next[static_cast<std::size_t>(i + shift)] = true;
    }
    shape.reachable = std::move(next);
  }
  shape.count = static_cast<i64>(
      std::count(shape.reachable.begin(), shape.reachable.end(), true));
  DR_ENSURE(shape.count < shape.span);
  DR_ENSURE(shape.reachable.front() && shape.reachable.back());
  return shape;
}

namespace {

/// The shapes of every dimension of `access` over loops [level, depth)
/// and the product of their counts; `exact` is false when an inner
/// iterator drives two dimensions, where the product only bounds the
/// footprint from above.
struct LevelShapes {
  std::vector<DimShape> dims;
  i64 size = 1;
  bool exact = true;
};

LevelShapes levelShapes(const LoopNest& nest, const ArrayAccess& access,
                        int level) {
  LevelShapes out;
  for (int d = level; d < nest.depth(); ++d) {
    int users = 0;
    for (const AffineExpr& e : access.indices)
      if (e.dependsOn(d)) ++users;
    if (users > 1) out.exact = false;
  }
  out.dims.reserve(access.indices.size());
  for (const AffineExpr& e : access.indices) {
    out.dims.push_back(dimShape(e, nest, level));
    out.size = checkedMul(out.size, out.dims.back().count);
  }
  return out;
}

/// Fills of the level-`level` copy over the whole nest, in closed form.
/// Consecutive outer tuples differ by one carry at some level c < level:
/// loop c steps once and loops (c, level) wrap from last to first, which
/// moves dimension d's window by the fixed
///   δ_{c,d} = coeff_d(c) - Σ_{c<w<level} coeff_d(w)·(trip_w - 1).
/// N_c = Π_{e<c} trip_e · (trip_c - 1) moves carry at c, so
///   fills = |S| + Σ_c N_c·(|S| - Π_d overlap_d(δ_{c,d})).
i64 fillsByCarries(const LoopNest& nest, const ArrayAccess& access,
                   int level, const LevelShapes& shapes) {
  i64 fills = shapes.size;
  i64 outer = 1;  // Π_{e<c} trip_e
  for (int c = 0; c < level; ++c) {
    const i64 trip = nest.loops[static_cast<std::size_t>(c)].tripCount();
    const i64 carries = checkedMul(outer, trip - 1);
    outer = checkedMul(outer, trip);
    if (carries == 0) continue;
    i64 overlap = 1;
    for (std::size_t d = 0; d < access.indices.size(); ++d) {
      const AffineExpr& e = access.indices[d];
      i64 delta = e.coeff(c);
      for (int w = c + 1; w < level; ++w)
        delta = checkedSub(
            delta,
            checkedMul(e.coeff(w),
                       nest.loops[static_cast<std::size_t>(w)].tripCount() -
                           1));
      overlap = checkedMul(overlap, shapes.dims[d].overlapWithShift(delta));
    }
    fills = checkedAdd(fills, checkedMul(carries, shapes.size - overlap));
  }
  return fills;
}

/// The same fills by walking every outer tuple, each window translated by
/// the change of the outer contribution.
i64 fillsByWalk(const LoopNest& nest, const ArrayAccess& access, int level,
                const LevelShapes& shapes) {
  const std::size_t dims = access.indices.size();
  std::vector<i64> iter(static_cast<std::size_t>(level));
  std::vector<i64> k(static_cast<std::size_t>(level), 0);
  for (int d = 0; d < level; ++d)
    iter[static_cast<std::size_t>(d)] =
        nest.loops[static_cast<std::size_t>(d)].begin;

  auto outerBase = [&](const AffineExpr& e) {
    i64 v = 0;
    for (int d = 0; d < level; ++d)
      v = checkedAdd(
          v, checkedMul(e.coeff(d), iter[static_cast<std::size_t>(d)]));
    return v;
  };

  std::vector<i64> prevBase(dims);
  for (std::size_t d = 0; d < dims; ++d)
    prevBase[d] = outerBase(access.indices[d]);
  std::vector<std::map<i64, i64>> overlapCache(dims);
  i64 fills = shapes.size;
  for (;;) {
    int d = level - 1;
    for (; d >= 0; --d) {
      auto ud = static_cast<std::size_t>(d);
      if (++k[ud] < nest.loops[ud].tripCount()) {
        iter[ud] += 1;
        break;
      }
      k[ud] = 0;
      iter[ud] = nest.loops[ud].begin;
    }
    if (d < 0) break;
    i64 overlap = 1;
    for (std::size_t dim = 0; dim < dims; ++dim) {
      const i64 base = outerBase(access.indices[dim]);
      const i64 delta = base - prevBase[dim];
      prevBase[dim] = base;
      auto [it, inserted] = overlapCache[dim].try_emplace(delta, 0);
      if (inserted) it->second = shapes.dims[dim].overlapWithShift(delta);
      overlap = checkedMul(overlap, it->second);
    }
    fills = checkedAdd(fills, shapes.size - overlap);
  }
  return fills;
}

template <class Fills>
std::vector<MultiLevelPoint> pointsPerLevel(const LoopNest& nest,
                                            const ArrayAccess& access,
                                            Fills fills) {
  for (const loopir::Loop& l : nest.loops) {
    DR_REQUIRE(l.isNormalized());
    DR_REQUIRE(l.tripCount() >= 1);
  }
  const i64 Ctot = nest.iterationCount();
  std::vector<MultiLevelPoint> out;
  for (int level = 0; level < nest.depth(); ++level) {
    const LevelShapes shapes = levelShapes(nest, access, level);
    MultiLevelPoint pt;
    pt.level = level;
    pt.Ctot = Ctot;
    pt.size = shapes.size;
    pt.exact = shapes.exact;
    pt.misses = fills(nest, access, level, shapes);
    DR_CHECK(pt.misses >= 1);
    pt.FR = dr::support::Rational(pt.Ctot, pt.misses);
    out.push_back(std::move(pt));
  }
  return out;
}

}  // namespace

std::optional<i64> windowFootprint(const LoopNest& nest,
                                   const ArrayAccess& access, int level) {
  const LevelShapes shapes = levelShapes(nest, access, level);
  if (!shapes.exact) return std::nullopt;
  return shapes.size;
}

std::vector<MultiLevelPoint> multiLevelPoints(const LoopNest& nest,
                                              const ArrayAccess& access) {
  return pointsPerLevel(nest, access, fillsByCarries);
}

std::vector<MultiLevelPoint> multiLevelPointsByWalk(
    const LoopNest& nest, const ArrayAccess& access) {
  return pointsPerLevel(nest, access, fillsByWalk);
}

}  // namespace dr::analytic
