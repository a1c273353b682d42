#include "analytic/curve.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_set>

#include "analytic/footprint.h"
#include "support/contracts.h"
#include "support/strings.h"
#include "trace/stream.h"

namespace dr::analytic {

using dr::support::i64;

namespace {

AnalyticPoint fromMax(const MaxReuse& max) {
  AnalyticPoint pt;
  pt.size = max.AMax;
  pt.FRExact = max.FRmax;
  pt.FR = max.FRmax.toDouble();
  pt.CjTotal = max.CjTotal();
  pt.CtotCopyTotal = max.CtotTotal();
  pt.CtotBypassTotal = 0;
  pt.level = max.pairOuterLevel;
  pt.gamma = -1;
  pt.bypass = false;
  pt.exact = max.exact;
  pt.label = "L" + std::to_string(max.pairOuterLevel) + " max";
  return pt;
}

AnalyticPoint fromPartial(const MaxReuse& max, const PartialPoint& pp) {
  AnalyticPoint pt;
  pt.size = pp.A;
  pt.FRExact = pp.FR;
  pt.FR = pp.FR.toDouble();
  pt.CjTotal =
      dr::support::checkedMul(pp.missesPerOuter, max.outerIterations);
  pt.CtotCopyTotal =
      dr::support::checkedMul(pp.CtotCopyPerOuter, max.outerIterations);
  pt.CtotBypassTotal =
      dr::support::checkedMul(pp.CtotBypassPerOuter, max.outerIterations);
  pt.level = max.pairOuterLevel;
  pt.gamma = pp.gamma;
  pt.bypass = pp.bypass;
  pt.exact = max.exact;
  pt.label = "L" + std::to_string(max.pairOuterLevel) +
             " g=" + std::to_string(pp.gamma) + (pp.bypass ? " bypass" : "");
  return pt;
}

}  // namespace

std::vector<AnalyticPoint> analyticReusePoints(
    const LoopNest& nest, const ArrayAccess& access,
    const AnalyticCurveOptions& opts) {
  DR_REQUIRE(opts.partialStride >= 1);
  DR_REQUIRE(opts.maxPartialPointsPerLevel >= 1);
  std::vector<AnalyticPoint> out;
  for (int p = nest.depth() - 2; p >= 0; --p) {
    MaxReuse max = analyzePair(nest, access, p);
    if (!max.hasReuse) continue;
    out.push_back(fromMax(max));
    GammaRange range = gammaRange(max);
    if (range.empty() || max.reuseRepeat != 1) continue;
    i64 stride = opts.partialStride;
    while ((range.count() + stride - 1) / stride >
           opts.maxPartialPointsPerLevel)
      ++stride;
    for (const PartialPoint& pp :
         partialCurve(max, stride, opts.withBypass))
      out.push_back(fromPartial(max, pp));
  }
  std::sort(out.begin(), out.end(),
            [](const AnalyticPoint& a, const AnalyticPoint& b) {
              if (a.size != b.size) return a.size < b.size;
              return a.FR < b.FR;
            });
  return out;
}

namespace {

/// Distinct addresses over all events of `windows`: a bitmap over their
/// address range when it costs no more memory than the events themselves,
/// sort + unique when the range is sparse.
i64 countDistinct(const std::vector<dr::trace::LoweredNest>& windows) {
  i64 lo = std::numeric_limits<i64>::max();
  i64 hi = std::numeric_limits<i64>::min();
  i64 events = 0;
  for (const dr::trace::LoweredNest& w : windows) {
    if (w.events() == 0) continue;
    const auto [wlo, whi] = w.addressRange();
    lo = std::min(lo, wlo);
    hi = std::max(hi, whi);
    events = dr::support::checkedAdd(events, w.events());
  }
  if (events == 0) return 0;
  const auto extent = static_cast<std::uint64_t>(hi) -
                      static_cast<std::uint64_t>(lo) + 1;
  if (extent / 64 > static_cast<std::uint64_t>(events)) {
    std::vector<i64> addrs;
    addrs.reserve(static_cast<std::size_t>(events));
    for (const dr::trace::LoweredNest& w : windows)
      dr::trace::walkNest(w, [&](const dr::trace::AccessEvent& ev) {
        addrs.push_back(ev.address);
      });
    std::sort(addrs.begin(), addrs.end());
    return static_cast<i64>(std::unique(addrs.begin(), addrs.end()) -
                            addrs.begin());
  }
  std::vector<std::uint64_t> bits(static_cast<std::size_t>((extent + 63) / 64));
  i64 distinct = 0;
  for (const dr::trace::LoweredNest& w : windows)
    dr::trace::walkNest(w, [&](const dr::trace::AccessEvent& ev) {
      const auto off = static_cast<std::uint64_t>(ev.address - lo);
      std::uint64_t& word = bits[static_cast<std::size_t>(off / 64)];
      const std::uint64_t mask = std::uint64_t{1} << (off % 64);
      distinct += (word & mask) == 0 ? 1 : 0;
      word |= mask;
    });
  return distinct;
}

/// The first level-`level` window of `nest`: loops [level, depth) with the
/// outer loops pinned at their begin values, folded into the bases.
dr::trace::LoweredNest firstWindow(const dr::trace::LoweredNest& nest,
                                   int level) {
  const auto ul = static_cast<std::size_t>(level);
  dr::trace::LoweredNest w;
  w.loops.assign(nest.loops.begin() + static_cast<std::ptrdiff_t>(ul),
                 nest.loops.end());
  for (const dr::trace::LoweredAccess& acc : nest.accesses) {
    dr::trace::LoweredAccess a = acc;
    for (std::size_t d = 0; d < ul; ++d)
      a.base += acc.levelCoeff[d] * nest.loops[d].begin;
    a.levelCoeff.erase(a.levelCoeff.begin(),
                       a.levelCoeff.begin() + static_cast<std::ptrdiff_t>(ul));
    w.accesses.push_back(std::move(a));
  }
  return w;
}

dr::trace::LoweredNest lowerGroup(const loopir::Program& p,
                                  const dr::trace::AddressMap& map,
                                  int nestIdx,
                                  const std::vector<int>& accessIndices) {
  DR_REQUIRE(nestIdx >= 0 && nestIdx < static_cast<int>(p.nests.size()));
  DR_REQUIRE(!accessIndices.empty());
  const loopir::LoopNest& nest = p.nests[static_cast<std::size_t>(nestIdx)];
  dr::trace::LoweredNest out;
  for (const loopir::Loop& l : nest.loops)
    out.loops.push_back(dr::trace::LoweredLoop{l.begin, l.step, l.tripCount()});
  for (int a : accessIndices) {
    DR_REQUIRE(a >= 0 && a < static_cast<int>(nest.body.size()));
    out.accesses.push_back(dr::trace::lowerAccess(
        map, nest, nest.body[static_cast<std::size_t>(a)], nestIdx, a));
  }
  return out;
}

/// Per-element walk over levels [fromLevel, depth) of nest `nestIdx`: one
/// window set per level, holding the working set of loops
/// [level..innermost] for the current iteration of the loops above. Level
/// 0's window is the whole execution.
void walkKnees(const loopir::Program& p, const dr::trace::AddressMap& map,
               int nestIdx, const std::vector<int>& accessIndices,
               int fromLevel, std::vector<LevelKnee>& knees) {
  DR_REQUIRE(nestIdx >= 0 && nestIdx < static_cast<int>(p.nests.size()));
  DR_REQUIRE(!accessIndices.empty());
  const loopir::LoopNest& nest = p.nests[static_cast<std::size_t>(nestIdx)];
  const int depth = nest.depth();
  std::vector<std::unordered_set<i64>> window(
      static_cast<std::size_t>(depth));

  // Walk this nest only, tracking the odometer ourselves so we can see
  // which loop level advanced (trace::walk does not expose it).
  std::vector<i64> iter(static_cast<std::size_t>(depth));
  std::vector<i64> trip(static_cast<std::size_t>(depth));
  for (int d = 0; d < depth; ++d) {
    iter[static_cast<std::size_t>(d)] =
        nest.loops[static_cast<std::size_t>(d)].begin;
    trip[static_cast<std::size_t>(d)] =
        nest.loops[static_cast<std::size_t>(d)].tripCount();
  }
  std::vector<i64> k(static_cast<std::size_t>(depth), 0);

  auto flushWindows = [&](int level) {
    // Loops at `level` and deeper got a new outer iteration: record the
    // finished windows and clear them.
    for (int l = std::max(level, fromLevel); l < depth; ++l) {
      auto ul = static_cast<std::size_t>(l);
      knees[ul].workingSetMax = std::max(
          knees[ul].workingSetMax, static_cast<i64>(window[ul].size()));
      window[ul].clear();
    }
  };

  std::vector<i64> index;
  for (;;) {
    for (int a : accessIndices) {
      DR_REQUIRE(a >= 0 && a < static_cast<int>(nest.body.size()));
      const loopir::ArrayAccess& acc =
          nest.body[static_cast<std::size_t>(a)];
      index.clear();
      for (const loopir::AffineExpr& e : acc.indices)
        index.push_back(e.evaluate(iter));
      i64 addr = map.address(acc.signal, index);
      for (int l = fromLevel; l < depth; ++l) {
        auto ul = static_cast<std::size_t>(l);
        ++knees[ul].Ctot;
        if (window[ul].insert(addr).second) ++knees[ul].misses;
      }
    }
    int d = depth - 1;
    for (; d >= 0; --d) {
      auto ud = static_cast<std::size_t>(d);
      if (++k[ud] < trip[ud]) {
        iter[ud] += nest.loops[ud].step;
        break;
      }
      k[ud] = 0;
      iter[ud] = nest.loops[ud].begin;
    }
    if (d < 0) break;
    // Levels deeper than d start fresh windows.
    flushWindows(d + 1);
  }
  flushWindows(0);
}

std::vector<LevelKnee> emptyKnees(int depth) {
  std::vector<LevelKnee> knees(static_cast<std::size_t>(depth));
  for (int l = 0; l < depth; ++l) knees[static_cast<std::size_t>(l)].level = l;
  return knees;
}

void finishFR(std::vector<LevelKnee>& knees) {
  for (LevelKnee& knee : knees)
    knee.FR = knee.misses == 0 ? static_cast<double>(knee.Ctot)
                               : static_cast<double>(knee.Ctot) /
                                     static_cast<double>(knee.misses);
}

}  // namespace

std::vector<LevelKnee> workingSetKnees(const loopir::Program& p,
                                       const dr::trace::AddressMap& map,
                                       int nestIdx,
                                       const std::vector<int>& accessIndices) {
  const dr::trace::LoweredNest nest =
      lowerGroup(p, map, nestIdx, accessIndices);
  const int depth = nest.depth();
  std::vector<LevelKnee> knees = emptyKnees(depth);

  // Level l has translate windows when every access carries the same
  // address coefficient on each outer loop [0, l): true for a prefix of
  // levels, [0, shared].
  int shared = 0;
  while (shared < depth) {
    const auto us = static_cast<std::size_t>(shared);
    bool same = true;
    for (const dr::trace::LoweredAccess& acc : nest.accesses)
      same = same && acc.levelCoeff[us] == nest.accesses.front().levelCoeff[us];
    if (!same) break;
    ++shared;
  }
  i64 Ctot = static_cast<i64>(nest.accesses.size());
  for (const dr::trace::LoweredLoop& l : nest.loops)
    Ctot = dr::support::checkedMul(Ctot, l.trip);
  // An empty iteration space is left to the walk, whatever it counts.
  const int countedLevels = Ctot == 0 ? 0 : std::min(depth, shared + 1);

  // A group reading through one index expression reads one index tuple
  // set per window; the padded address map is injective, so |S_l| is the
  // tuple count, which the per-dimension shapes give wherever no inner
  // iterator drives two dimensions.
  const loopir::LoopNest& loopNest = p.nests[static_cast<std::size_t>(nestIdx)];
  const loopir::ArrayAccess& first =
      loopNest.body[static_cast<std::size_t>(accessIndices.front())];
  bool oneExpression = true;
  for (int a : accessIndices) {
    const loopir::ArrayAccess& acc = loopNest.body[static_cast<std::size_t>(a)];
    oneExpression = oneExpression && acc.signal == first.signal &&
                    acc.indices == first.indices;
  }

  // Every level-l window is a translate of the first, so one count of the
  // first gives the largest window and, times the outer iterations, the
  // fills.
  i64 outerIterations = 1;
  for (int l = 0; l < countedLevels; ++l) {
    LevelKnee& knee = knees[static_cast<std::size_t>(l)];
    const std::optional<i64> shaped =
        oneExpression ? windowFootprint(loopNest, first, l) : std::nullopt;
    knee.workingSetMax =
        shaped ? *shaped : countDistinct({firstWindow(nest, l)});
    knee.misses = dr::support::checkedMul(outerIterations, knee.workingSetMax);
    knee.Ctot = Ctot;
    outerIterations = dr::support::checkedMul(
        outerIterations, nest.loops[static_cast<std::size_t>(l)].trip);
  }
  if (countedLevels < depth)
    walkKnees(p, map, nestIdx, accessIndices, countedLevels, knees);
  finishFR(knees);
  return knees;
}

std::vector<LevelKnee> workingSetKneesByWalk(
    const loopir::Program& p, const dr::trace::AddressMap& map, int nestIdx,
    const std::vector<int>& accessIndices) {
  DR_REQUIRE(nestIdx >= 0 && nestIdx < static_cast<int>(p.nests.size()));
  std::vector<LevelKnee> knees =
      emptyKnees(p.nests[static_cast<std::size_t>(nestIdx)].depth());
  walkKnees(p, map, nestIdx, accessIndices, 0, knees);
  finishFR(knees);
  return knees;
}

i64 distinctReadElements(const loopir::Program& p,
                         const dr::trace::AddressMap& map, int signal) {
  dr::trace::TraceFilter filter;
  filter.signal = signal;
  return countDistinct(dr::trace::lowerProgram(p, map, filter));
}

}  // namespace dr::analytic
