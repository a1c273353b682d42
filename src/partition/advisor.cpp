#include "partition/advisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "support/contracts.h"
#include "support/hash.h"

namespace dr::partition {

using support::i64;

std::vector<int> readSignals(const loopir::Program& p) {
  std::vector<bool> read(p.signals.size(), false);
  for (const loopir::LoopNest& nest : p.nests) {
    for (const loopir::ArrayAccess& a : nest.body) {
      if (a.kind == loopir::AccessKind::Read && a.signal >= 0 &&
          a.signal < static_cast<int>(p.signals.size())) {
        read[static_cast<std::size_t>(a.signal)] = true;
      }
    }
  }
  std::vector<int> out;
  for (std::size_t s = 0; s < read.size(); ++s)
    if (read[s]) out.push_back(static_cast<int>(s));
  return out;
}

namespace {

/// Append curve steps with the running-min repair: sizes strictly
/// ascending, misses clamped non-increasing (exact rungs already are;
/// approximate rungs may wobble) and never above Ctot.
void appendStep(ObjectCurve& c, i64 size, i64 misses) {
  if (size < 1) return;
  i64 floor = c.steps.empty() ? c.Ctot : c.steps.back().misses;
  misses = std::clamp<i64>(misses, 0, floor);
  if (!c.steps.empty() && c.steps.back().size == size) {
    c.steps.back().misses = misses;
    return;
  }
  DR_REQUIRE_MSG(c.steps.empty() || size > c.steps.back().size,
                 "curve sizes not ascending");
  c.steps.push_back({size, misses});
}

}  // namespace

ObjectCurve objectCurveFromExploration(const explorer::SignalExploration& e) {
  ObjectCurve c;
  c.name = e.signalName;
  c.Ctot = e.Ctot;
  c.distinctElements = e.distinctElements;
  c.fidelity = e.curveFidelity;
  for (const simcore::ReusePoint& pt : e.simulatedCurve.points)
    appendStep(c, pt.size, pt.writes);
  return c;
}

support::Expected<ObjectCurve> objectCurveFromCsv(
    std::string name, i64 Ctot, i64 distinctElements,
    simcore::Fidelity fidelity, std::string_view csv) {
  using support::Status;
  using support::StatusCode;
  ObjectCurve c;
  c.name = std::move(name);
  c.Ctot = Ctot;
  c.distinctElements = distinctElements;
  c.fidelity = fidelity;
  if (Ctot < 0 || distinctElements < 0)
    return Status::error(StatusCode::InvalidInput, "negative curve totals");

  std::size_t pos = 0;
  bool header = true;
  while (pos < csv.size()) {
    std::size_t eol = csv.find('\n', pos);
    if (eol == std::string_view::npos) eol = csv.size();
    const std::string_view line = csv.substr(pos, eol - pos);
    pos = eol + 1;
    if (header) {
      if (line != "size,writes,reads,reuse_factor")
        return Status::error(StatusCode::InvalidInput,
                             "unexpected curve CSV header");
      header = false;
      continue;
    }
    if (line.empty()) continue;
    // size,writes,reads,reuse_factor — fixed-decimal doubles; the
    // integer columns round-trip exactly (counts stay far below 2^53).
    double field[3] = {0, 0, 0};
    std::size_t cell = 0, start = 0;
    for (std::size_t i = 0; i <= line.size() && cell < 3; ++i) {
      if (i == line.size() || line[i] == ',') {
        const std::string text(line.substr(start, i - start));
        char* end = nullptr;
        field[cell] = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || !std::isfinite(field[cell]))
          return Status::error(StatusCode::InvalidInput,
                               "bad curve CSV cell: " + text);
        ++cell;
        start = i + 1;
      }
    }
    if (cell < 3)
      return Status::error(StatusCode::InvalidInput,
                           "short curve CSV row");
    const double size = field[0], writes = field[1];
    if (size < 1 || size > 9.0e18 || writes < 0 || writes > 9.0e18)
      return Status::error(StatusCode::InvalidInput,
                           "curve CSV value out of range");
    const i64 sizeI = static_cast<i64>(std::llround(size));
    const i64 writesI = static_cast<i64>(std::llround(writes));
    if (!c.steps.empty() && sizeI <= c.steps.back().size)
      return Status::error(StatusCode::InvalidInput,
                           "curve CSV sizes not ascending");
    appendStep(c, sizeI, writesI);
  }
  if (header)
    return Status::error(StatusCode::InvalidInput, "empty curve CSV");
  return c;
}

AdvisorReport adviseFromCurves(std::string kernelName,
                               std::vector<ObjectCurve> objects,
                               const SolveOptions& solve) {
  AdvisorReport report;
  report.kernel = std::move(kernelName);
  report.worstFidelity = simcore::Fidelity::Symbolic;
  for (const ObjectCurve& c : objects)
    report.worstFidelity = std::max(report.worstFidelity, c.fidelity);
  const auto t0 = std::chrono::steady_clock::now();
  report.result = solvePartition(objects, solve);
  const auto t1 = std::chrono::steady_clock::now();
  report.solveMicros = std::max<i64>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
             .count());
  report.objects = std::move(objects);
  return report;
}

support::Expected<AdvisorReport> adviseKernelChecked(
    const loopir::Program& p, const AdvisorOptions& opts) {
  using support::Status;
  using support::StatusCode;
  const std::vector<int> signals = readSignals(p);
  if (signals.empty())
    return Status::error(StatusCode::InvalidInput,
                         "kernel has no read signals to co-explore");
  std::vector<ObjectCurve> objects;
  {
    Status s = validateSolveInputs(objects, opts.solve);
    if (!s.isOk()) return s;
  }
  if (signals.size() > 63)
    return Status::error(StatusCode::InvalidInput,
                         "more than 63 read signals");
  for (int signal : signals) {
    support::Expected<explorer::SignalExploration> e =
        opts.journalPathFor
            ? explorer::exploreSignalChecked(
                  p, signal, opts.explore,
                  explorer::ResumeContext{opts.journalPathFor(
                      explorer::exploreConfigHash(p, signal, opts.explore))})
            : explorer::exploreSignalChecked(p, signal, opts.explore);
    if (!e.hasValue()) {
      Status s = e.status();
      return Status::error(
          s.code(), "signal \"" + p.signals[signal].name + "\": " +
                        s.message());
    }
    objects.push_back(objectCurveFromExploration(*e));
  }
  {
    Status s = validateSolveInputs(objects, opts.solve);
    if (!s.isOk()) return s;
  }
  return adviseFromCurves(p.name, std::move(objects), opts.solve);
}

std::uint64_t adviseConfigHash(const loopir::Program& p,
                               const AdvisorOptions& opts) {
  std::vector<std::uint64_t> signalHashes;
  for (int signal : readSignals(p))
    signalHashes.push_back(explorer::exploreConfigHash(p, signal, opts.explore));
  return adviseConfigHash(signalHashes, opts.solve);
}

std::uint64_t adviseConfigHash(std::span<const std::uint64_t> signalHashes,
                               const SolveOptions& solve) {
  std::uint64_t h = support::fnv1a("datareuse-advise-v1");
  for (std::uint64_t signalHash : signalHashes)
    h = support::fnv1aU64(h, signalHash);
  h = support::fnv1aByte(h, static_cast<std::uint8_t>(solve.mode));
  h = support::fnv1aU64(h, static_cast<std::uint64_t>(solve.capacity));
  h = support::fnv1aU64(h, static_cast<std::uint64_t>(solve.ways));
  return h;
}

}  // namespace dr::partition
