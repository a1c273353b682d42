// Fuzz target: symbolic reuse-profile engine vs brute-force simulation.
//
// The input bytes are decoded into a small affine loop nest (1-2 signal
// dimensions, depth 1-4, small trips, signed coefficients). The symbolic
// engine (analytic/symbolic_hist.h) classifies the nest and either
// rejects it with a reason or returns a closed-form stack-distance
// histogram; every accepted nest is then replayed element-wise through
// the reference accumulators under BOTH policies. The engine's contract
// is byte-identity: any difference in access count, cold misses, or any
// histogram bin — or any crash / contract violation inside the
// classifier — is a bug. Rejections are free; wrong accepts are not.
//
// The same nests also pin the curve stage's closed forms to their walks:
// the target aborts when multiLevelPoints differs from
// multiLevelPointsByWalk for a read access, or workingSetKnees from
// workingSetKneesByWalk for the nest's read group (on the nest as decoded
// and normalized), in any field.

#include <cstdlib>
#include <string>
#include <vector>

#include "analytic/curve.h"
#include "analytic/footprint.h"
#include "analytic/symbolic_hist.h"
#include "fuzz_util.h"
#include "loopir/normalize.h"
#include "loopir/program.h"
#include "simcore/stream_stack.h"
#include "trace/stream.h"
#include "trace/walker.h"

namespace {

using dr::support::i64;

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t next() { return pos_ < size_ ? data_[pos_++] : 0; }

  /// Signed value in [-bound, bound].
  i64 nextSigned(int bound) {
    return static_cast<i64>(next() % (2 * bound + 1)) - bound;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

dr::loopir::Program decodeProgram(ByteReader& r) {
  dr::loopir::Program p;
  dr::loopir::ArraySignal sig;
  sig.name = "X";
  const int dims = 1 + r.next() % 2;
  for (int d = 0; d < dims; ++d) sig.dims.push_back(64);
  sig.elementBits = 8;
  p.signals.push_back(sig);

  dr::loopir::LoopNest nest;
  const int depth = 1 + r.next() % 4;
  for (int l = 0; l < depth; ++l) {
    dr::loopir::Loop lp;
    lp.name = "i" + std::to_string(l);
    lp.begin = r.nextSigned(1);
    lp.step = 1 + r.next() % 2;
    lp.end = lp.begin + lp.step * (1 + r.next() % 6);
    nest.loops.push_back(lp);
  }
  const int refs = 1 + r.next() % 2;
  for (int a = 0; a < refs; ++a) {
    dr::loopir::ArrayAccess acc;
    acc.signal = 0;
    acc.kind = dr::loopir::AccessKind::Read;
    for (int d = 0; d < dims; ++d) {
      dr::loopir::AffineExpr e;
      e.setConstantTerm(r.next() % 5);
      for (int l = 0; l < depth; ++l)
        if (r.next() % 3 != 0) e.setCoeff(l, r.nextSigned(3) + 1);
      acc.indices.push_back(e);
    }
    nest.body.push_back(acc);
  }
  p.nests.push_back(nest);
  return p;
}

template <class Acc>
dr::simcore::StackHistogram brute(const dr::loopir::Program& pn) {
  dr::trace::AddressMap map(pn);
  dr::trace::TraceFilter f;
  f.signal = 0;
  const auto [lo, hi] = [&] {
    dr::trace::TraceCursor c(pn, map, f);
    return c.addressRange();
  }();
  Acc acc;
  dr::simcore::StreamingDensifier den(lo, hi);
  dr::trace::walk(pn, map, f, [&](const dr::trace::AccessEvent& ev) {
    acc.push(den.idOf(ev.address));
  });
  return acc.finalize();
}

void checkPolicy(const dr::loopir::Program& p,
                 const dr::loopir::Program& pn,
                 dr::simcore::Policy pol) {
  auto sym = dr::analytic::symbolicStackHistogram(p, 0, pol);
  if (!sym.hasValue()) return;  // rejection is always allowed
  const dr::simcore::StackHistogram ref =
      pol == dr::simcore::Policy::Lru
          ? brute<dr::simcore::LruStackAccumulator>(pn)
          : brute<dr::simcore::OptStackAccumulator>(pn);
  if (sym->hist.accesses != ref.accesses ||
      sym->hist.coldMisses != ref.coldMisses ||
      sym->hist.histogram != ref.histogram)
    std::abort();
}

void checkMultiLevel(const dr::loopir::Program& pn) {
  const dr::loopir::LoopNest& nest = pn.nests[0];
  for (const dr::loopir::ArrayAccess& acc : nest.body) {
    const auto fast = dr::analytic::multiLevelPoints(nest, acc);
    const auto walk = dr::analytic::multiLevelPointsByWalk(nest, acc);
    if (fast.size() != walk.size()) std::abort();
    for (std::size_t l = 0; l < fast.size(); ++l)
      if (fast[l].level != walk[l].level || fast[l].size != walk[l].size ||
          fast[l].misses != walk[l].misses || fast[l].Ctot != walk[l].Ctot ||
          fast[l].FR != walk[l].FR || fast[l].exact != walk[l].exact)
        std::abort();
  }
}

void checkKnees(const dr::loopir::Program& p) {
  const dr::trace::AddressMap map(p);
  std::vector<int> group;
  for (std::size_t a = 0; a < p.nests[0].body.size(); ++a)
    group.push_back(static_cast<int>(a));  // every access reads X
  const auto fast = dr::analytic::workingSetKnees(p, map, 0, group);
  const auto walk = dr::analytic::workingSetKneesByWalk(p, map, 0, group);
  if (fast.size() != walk.size()) std::abort();
  for (std::size_t l = 0; l < fast.size(); ++l)
    if (fast[l].level != walk[l].level ||
        fast[l].workingSetMax != walk[l].workingSetMax ||
        fast[l].misses != walk[l].misses || fast[l].Ctot != walk[l].Ctot ||
        fast[l].FR != walk[l].FR)
      std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  ByteReader r(data, size);
  const dr::loopir::Program p = decodeProgram(r);
  const dr::loopir::Program pn = dr::loopir::normalized(p);
  checkPolicy(p, pn, dr::simcore::Policy::Lru);
  checkPolicy(p, pn, dr::simcore::Policy::Opt);
  checkMultiLevel(pn);
  checkKnees(p);
  checkKnees(pn);
  return 0;
}
