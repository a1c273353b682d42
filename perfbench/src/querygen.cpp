#include "querygen.h"

#include <cmath>
#include <stdexcept>

#include "explorer/explorer.h"
#include "frontend/frontend.h"
#include "kernels/conv2d.h"
#include "kernels/matmul.h"
#include "kernels/motion_estimation.h"
#include "kernels/susan.h"
#include "kernels/wavelet.h"
#include "partition/advisor.h"

namespace perfbench {

using dr::support::mixSeed;
using dr::support::Rng;

namespace {

std::string param(const char* name, i64 v) {
  return std::string("  param ") + name + " = " + std::to_string(v) + ";\n";
}

// The examples/kernels shapes, with their parameters drawn.
std::string hfilterSource(i64 H, i64 W, i64 R) {
  return "kernel hfilter {\n" + param("H", H) + param("W", W) +
         param("R", R) +
         "  array img[H][W] bits 8;\n"
         "  loop y = 0 .. H - 1 {\n"
         "    loop x = R .. W - 1 - R {\n"
         "      loop dx = -R .. R {\n"
         "        read img[y][x + dx];\n"
         "      }\n    }\n  }\n}\n";
}

std::string matvecSource(i64 N, i64 M) {
  return "kernel matvec {\n" + param("N", N) + param("M", M) +
         "  array A[N][M] bits 32;\n"
         "  array x[M] bits 32;\n"
         "  loop i = 0 .. N - 1 {\n"
         "    loop j = 0 .. M - 1 {\n"
         "      read A[i][j];\n"
         "      read x[j];\n"
         "    }\n  }\n}\n";
}

std::string downsampleSource(i64 H, i64 W) {
  return "kernel downsample {\n" + param("H", H) + param("W", W) +
         "  array in[H][W] bits 8;\n"
         "  loop y = 0 .. H - 3 step 2 {\n"
         "    loop x = 0 .. W - 3 step 2 {\n"
         "      loop dy = 0 .. 2 {\n"
         "        loop dx = 0 .. 2 {\n"
         "          read in[y + dy][x + dx];\n"
         "        }\n      }\n    }\n  }\n}\n";
}

int signalIndex(const dr::loopir::Program& p, const std::string& name) {
  for (std::size_t i = 0; i < p.signals.size(); ++i)
    if (p.signals[i].name == name) return static_cast<int>(i);
  return -1;
}

bool disjoint(const std::vector<std::uint64_t>& keys,
              const std::unordered_set<std::uint64_t>& taken) {
  for (std::uint64_t k : keys)
    if (taken.count(k)) return false;
  return !keys.empty();
}

}  // namespace

const std::vector<std::string>& families() {
  static const std::vector<std::string> kFamilies = {
      "me", "conv2d", "matmul", "susan", "wavelet", "hfilter", "matvec",
      "downsample"};
  return kFamilies;
}

namespace {

/// Draw one kernel of `family`, linear sizes scaled by `scale`; `signal`
/// gets a drawn read signal of the kernel.
std::string drawKernel(const std::string& family, Rng& rng, int scale,
                       std::string* signal) {
  const i64 k = scale;
  if (family == "me") {
    dr::kernels::MotionEstimationParams mp;
    mp.n = 2 * rng.uniform(1, 2);
    mp.H = 4 * k * rng.uniform(3, 24);
    mp.W = 4 * k * rng.uniform(3, 24);
    mp.m = rng.uniform(1, 3);
    *signal = std::string(rng.uniform(0, 4) == 0 ? "New" : "Old");
    return dr::kernels::motionEstimationSource(mp);
  }
  if (family == "conv2d") {
    dr::kernels::Conv2dParams cp;
    cp.H = k * rng.uniform(12, 40);
    cp.W = k * rng.uniform(12, 40);
    cp.R = rng.uniform(1, 2);
    *signal = std::string(rng.uniform(0, 4) == 0 ? "w" : "img");
    return dr::kernels::conv2dSource(cp);
  }
  if (family == "matmul") {
    dr::kernels::MatmulParams mp;
    mp.N = k * rng.uniform(6, 40);
    mp.K = k * rng.uniform(6, 40);
    *signal = std::string(rng.uniform(0, 1) == 0 ? "A" : "B");
    return dr::kernels::matmulSource(mp);
  }
  if (family == "susan") {
    dr::kernels::SusanParams sp;
    sp.H = k * rng.uniform(10, 50);
    sp.W = k * rng.uniform(10, 50);
    *signal = std::string("image");
    return dr::kernels::susanSource(sp);
  }
  if (family == "wavelet") {
    dr::kernels::WaveletParams wp;
    wp.H = k * rng.uniform(6, 60);
    wp.W = 2 * k * rng.uniform(6, 40);
    *signal = std::string("x");
    return dr::kernels::waveletLiftingSource(wp);
  }
  if (family == "hfilter") {
    const i64 H = k * rng.uniform(8, 40);
    const i64 W = k * rng.uniform(12, 56);
    *signal = std::string("img");
    return hfilterSource(H, W, rng.uniform(1, 3));
  }
  if (family == "matvec") {
    const i64 N = k * rng.uniform(6, 32);
    const i64 M = k * rng.uniform(6, 40);
    *signal = std::string(rng.uniform(0, 1) == 0 ? "x" : "A");
    return matvecSource(N, M);
  }
  // downsample
  const i64 H = k * rng.uniform(10, 60);
  const i64 W = k * rng.uniform(10, 60);
  *signal = std::string("in");
  return downsampleSource(H, W);
}

}  // namespace

std::vector<std::uint64_t> queryKeys(const Query& q) {
  auto compiled = dr::frontend::compileKernelChecked(q.kernel);
  if (!compiled.hasValue()) return {};
  const dr::loopir::Program& p = *compiled;
  const dr::explorer::ExploreOptions opts;
  std::vector<std::uint64_t> keys;
  if (q.kind == QueryKind::Explore) {
    const int s = signalIndex(p, q.signal);
    if (s >= 0) keys.push_back(dr::explorer::exploreConfigHash(p, s, opts));
    return keys;
  }
  for (int s : dr::partition::readSignals(p))
    keys.push_back(dr::explorer::exploreConfigHash(p, s, opts));
  dr::partition::AdvisorOptions aopts;
  aopts.solve.mode = static_cast<dr::partition::Mode>(q.mode);
  aopts.solve.capacity = q.capacity;
  aopts.solve.ways = q.ways;
  keys.push_back(dr::partition::adviseConfigHash(p, aopts));
  return keys;
}

namespace {

/// Draw query i of a stream, redrawing until its keys are fresh.
Query drawFresh(std::uint64_t seed, std::uint64_t stream, i64 i,
                const std::string& family, QueryKind kind, int scale,
                std::unordered_set<std::uint64_t>& taken) {
  for (std::uint64_t attempt = 0; attempt < 1000; ++attempt) {
    Rng rng(mixSeed(seed, stream * 0x100000001b3ULL + static_cast<std::uint64_t>(i),
                    attempt));
    Query q;
    q.kind = kind;
    q.family = family;
    q.kernel = drawKernel(family, rng, scale, &q.signal);
    if (kind == QueryKind::Advise) {
      q.signal.clear();
      q.mode = static_cast<std::uint8_t>(rng.uniform(0, 1));
      q.capacity = rng.uniform(16, 1024);
      q.ways = 8;
    }
    std::vector<std::uint64_t> keys = queryKeys(q);
    if (keys.empty()) {
      auto compiled = dr::frontend::compileKernelChecked(q.kernel);
      throw std::runtime_error(
          "generated " + family + " kernel is unusable (signal '" + q.signal +
          "'): " + (compiled.hasValue() ? "no such signal"
                                        : compiled.status().str()));
    }
    if (!disjoint(keys, taken)) continue;
    taken.insert(keys.begin(), keys.end());
    return q;
  }
  throw std::runtime_error("no fresh " + family + " query left to draw");
}

}  // namespace

Query anchorQuery() {
  Query q;
  q.family = "matmul";
  q.kernel = dr::kernels::matmulSource({64, 64});
  q.signal = std::string("B");
  return q;
}

std::vector<Query> coldQueries(std::uint64_t seed, std::uint64_t stream,
                               int count, int adviseEvery, int scale,
                               std::unordered_set<std::uint64_t>& taken) {
  // Advise queries co-explore every read signal, so they come from
  // kernels reading two signals. Two families of similar cost keep the
  // median Advise latency inside one cost cluster, whatever the seed.
  static const std::vector<std::string> kAdviseFamilies = {"conv2d", "me"};
  const std::vector<std::string>& fam = families();
  std::vector<Query> out;
  out.reserve(static_cast<std::size_t>(count));
  // The anchor leads every list, whatever the seed: the heaviest query of
  // the mix, it sets the peak memory.
  const Query anchor = anchorQuery();
  const std::vector<std::uint64_t> anchorKeys = queryKeys(anchor);
  if (disjoint(anchorKeys, taken)) {
    taken.insert(anchorKeys.begin(), anchorKeys.end());
    out.push_back(anchor);
  }
  int explores = 0;
  int advises = 0;
  for (int i = static_cast<int>(out.size()); i < count; ++i) {
    if (adviseEvery > 0 && (i + 1) % adviseEvery == 0) {
      const std::string& f =
          kAdviseFamilies[static_cast<std::size_t>(advises++) %
                          kAdviseFamilies.size()];
      out.push_back(drawFresh(seed, stream, i, f, QueryKind::Advise, scale, taken));
    } else {
      const std::string& f =
          fam[static_cast<std::size_t>(explores++) % fam.size()];
      out.push_back(drawFresh(seed, stream, i, f, QueryKind::Explore, scale, taken));
    }
  }
  return out;
}

std::vector<Query> hotSet(std::uint64_t seed, int explores, int advises,
                          int scale, std::unordered_set<std::uint64_t>& taken) {
  std::vector<Query> out =
      coldQueries(seed, /*stream=*/0x407, explores, 0, scale, taken);
  // Advise over kernels of the hot set: their curves are cached once the
  // explores are, so a hot advise costs the solve (or nothing, once the
  // report itself is cached).
  // The anchor (out[0]) is left out: advising it co-explores 64^3 matmul
  // signals, which would dominate every Advise figure.
  for (int a = 0; a < advises && out.size() > 1; ++a) {
    Rng rng(mixSeed(seed, 0xad71, static_cast<std::uint64_t>(a)));
    const Query& src = out[1 + static_cast<std::size_t>(a) % (out.size() - 1)];
    Query q;
    q.kind = QueryKind::Advise;
    q.family = src.family;
    q.kernel = src.kernel;
    q.mode = static_cast<std::uint8_t>(a % 2);
    q.capacity = rng.uniform(16, 1024);
    out.push_back(std::move(q));
  }
  return out;
}

std::string serialize(const std::vector<Query>& queries) {
  std::string s;
  for (const Query& q : queries) {
    s += q.kind == QueryKind::Explore ? "explore " : "advise ";
    s += q.family + " signal=" + q.signal + " mode=" + std::to_string(q.mode) +
         " capacity=" + std::to_string(q.capacity) +
         " ways=" + std::to_string(q.ways) + "\n" + q.kernel + "\n";
  }
  return s;
}

Zipf::Zipf(int n, double s) {
  double total = 0.0;
  for (int r = 1; r <= n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int Zipf::draw(Rng& rng) const {
  const double u = rng.uniform01();
  for (std::size_t r = 0; r < cdf_.size(); ++r)
    if (u < cdf_[r]) return static_cast<int>(r);
  return static_cast<int>(cdf_.size()) - 1;
}

}  // namespace perfbench
