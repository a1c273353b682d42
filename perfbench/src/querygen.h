#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "support/intmath.h"
#include "support/rng.h"

/// \file querygen.h
/// Seeded query generator. Every query is kernel-language text from the
/// repository's own emitters (kernels::motionEstimationSource and
/// friends) or from the hfilter / matvec / downsample shapes of
/// examples/kernels, with drawn parameters. Query i of a stream depends
/// only on (seed, stream, i), so the same seed gives byte-identical
/// lists and a longer list extends a shorter one.

namespace perfbench {

using dr::support::i64;

enum class QueryKind : std::uint8_t { Explore, Advise };

struct Query {
  QueryKind kind = QueryKind::Explore;
  std::string family;  ///< shape name ("me", "conv2d", "matvec", ...)
  std::string kernel;  ///< kernel-language source
  std::string signal;  ///< Explore: the explored signal
  std::uint8_t mode = 0;  ///< Advise: partition::Mode
  i64 capacity = 0;       ///< Advise: shared capacity, elements
  i64 ways = 8;           ///< Advise: way count
};

/// Shape families, in the round-robin order the cold lists use. Each
/// run of a list therefore holds the same family mix whatever the seed.
const std::vector<std::string>& families();

/// Content keys of a query: the explore config hash of its signal, or,
/// for an Advise, of every read signal plus the advise config hash.
std::vector<std::uint64_t> queryKeys(const Query& q);

/// The fixed anchor query (a 64x64x64 matmul, signal B): heavier than
/// any drawn query, so it, not the seed, sets a run's peak memory.
Query anchorQuery();

/// `count` distinct cold queries of stream `stream`: the anchor query
/// first (unless `taken` already holds it), then round-robin over
/// families(), with one Advise every `adviseEvery` queries (0 = none).
/// A drawn query whose keys intersect `taken` is redrawn, and the keys
/// of every accepted one are added, so no two queries generated against
/// one `taken` set share a cache entry.
std::vector<Query> coldQueries(std::uint64_t seed, std::uint64_t stream,
                               int count, int adviseEvery, int scale,
                               std::unordered_set<std::uint64_t>& taken);

/// A hot set: `explores` distinct Explore queries and `advises` Advise
/// queries over kernels of the same set (so the advisor's curves are
/// already cached once the explores are).
std::vector<Query> hotSet(std::uint64_t seed, int explores, int advises,
                          int scale, std::unordered_set<std::uint64_t>& taken);

/// Canonical text of a query list (kind, family, signal, parameters and
/// kernel), for determinism checks.
std::string serialize(const std::vector<Query>& queries);

/// Zipf(s) sampler over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(int n, double s);
  int draw(dr::support::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
