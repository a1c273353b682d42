#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "explorer/explorer.h"
#include "service/metrics.h"
#include "support/intmath.h"
#include "support/status.h"

/// \file cache.h
/// Content-addressed result cache for exploration curves, keyed by the
/// canonical FNV-1a config hash (explorer::exploreConfigHash — normalized
/// kernel + signal + engine configuration). Two layers:
///
///   - a byte-budgeted in-memory LRU of finished results (the rendered
///     canonical CSV plus the headline numbers), served in microseconds;
///   - an optional persistent *warm* layer: a directory of journal files,
///     one per config hash (`<16-hex-digits>.journal`), each holding one
///     complete curve record (support/journal.h). A miss rehydrates
///     through the explorer's resume path, so a valid record replays the
///     curve with zero simulation, and any other file (torn, corrupt, an
///     older format) is recomputed and overwritten — never partly reused.
///     Every fresh exact computation leaves a record behind for the next
///     process. The CLI (`explore_kernel --cache-dir`) reads and writes
///     the same files, so one warm directory serves both doors
///     byte-identically.
///
/// Only exact-fidelity curves enter either layer: a budget-degraded run
/// is answered but never cached (and writes no journal), so degradation
/// can never poison a future query.

namespace dr::service {

using dr::support::i64;

/// Warm-layer file name for one config hash: "<dir>/<16-hex>.journal".
/// Shared by the daemon's cache and explore_kernel's --cache-dir so both
/// doors read and write the same files.
std::string warmJournalPath(const std::string& dir, std::uint64_t hash);

/// Create the warm directory if missing (one level; the parent must
/// exist). Ok when it already exists; "" is a no-op.
support::Status ensureWarmDir(const std::string& dir);

/// One finished, cacheable exploration result.
struct CachedCurve {
  std::uint64_t configHash = 0;
  std::string signalName;
  i64 Ctot = 0;
  i64 distinctElements = 0;
  std::uint8_t fidelity = 0;  ///< simcore::Fidelity of the curve
  std::string csv;            ///< canonical CSV (report::curveCsv)

  /// Footprint charged against the cache byte budget.
  i64 bytes() const {
    return static_cast<i64>(csv.size() + signalName.size() + 64);
  }
};

/// Engine outcome of one leader computation, for the metrics engine-mix
/// counters. `ran` stays false on a memory-layer hit (no engine touched).
struct ComputeInfo {
  bool ran = false;
  std::uint8_t fidelity = 0;  ///< simcore::Fidelity of the served curve
  simcore::FoldedStats sim;   ///< the exploration's stack-engine counters
};

/// The cache entry for one finished exploration of `hash`, and its engine
/// outcome in `*info` when `info` is not null.
CachedCurve cachedCurveOf(std::uint64_t hash,
                          const explorer::SignalExploration& ex,
                          ComputeInfo* info);

/// The cache's ledger, one field per DR_CACHE_LEDGER line (metrics.h).
struct CacheStats {
#define DR_FIELD(field, name, fold, cacheField) i64 cacheField = 0;
  DR_CACHE_LEDGER(DR_FIELD)
#undef DR_FIELD
};

/// Outcome of one scrubWarmDir pass over a warm cache directory.
struct ScrubReport {
  i64 scanned = 0;      ///< *.journal files examined
  i64 clean = 0;        ///< one complete, CRC-verified record
  i64 quarantined = 0;  ///< renamed to *.corrupt (anything else)
  std::vector<std::string> quarantinedFiles;  ///< pre-rename journal paths
};

/// Integrity sweep over a warm cache directory: verify every `*.journal`
/// file through the journal parser. A file that is not one complete,
/// CRC-valid record of the current format (torn, flipped bytes, an older
/// format, unreadable) is quarantined — renamed to `<name>.corrupt` so
/// the next query recomputes instead of tripping over it. The
/// datareuse_query --scrub flag drives this.
support::Expected<ScrubReport> scrubWarmDir(const std::string& dir);

class ResultCache {
 public:
  struct Options {
    i64 maxBytes = i64{64} << 20;
    std::string warmDir;  ///< "" = memory-only (no persistence)
  };

  explicit ResultCache(Options opts);

  /// Memory-layer lookup; refreshes LRU recency. Does not touch disk and
  /// does not count a miss (getOrCompute owns the full hit/miss ledger).
  std::optional<CachedCurve> get(std::uint64_t hash);

  /// Insert into the memory layer (evicting LRU entries past the byte
  /// budget). Entries larger than the whole budget are not stored.
  void put(CachedCurve entry);

  /// Resolve `hash` through every layer: memory, then the warm journal
  /// (with a warmDir), then full computation — the explore request path.
  /// The warm/compute rungs run exploreSignalChecked with a ResumeContext
  /// on warmPath(hash), so record validation and config mismatches ride
  /// the explorer's tested resume path, and the warm file is (re)written
  /// as a side effect of computing. Exact results land in the memory
  /// layer; degraded ones are returned uncached.
  /// `program` yields the compiled kernel for the warm and compute rungs
  /// and is never called on a memory-layer hit, so a door that knows
  /// `hash` without compiling (kernel_memo.h) compiles only on a miss.
  /// `simulatedPoints` (optional) reports how many curve points were
  /// actually recomputed — 0 for a hit on any layer. `info` (optional)
  /// reports the engine outcome when a computation ran.
  support::Expected<CachedCurve> getOrCompute(
      std::uint64_t hash,
      const std::function<const loopir::Program&()>& program, int signal,
      const explorer::ExploreOptions& opts, i64* simulatedPoints = nullptr,
      ComputeInfo* info = nullptr);

  /// getOrCompute over an already compiled kernel.
  support::Expected<CachedCurve> getOrCompute(
      std::uint64_t hash, const loopir::Program& program, int signal,
      const explorer::ExploreOptions& opts, i64* simulatedPoints = nullptr,
      ComputeInfo* info = nullptr);

  /// Warm-layer file for `hash`: "<warmDir>/<16-hex>.journal", or "" when
  /// the cache is memory-only.
  std::string warmPath(std::uint64_t hash) const;

  CacheStats stats() const;

 private:
  void putLocked(CachedCurve entry);

  Options opts_;
  mutable std::mutex mutex_;
  /// Most-recently-used first; the map points into the list.
  std::list<CachedCurve> lru_;
  std::unordered_map<std::uint64_t, std::list<CachedCurve>::iterator> index_;
  i64 bytes_ = 0;
  CacheStats counts_;  ///< the event counters; stats() fills the gauges
};

}  // namespace dr::service
