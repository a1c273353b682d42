#include "service/cache.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>

#include "report/report.h"
#include "simcore/reuse_curve.h"
#include "support/contracts.h"
#include "support/journal.h"

namespace dr::service {

std::string warmJournalPath(const std::string& dir, std::uint64_t hash) {
  static const char* kHex = "0123456789abcdef";
  std::string name(16, '0');
  for (int i = 15; i >= 0; --i, hash >>= 4)
    name[static_cast<std::size_t>(i)] = kHex[hash & 0xF];
  return dir + "/" + name + ".journal";
}

support::Status ensureWarmDir(const std::string& dir) {
  if (dir.empty()) return support::Status::ok();
  if (::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST)
    return support::Status::ok();
  return support::Status::error(
      support::StatusCode::IoError,
      "mkdir " + dir + ": " + std::strerror(errno));
}

ResultCache::ResultCache(Options opts) : opts_(std::move(opts)) {
  DR_REQUIRE(opts_.maxBytes > 0);
  // Best-effort: a failure here surfaces later as a proper IoError from
  // the journal writer, with the path in the message.
  (void)ensureWarmDir(opts_.warmDir);
}

std::optional<CachedCurve> ResultCache::get(std::uint64_t hash) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(hash);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return *it->second;
}

void ResultCache::put(CachedCurve entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  putLocked(std::move(entry));
}

void ResultCache::putLocked(CachedCurve entry) {
  const i64 cost = entry.bytes();
  if (cost > opts_.maxBytes) return;  // would evict everything for one key
  auto it = index_.find(entry.configHash);
  if (it != index_.end()) {
    bytes_ -= it->second->bytes();
    lru_.erase(it->second);
    index_.erase(it);
  }
  while (bytes_ + cost > opts_.maxBytes && !lru_.empty()) {
    bytes_ -= lru_.back().bytes();
    index_.erase(lru_.back().configHash);
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front(std::move(entry));
  index_[lru_.front().configHash] = lru_.begin();
  bytes_ += cost;
}

std::string ResultCache::warmPath(std::uint64_t hash) const {
  if (opts_.warmDir.empty()) return {};
  return warmJournalPath(opts_.warmDir, hash);
}

support::Expected<CachedCurve> ResultCache::getOrCompute(
    std::uint64_t hash, const loopir::Program& program, int signal,
    const explorer::ExploreOptions& opts, i64* simulatedPoints,
    ComputeInfo* info) {
  if (simulatedPoints) *simulatedPoints = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(hash);
    if (it != index_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      return *it->second;
    }
  }

  // Miss: compute through the journaled resume path when a warm layer
  // exists (a matching record replays with zero simulation, and a fresh
  // exact curve is written for the next process), plain otherwise.
  explorer::ResumeSummary summary;
  bool journaled = !opts_.warmDir.empty();
  support::Expected<explorer::SignalExploration> ex = [&] {
    if (opts_.warmDir.empty())
      return explorer::exploreSignalChecked(program, signal, opts);
    explorer::ResumeContext ctx;
    ctx.journalPath = warmPath(hash);
    return explorer::exploreSignalChecked(program, signal, opts, ctx,
                                          &summary);
  }();
  if (journaled && !ex.hasValue() &&
      ex.status().code() == support::StatusCode::IoError) {
    // Warm-layer I/O failure (full disk, unwritable dir): the journal is
    // persistence, not correctness. The atomic write left the previous
    // file or none at the path, never a torn one; degrade to an
    // unjournaled recompute, so the query still gets its exact answer and
    // the failure is a counter (cache_journal_failures), not an error.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++journalFailures_;
    }
    journaled = false;
    summary = {};
    ex = explorer::exploreSignalChecked(program, signal, opts);
  }
  if (!ex.hasValue()) return ex.status();
  if (info) {
    info->ran = true;
    info->fidelity = static_cast<std::uint8_t>(ex->curveFidelity);
    info->runGranularity = ex->simulationStats.runGranularity;
    info->runsDecoded = ex->simulationStats.runsDecoded;
    info->runFastEvents = ex->simulationStats.runFastEvents;
    info->simulatedEvents = ex->simulationStats.simulatedEvents;
  }

  const bool warm = journaled && summary.journalLoaded &&
                    summary.pointsRecomputed == 0;
  const i64 recomputed =
      journaled ? summary.pointsRecomputed
                : static_cast<i64>(ex->simulatedCurve.points.size());
  if (simulatedPoints) *simulatedPoints = recomputed;

  CachedCurve entry;
  entry.configHash = hash;
  entry.signalName = ex->signalName;
  entry.Ctot = ex->Ctot;
  entry.distinctElements = ex->distinctElements;
  entry.fidelity = static_cast<std::uint8_t>(ex->curveFidelity);
  entry.csv = report::curveCsv(ex->signalName, ex->simulatedCurve);

  std::lock_guard<std::mutex> lock(mutex_);
  if (warm)
    ++warmHits_;
  else
    ++misses_;
  // A degraded curve answers this request but must not answer the next.
  if (simcore::isExact(ex->curveFidelity)) putLocked(entry);
  return entry;
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats s;
  s.entries = static_cast<i64>(lru_.size());
  s.bytes = bytes_;
  s.maxBytes = opts_.maxBytes;
  s.hits = hits_;
  s.warmHits = warmHits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.journalFailures = journalFailures_;
  return s;
}

support::Expected<ScrubReport> scrubWarmDir(const std::string& dir) {
  using support::Status;
  using support::StatusCode;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr)
    return Status::error(StatusCode::IoError,
                         "opendir " + dir + ": " + std::strerror(errno));
  ScrubReport report;
  std::vector<std::string> names;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    constexpr std::string_view kSuffix = ".journal";
    if (name.size() > kSuffix.size() &&
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) == 0)
      names.push_back(name);
  }
  ::closedir(handle);
  std::sort(names.begin(), names.end());  // deterministic report order

  for (const std::string& name : names) {
    const std::string path = dir + "/" + name;
    ++report.scanned;
    if (support::loadJournal(path).hasValue()) {
      ++report.clean;
      continue;
    }
    // Not one complete, CRC-valid record of this format: a torn or
    // flipped file, an older format, an unreadable file. Move it out of
    // the resolution path so the next query recomputes instead of
    // re-parsing it every time.
    const std::string quarantine = path + ".corrupt";
    if (std::rename(path.c_str(), quarantine.c_str()) != 0)
      return Status::error(StatusCode::IoError, "rename " + path + " to " +
                                                    quarantine + ": " +
                                                    std::strerror(errno));
    ++report.quarantined;
    report.quarantinedFiles.push_back(path);  // pre-rename name
  }
  return report;
}

}  // namespace dr::service
