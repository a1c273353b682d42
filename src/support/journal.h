#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/hash.h"
#include "support/intmath.h"
#include "support/status.h"

/// \file journal.h
/// Durable curve file for exploration results: one CRC-checksummed record
/// holding a whole simulated reuse curve, so a later run (or another
/// process sharing a cache directory) answers the same request without
/// re-walking the trace. Every exact fidelity rung builds the full curve
/// at once, so the curve is the unit of durability: it is written whole
/// or not at all.
///
/// File layout, little-endian:
///
///   [u32 bodyLen][body][u32 crc32(bodyLen|body)]
///   body = u32 magic | u32 version | u64 configHash | JournalMeta
///          | (i64 size, i64 writes, i64 reads) per point, ascending size
///
/// Durability contract (see CONTRIBUTING.md "Durability semantics"):
///   - writeJournal stages the bytes in a same-directory temp file,
///     fsyncs once and renames it into place, so the path only ever holds
///     a complete record, the previous file, or nothing;
///   - parseJournal accepts an image only if its frame length covers the
///     file exactly and its CRC, magic and version check; every strict
///     prefix and every flipped byte is rejected, never partly replayed.

namespace dr::support {

/// Journal format version; bump on any framing/payload layout change.
/// A file with a different version is rejected (clean restart).
inline constexpr std::uint32_t kJournalFormatVersion = 2;

/// One curve point: exact miss counts for one copy size.
struct JournalPoint {
  i64 size = 0;
  i64 writes = 0;  ///< C_j: misses / fills of the copy
  i64 reads = 0;   ///< C_tot served

  bool operator==(const JournalPoint&) const = default;
};

/// Stream-level totals and the curve's rung: with the points they
/// reconstruct the curve stage's result without running an engine.
/// `fidelity` stores the simcore::Fidelity rung as a raw byte so support/
/// stays below simcore/ in the dependency order.
struct JournalMeta {
  i64 Ctot = 0;
  i64 distinct = 0;
  std::uint8_t fidelity = 0;  ///< ladder rung of the whole curve
  std::uint8_t folded = 0;
  std::uint8_t exact = 1;
  i64 totalEvents = 0;
  i64 simulatedEvents = 0;
  i64 period = 0;
  i64 repeatCount = 0;
  i64 warmupEvents = 0;
  i64 foldPeriodChunks = 0;

  bool operator==(const JournalMeta&) const = default;
};

/// The one record of a journal file. `configHash` identifies the request
/// it answers: it must cover everything that determines the curve
/// (kernel text, signal, engine configuration, size-grid parameters, and
/// a code-version constant), so a mismatch means a different question.
struct JournalRecord {
  std::uint64_t configHash = 0;
  JournalMeta meta;
  std::vector<JournalPoint> points;  ///< ascending by size

  bool operator==(const JournalRecord&) const = default;
};

/// The exact file image of `record`.
std::string encodeJournal(const JournalRecord& record);

/// Decode a whole file image. InvalidInput with a reason for anything but
/// one complete, CRC-valid record of this format version. Never throws
/// on arbitrary bytes.
Expected<JournalRecord> parseJournal(std::string_view bytes);

/// Read and parse a journal file. IoError when the file cannot be read.
Expected<JournalRecord> loadJournal(const std::string& path);

/// Write `record` to `path` atomically: temp file `<path>.tmp`, one
/// fsync, rename. On failure (IoError) the temp file is removed and
/// whatever was at `path` before is untouched.
Status writeJournal(const std::string& path, const JournalRecord& record);

}  // namespace dr::support
