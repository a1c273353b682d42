// Journal durability semantics (support/journal.h): one CRC-framed
// record per file, written atomically (temp file, one fsync, rename).
// The core property is all-or-nothing: a file is accepted only whole —
// every strict prefix (a kill at any byte of a write) and every flipped
// byte is rejected, never partly replayed.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/journal.h"

namespace {

using dr::support::i64;
using dr::support::JournalRecord;
using dr::support::encodeJournal;
using dr::support::loadJournal;
using dr::support::parseJournal;
using dr::support::StatusCode;
using dr::support::writeJournal;

std::string tempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

bool fileExists(const std::string& path) {
  return std::ifstream(path).good();
}

JournalRecord sampleRecord(std::uint64_t configHash, i64 points) {
  JournalRecord rec;
  rec.configHash = configHash;
  rec.meta.Ctot = 4096;
  rec.meta.distinct = 1521;
  rec.meta.fidelity = 1;
  rec.meta.folded = 1;
  rec.meta.totalEvents = 4096;
  rec.meta.simulatedEvents = 512;
  rec.meta.period = 64;
  rec.meta.repeatCount = 8;
  for (i64 i = 0; i < points; ++i)
    rec.points.push_back({i + 1, 4096 / (i + 1), 4096});
  return rec;
}

/// Recompute the trailing CRC after a deliberate body patch, so the
/// parse reaches the field under test instead of failing on the CRC.
void refreshCrc(std::string& bytes) {
  const std::uint32_t crc =
      dr::support::crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i)
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<char>(crc >> (8 * i));
}

/// The bytes spelled by a hex string.
std::string fromHex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  return out;
}

TEST(Journal, EncodingIsPinnedByteForByte) {
  // One fixed record as the nibble-table checksum loop framed it: a
  // faster checksum must leave every journal on disk byte-identical, so
  // warm caches written before it still replay.
  const std::string expected = fromHex(
      "9b00000044524a4c02000000efbefecacefaedfe0010000000000000f1050000"
      "0000000001010100100000000000000002000000000000400000000000000008"
      "0000000000000000000000000000000000000000000000010000000000000000"
      "1000000000000000100000000000000200000000000000000800000000000000"
      "100000000000000300000000000000550500000000000000100000000000007f"
      "b752ff");
  const std::string bytes = encodeJournal(sampleRecord(0xFEEDFACECAFEBEEFULL, 3));
  EXPECT_EQ(bytes, expected);
  auto parsed = parseJournal(expected);
  ASSERT_TRUE(parsed.hasValue()) << parsed.status().str();
  EXPECT_EQ(*parsed, sampleRecord(0xFEEDFACECAFEBEEFULL, 3));
}

TEST(Journal, RoundTripPreservesHeaderMetaAndPoints) {
  const std::string path = tempPath("dr_journal_roundtrip.drj");
  const JournalRecord rec = sampleRecord(0xFEEDFACECAFEBEEFULL, 3);
  ASSERT_TRUE(writeJournal(path, rec).isOk());
  // The temp staging file never survives a successful write.
  EXPECT_FALSE(fileExists(path + ".tmp"));

  auto loaded = loadJournal(path);
  ASSERT_TRUE(loaded.hasValue()) << loaded.status().str();
  EXPECT_EQ(*loaded, rec);
  // Canonical encoding: what was accepted re-encodes to the same bytes.
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), encodeJournal(rec));
  std::remove(path.c_str());
}

TEST(Journal, EveryStrictPrefixIsRejected) {
  // Kill-at-every-byte: a crash mid-write leaves some prefix of the
  // record. No prefix may parse — not even to a partial curve — and
  // neither may the record with trailing debris.
  const std::string bytes = encodeJournal(sampleRecord(42, 5));
  ASSERT_TRUE(parseJournal(bytes).hasValue());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto parsed = parseJournal(bytes.substr(0, len));
    ASSERT_FALSE(parsed.hasValue()) << "prefix " << len << " accepted";
    EXPECT_EQ(parsed.status().code(), StatusCode::InvalidInput);
  }
  EXPECT_FALSE(parseJournal(bytes + "x").hasValue());
}

TEST(Journal, FlippedByteIsRejectedNeverReplayed) {
  // CRC-32 catches every burst of up to 32 bits, so one damaged byte
  // anywhere — length, magic, hash, totals, a point, the CRC itself —
  // rejects the whole record.
  const std::string bytes = encodeJournal(sampleRecord(7, 4));
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string damaged = bytes;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x5A);
    auto parsed = parseJournal(damaged);
    ASSERT_FALSE(parsed.hasValue()) << "flip at " << at << " accepted";
    EXPECT_EQ(parsed.status().code(), StatusCode::InvalidInput);
  }
}

TEST(Journal, FormatVersionMismatchIsRejectedNotTruncated) {
  std::string bytes = encodeJournal(sampleRecord(9, 2));
  // Layout: bodyLen(4) | magic(4) version(4) ... | crc(4). Patching the
  // version needs the CRC redone, or the parse reports corruption, not
  // version skew.
  bytes[8] = 99;
  refreshCrc(bytes);
  auto parsed = parseJournal(bytes);
  ASSERT_FALSE(parsed.hasValue());
  EXPECT_EQ(parsed.status().code(), StatusCode::InvalidInput);
  EXPECT_NE(parsed.status().str().find("version"), std::string::npos);
}

TEST(Journal, WellFramedButMalformedRecordsAreRejected) {
  // A valid frame and CRC are necessary, not sufficient: the magic must
  // match and the points must be in strictly ascending size order.
  std::string badMagic = encodeJournal(sampleRecord(5, 2));
  badMagic[4] = 'X';
  refreshCrc(badMagic);
  EXPECT_FALSE(parseJournal(badMagic).hasValue());

  JournalRecord unordered = sampleRecord(5, 3);
  std::swap(unordered.points[0], unordered.points[2]);
  EXPECT_FALSE(parseJournal(encodeJournal(unordered)).hasValue());

  // The smallest valid record: totals and no points.
  EXPECT_TRUE(parseJournal(encodeJournal(sampleRecord(5, 0))).hasValue());
}

TEST(Journal, CreateReplacesOldJournalAtomically) {
  const std::string path = tempPath("dr_journal_replace.drj");
  ASSERT_TRUE(writeJournal(path, sampleRecord(1, 3)).isOk());
  const JournalRecord fresh = sampleRecord(2, 1);
  ASSERT_TRUE(writeJournal(path, fresh).isOk());
  auto loaded = loadJournal(path);
  ASSERT_TRUE(loaded.hasValue());
  EXPECT_EQ(*loaded, fresh);
  EXPECT_FALSE(fileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(Journal, ArbitraryBytesNeverCrashTheParser) {
  EXPECT_FALSE(parseJournal("").hasValue());
  EXPECT_FALSE(parseJournal("not a journal at all").hasValue());
  std::string zeros(4096, '\0');
  EXPECT_FALSE(parseJournal(zeros).hasValue());
  EXPECT_FALSE(loadJournal(::testing::TempDir() + "dr_journal_missing.drj")
                   .hasValue());
}

}  // namespace
