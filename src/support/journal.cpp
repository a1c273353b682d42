#include "support/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "support/fault.h"

namespace dr::support {

namespace {

constexpr std::uint32_t kMagic = 0x4C4A5244;  // "DRJL"

/// Body bytes before the points: magic, version, config hash, meta.
constexpr std::size_t kFixedBody = 4 + 4 + 8 + 8 * 8 + 3;
constexpr std::size_t kPointBytes = 3 * 8;

// --- little-endian scalar encoding (explicit, so journals are portable
// across hosts and the CRC covers a well-defined byte sequence) ---

void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void putI64(std::string& out, i64 v) { putU64(out, static_cast<std::uint64_t>(v)); }

/// Little-endian reader over a buffer whose length the caller checked.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(take(4)); }
  std::uint64_t u64() { return take(8); }
  i64 i64v() { return static_cast<i64>(take(8)); }

 private:
  std::uint64_t take(std::size_t n) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    pos_ += n;
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

Status invalid(const std::string& why) {
  return Status::error(StatusCode::InvalidInput, why);
}

Status ioError(const std::string& what) {
  return Status::error(StatusCode::IoError,
                       what + ": " + std::strerror(errno));
}

Status writeAll(int fd, const std::string& bytes) {
  // The DiskFull probe models ENOSPC on the cache-dir filesystem: the
  // write must fail as a structured IoError with no file left behind,
  // and the service cache above degrades to an unjournaled recompute.
  if (fault::shouldFail(fault::FaultSite::DiskFull)) {
    errno = ENOSPC;
    return ioError("journal write failed");
  }
  const char* data = bytes.data();
  std::size_t size = bytes.size();
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ioError("journal write failed");
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return Status::ok();
}

}  // namespace

std::string encodeJournal(const JournalRecord& record) {
  std::string body;
  body.reserve(kFixedBody + kPointBytes * record.points.size());
  putU32(body, kMagic);
  putU32(body, kJournalFormatVersion);
  putU64(body, record.configHash);
  const JournalMeta& m = record.meta;
  putI64(body, m.Ctot);
  putI64(body, m.distinct);
  body.push_back(static_cast<char>(m.fidelity));
  body.push_back(static_cast<char>(m.folded));
  body.push_back(static_cast<char>(m.exact));
  putI64(body, m.totalEvents);
  putI64(body, m.simulatedEvents);
  putI64(body, m.period);
  putI64(body, m.repeatCount);
  putI64(body, m.warmupEvents);
  putI64(body, m.foldPeriodChunks);
  for (const JournalPoint& pt : record.points) {
    putI64(body, pt.size);
    putI64(body, pt.writes);
    putI64(body, pt.reads);
  }
  std::string out;
  putU32(out, static_cast<std::uint32_t>(body.size()));
  out += body;
  putU32(out, crc32(out.data(), out.size()));
  return out;
}

Expected<JournalRecord> parseJournal(std::string_view bytes) {
  // The frame must cover the image exactly: a strict prefix (a crash
  // mid-write) or trailing debris never passes for a record.
  if (bytes.size() < 8 + kFixedBody)
    return invalid("journal is truncated (" + std::to_string(bytes.size()) +
                   " bytes)");
  const std::uint64_t bodyLen = Reader(bytes).u32();
  if (bodyLen != bytes.size() - 8)
    return invalid("journal frame length " + std::to_string(bodyLen) +
                   " does not match the file (" +
                   std::to_string(bytes.size()) + " bytes)");
  if (crc32(bytes.data(), bytes.size() - 4) !=
      Reader(bytes.substr(bytes.size() - 4)).u32())
    return invalid("journal CRC mismatch");

  const std::string_view body = bytes.substr(4, bodyLen);
  Reader r(body);
  if (r.u32() != kMagic) return invalid("not a journal (bad magic)");
  const std::uint32_t version = r.u32();
  if (version != kJournalFormatVersion)
    return invalid("journal format version " + std::to_string(version) +
                   " != supported " + std::to_string(kJournalFormatVersion));
  if ((body.size() - kFixedBody) % kPointBytes != 0)
    return invalid("journal body is not a whole number of points");

  JournalRecord out;
  out.configHash = r.u64();
  JournalMeta& m = out.meta;
  m.Ctot = r.i64v();
  m.distinct = r.i64v();
  m.fidelity = r.u8();
  m.folded = r.u8();
  m.exact = r.u8();
  m.totalEvents = r.i64v();
  m.simulatedEvents = r.i64v();
  m.period = r.i64v();
  m.repeatCount = r.i64v();
  m.warmupEvents = r.i64v();
  m.foldPeriodChunks = r.i64v();
  out.points.resize((body.size() - kFixedBody) / kPointBytes);
  for (JournalPoint& pt : out.points) {
    pt.size = r.i64v();
    pt.writes = r.i64v();
    pt.reads = r.i64v();
  }
  for (std::size_t i = 1; i < out.points.size(); ++i)
    if (out.points[i - 1].size >= out.points[i].size)
      return invalid("journal points are not in ascending size order");
  return out;
}

Expected<JournalRecord> loadJournal(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good())
    return Status::error(StatusCode::IoError,
                         "cannot open journal: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  if (f.bad())
    return Status::error(StatusCode::IoError,
                         "cannot read journal: " + path);
  return parseJournal(ss.str());
}

Status writeJournal(const std::string& path, const JournalRecord& record) {
  // Same temp+rename discipline as DataSet::writeFile: a crash at any
  // byte leaves at most a stray temp file, never a torn record at `path`.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ioError("cannot create journal " + tmp);
  Status st = writeAll(fd, encodeJournal(record));
  if (st.isOk() && ::fsync(fd) != 0) st = ioError("journal fsync failed");
  if (::close(fd) != 0 && st.isOk()) st = ioError("journal close failed");
  if (st.isOk() && std::rename(tmp.c_str(), path.c_str()) != 0)
    st = ioError("cannot rename " + tmp + " to " + path);
  if (!st.isOk()) std::remove(tmp.c_str());
  return st;
}

}  // namespace dr::support
