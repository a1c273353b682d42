#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/intmath.h"
#include "support/status.h"

/// \file protocol.h
/// Length-prefixed, versioned, checksummed framing for the exploration
/// service (docs/SERVICE.md holds the byte-level spec). One frame is
///
///   [u32 magic 'DRSV'][u8 version][u8 verb][u32 payloadLen]
///   [payload ...][u32 crc32(magic..payload)]
///
/// with every integer little-endian and the CRC-32 (support/hash.h — the
/// same polynomial that guards the run journals) covering everything
/// before it. The parser is non-throwing and incremental: feed it the
/// bytes received so far and it answers Ok (one complete valid frame),
/// NeedMore (keep reading), or Corrupt (bad magic/version/length/CRC,
/// with a Status saying which) — a malformed or truncated frame can
/// never take the daemon down, only that connection.
///
/// Verbs: a client sends Explore / Stats / Shutdown; the server answers
/// every request with exactly one Reply frame whose payload is a
/// status-tagged envelope (Reply below) carrying a verb-specific body.

namespace dr::service::proto {

using dr::support::i64;

inline constexpr std::uint32_t kMagic = 0x56535244u;  ///< "DRSV" as LE bytes
/// v2 added deadline propagation: ExploreRequest carries the remaining
/// retry budget alongside the total deadline, and every Reply carries a
/// retry-after hint (meaningful on Unavailable). v1 frames are rejected
/// outright — a pre-overload client cannot silently lose its deadline.
inline constexpr std::uint8_t kVersion = 2;
inline constexpr std::size_t kHeaderSize = 10;  ///< magic + version + verb + len
inline constexpr std::size_t kTrailerSize = 4;  ///< crc32
/// Upper bound on payloadLen: anything larger is Corrupt before a single
/// payload byte is buffered, so a hostile length prefix cannot balloon
/// server memory.
inline constexpr std::size_t kMaxPayload = std::size_t{8} << 20;

enum class Verb : std::uint8_t {
  Explore = 1,   ///< run (or cache-serve) one exploration query
  Stats = 2,     ///< fetch the metrics snapshot (rendered text body)
  Shutdown = 3,  ///< reply, then drain and stop accepting
  Reply = 4,     ///< server -> client envelope (the only response verb)
  Health = 5,    ///< liveness probe: tiny fixed-size reply, no simulation
  Advise = 6,    ///< co-explore all signals, solve the capacity partition
};

/// True for the verb values a frame may legally carry.
bool verbIsKnown(std::uint8_t verb);

struct Frame {
  Verb verb = Verb::Explore;
  std::string payload;
};

/// One full frame (header + payload + CRC) ready to write to a socket.
std::string encodeFrame(Verb verb, std::string_view payload);

enum class ParseResult {
  Ok,        ///< `frame` holds one complete, checksum-verified frame
  NeedMore,  ///< prefix of a valid frame so far — read more bytes
  Corrupt,   ///< unrecoverable on this connection; `status` says why
};

struct FrameParse {
  ParseResult result = ParseResult::NeedMore;
  Frame frame;               ///< filled when result == Ok
  std::size_t consumed = 0;  ///< bytes to drop from the buffer (Ok only)
  support::Status status;    ///< non-OK exactly when result == Corrupt
};

/// Incremental, non-throwing frame parser. Never reads past `bytes`,
/// never throws, and accepts a frame only when its CRC verifies.
FrameParse tryParseFrame(std::string_view bytes);

// ---- Explore request payload -------------------------------------------

/// ExploreRequest::flags bit: bypass the result cache entirely (compute
/// fresh, cache nothing) — the cold-run lever of the CI smoke benchmark.
inline constexpr std::uint8_t kFlagNoCache = 0x01;

/// Payload of an Explore frame:
///   [u32 kernelLen][kernel][u32 signalLen][signal][i64 deadlineMs]
///   [i64 remainingBudgetMs][u8 flags]
/// `signal` may be empty (explore the first read signal); deadlineMs <= 0
/// means the server's default per-request deadline.
///
/// `remainingBudgetMs` propagates the client's retry budget: with
/// deadlineMs > 0 it is what is left of that deadline at send time (0
/// means "the full deadline"), and the server charges queue wait against
/// it — a request whose remaining budget is gone before a worker picks it
/// up is rejected outright (BudgetExceeded), never silently served late.
struct ExploreRequest {
  std::string kernel;  ///< kernel-language source text
  std::string signal;  ///< signal name; "" = first read signal
  i64 deadlineMs = 0;
  i64 remainingBudgetMs = 0;  ///< retry budget left; 0 = full deadline
  std::uint8_t flags = 0;
};

std::string encodeExploreRequest(const ExploreRequest& req);
support::Expected<ExploreRequest> decodeExploreRequest(
    std::string_view payload);

// ---- Reply payload ------------------------------------------------------

/// Payload of a Reply frame:
///   [u8 statusCode][u32 messageLen][message][i64 retryAfterMs]
///   [u32 bodyLen][body]
/// statusCode is support::StatusCode; Ok replies carry a verb-specific
/// body (ExploreResult for Explore, rendered metrics text for Stats,
/// empty for Shutdown) and error replies carry the Status message.
/// `retryAfterMs` is the structured overload hint: on an Unavailable
/// (load-shed) reply it tells the client how long to back off before the
/// retry is likely to be admitted; 0 everywhere else.
struct Reply {
  support::StatusCode code = support::StatusCode::Ok;
  std::string message;
  i64 retryAfterMs = 0;  ///< overload hint; meaningful when code==Unavailable
  std::string body;
};

std::string encodeReply(const Reply& reply);
support::Expected<Reply> decodeReply(std::string_view payload);

// ---- Explore reply body -------------------------------------------------

/// Body of an Ok Explore reply:
///   [u8 cached][u8 fidelity][i64 Ctot][i64 distinct][u32 csvLen][csv]
/// `csv` is the canonical curve rendering (report::curveCsv) —
/// byte-identical to explore_kernel's --curve-out for the same config
/// hash; `cached` says whether this reply was served without simulating.
struct ExploreResult {
  bool cached = false;
  std::uint8_t fidelity = 0;  ///< simcore::Fidelity of the curve
  i64 Ctot = 0;
  i64 distinctElements = 0;
  std::string csv;
};

std::string encodeExploreResult(const ExploreResult& result);
support::Expected<ExploreResult> decodeExploreResult(std::string_view body);

// ---- Advise request payload ---------------------------------------------

/// Payload of an Advise frame:
///   [u32 kernelLen][kernel][i64 deadlineMs][i64 remainingBudgetMs]
///   [u8 flags][u8 mode][i64 capacity][i64 ways]
/// The kernel is co-explored whole (every read signal), so there is no
/// signal field; `mode` is partition::Mode (0 = way partition, 1 =
/// scratchpad), `capacity` the shared capacity in elements, `ways` the
/// way count W (ignored in scratchpad mode). Deadline/budget/flags
/// semantics match ExploreRequest — the per-signal explorations degrade
/// down the fidelity ladder when the deadline trips, and kFlagNoCache
/// bypasses both the per-signal curve cache and the advise report cache.
struct AdviseRequest {
  std::string kernel;  ///< kernel-language source text
  i64 deadlineMs = 0;
  i64 remainingBudgetMs = 0;  ///< retry budget left; 0 = full deadline
  std::uint8_t flags = 0;
  std::uint8_t mode = 0;  ///< partition::Mode
  i64 capacity = 0;       ///< shared capacity, elements
  i64 ways = 8;           ///< way count W (way-partition mode)
};

std::string encodeAdviseRequest(const AdviseRequest& req);
support::Expected<AdviseRequest> decodeAdviseRequest(
    std::string_view payload);

// ---- Advise reply body --------------------------------------------------

/// Body of an Ok Advise reply:
///   [u8 cached][u8 fidelity][u8 usedFallback][i64 baselineMisses]
///   [i64 partitionedMisses][u32 csvLen][csv]
/// `fidelity` is the worst rung across the co-explored curves
/// (simcore::Fidelity); `csv` is the canonical advisor table rendering
/// (report::advisorCsv) — byte-identical to datareuse_advise's
/// --csv-out for the same advise config hash, whichever door served it.
struct AdviseResult {
  bool cached = false;
  std::uint8_t fidelity = 0;  ///< worst simcore::Fidelity across curves
  bool usedFallback = false;  ///< solver used the greedy path
  i64 baselineMisses = 0;
  i64 partitionedMisses = 0;
  std::string csv;
};

std::string encodeAdviseResult(const AdviseResult& result);
support::Expected<AdviseResult> decodeAdviseResult(std::string_view body);

// ---- Health reply body --------------------------------------------------

/// Body of an Ok Health reply:
///   [u8 draining][i64 queueDepth][i64 workers]
/// The health verb is the router's probe: it must stay cheap (no kernel
/// compile, no cache touch, no simulation) so a loaded shard still
/// answers it promptly, and small enough that probe traffic is noise.
/// The Health request frame carries an empty payload.
struct HealthInfo {
  bool draining = false;  ///< shutting down: route away, don't flap
  i64 queueDepth = 0;     ///< live admission-queue depth
  i64 workers = 0;        ///< configured worker count
};

std::string encodeHealthInfo(const HealthInfo& info);
support::Expected<HealthInfo> decodeHealthInfo(std::string_view body);

}  // namespace dr::service::proto
