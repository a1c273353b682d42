// Fuzz target: service protocol framing (service/protocol.h).
//
// The input bytes play the role of an attacker-controlled byte stream
// arriving on the daemon's socket. tryParseFrame must never crash or
// over-read on any input; when it accepts a frame the frame must
// round-trip (re-encoding yields the same consumed bytes, so the CRC it
// verified is the CRC it would emit), a single corrupted byte inside the
// consumed region must not parse to the same accepted frame, and the
// verb-specific payload decoders must reject or accept without crashing.
// NeedMore must be an honest answer: appending more bytes may complete
// the frame but a prefix of a frame never parses as Ok. The frame
// checksum itself (support::crc32, table-driven) must equal its bitwise
// definition on the input, whole and chained at an input-chosen split.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "fuzz_util.h"
#include "service/protocol.h"
#include "support/hash.h"

namespace proto = dr::service::proto;

namespace {

/// support::crc32's definition, one bit at a time: each byte is two
/// nibble steps, low nibble first, each folding the running value's low
/// nibble through eight shift-xor rounds of 0xEDB88320.
std::uint32_t crc32Bitwise(const uint8_t* p, size_t n, std::uint32_t seed) {
  const auto step = [](std::uint32_t s) {
    std::uint32_t c = s & 0x0F;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    return c ^ (s >> 4);
  };
  std::uint32_t c = ~seed;
  for (size_t i = 0; i < n; ++i) {
    c = step(c ^ (p[i] & 0x0Fu));
    c = step(c ^ (p[i] >> 4));
  }
  return ~c;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::uint32_t crc = crc32Bitwise(data, size, 0);
  if (dr::support::crc32(data, size) != crc) std::abort();
  if (size > 0) {
    const size_t split = data[0] % size;
    if (dr::support::crc32(data + split, size - split,
                           dr::support::crc32(data, split)) != crc)
      std::abort();
  }

  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  const proto::FrameParse parse = proto::tryParseFrame(bytes);

  switch (parse.result) {
    case proto::ParseResult::Corrupt:
      if (parse.status.isOk()) std::abort();  // Corrupt must say why
      return 0;
    case proto::ParseResult::NeedMore:
      if (!parse.status.isOk()) std::abort();
      return 0;
    case proto::ParseResult::Ok:
      break;
  }

  // Accepted: the frame must account for the bytes it consumed...
  if (parse.consumed < proto::kHeaderSize + proto::kTrailerSize ||
      parse.consumed > size)
    std::abort();
  if (parse.frame.payload.size() !=
      parse.consumed - proto::kHeaderSize - proto::kTrailerSize)
    std::abort();
  if (!parse.status.isOk()) std::abort();

  // ...re-encode byte-identically (checksum included)...
  const std::string reencoded =
      proto::encodeFrame(parse.frame.verb, parse.frame.payload);
  if (reencoded != bytes.substr(0, parse.consumed)) std::abort();

  // ...and reject any single-byte corruption of itself: flipping one bit
  // anywhere in the consumed region must break the magic, the header
  // fields, or the checksum — never yield the same accepted frame.
  std::string corrupted(bytes.substr(0, parse.consumed));
  const size_t victim = parse.consumed / 2;
  corrupted[victim] = static_cast<char>(corrupted[victim] ^ 0x01);
  const proto::FrameParse again = proto::tryParseFrame(corrupted);
  if (again.result == proto::ParseResult::Ok &&
      again.frame.verb == parse.frame.verb &&
      again.frame.payload == parse.frame.payload)
    std::abort();

  // A truncated frame must come back NeedMore (prefix of valid bytes),
  // never Ok with garbage.
  if (parse.consumed > 1) {
    const proto::FrameParse trunc =
        proto::tryParseFrame(bytes.substr(0, parse.consumed - 1));
    if (trunc.result == proto::ParseResult::Ok) std::abort();
  }

  // The payload decoders are downstream of an accepted frame: they may
  // reject, but must not crash, over-read, or accept trailing garbage.
  switch (parse.frame.verb) {
    case proto::Verb::Explore: {
      auto req = proto::decodeExploreRequest(parse.frame.payload);
      if (req.hasValue()) {
        // Round-trip: decode(encode(x)) == x.
        if (proto::encodeExploreRequest(*req) != parse.frame.payload)
          std::abort();
      }
      break;
    }
    case proto::Verb::Advise: {
      auto req = proto::decodeAdviseRequest(parse.frame.payload);
      if (req.hasValue()) {
        if (proto::encodeAdviseRequest(*req) != parse.frame.payload)
          std::abort();
        if (req->mode > 1) std::abort();  // decoder must reject these
      }
      break;
    }
    case proto::Verb::Reply: {
      auto reply = proto::decodeReply(parse.frame.payload);
      if (reply.hasValue()) {
        if (proto::encodeReply(*reply) != parse.frame.payload) std::abort();
        auto result = proto::decodeExploreResult(reply->body);
        if (result.hasValue() &&
            proto::encodeExploreResult(*result) != reply->body)
          std::abort();
        // An Advise result body must round-trip too when it decodes.
        auto advise = proto::decodeAdviseResult(reply->body);
        if (advise.hasValue() &&
            proto::encodeAdviseResult(*advise) != reply->body)
          std::abort();
      }
      break;
    }
    case proto::Verb::Stats:
    case proto::Verb::Shutdown:
    case proto::Verb::Health:
      break;  // empty-payload verbs; any payload is handled server-side
  }
  return 0;
}
