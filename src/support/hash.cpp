#include "support/hash.h"

#include <array>

namespace dr::support {

namespace {

/// One nibble step of the checksum's defining loop: fold the low nibble
/// of `s` through eight shift-xor rounds of 0xEDB88320.
constexpr std::uint32_t nibbleStep(std::uint32_t s) {
  std::uint32_t c = s & 0x0F;
  for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  return c ^ (s >> 4);
}

/// Slicing-by-8 tables. One input byte b updates the running value c to
/// (c >> 8) ^ t[0][(c ^ b) & 0xFF], where t[0][x] is two nibble steps of
/// x; t[k][x] is the contribution of byte x followed by k more bytes, so
/// eight table reads fold eight input bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> makeTables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t x = 0; x < 256; ++x) t[0][x] = nibbleStep(nibbleStep(x));
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t x = 0; x < 256; ++x)
      t[k][x] = (t[k - 1][x] >> 8) ^ t[0][t[k - 1][x] & 0xFF];
  return t;
}

constexpr auto kTables = makeTables();

/// The little-endian u32 at `p`, assembled byte by byte so the result
/// does not depend on host byte order (one load on little-endian hosts).
inline std::uint32_t loadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& t = kTables;
  std::uint32_t c = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; size >= 8; size -= 8, p += 8) {
    const std::uint32_t lo = loadLe32(p) ^ c;
    const std::uint32_t hi = loadLe32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++p) c = (c >> 8) ^ t[0][(c ^ *p) & 0xFF];
  return ~c;
}

}  // namespace dr::support
