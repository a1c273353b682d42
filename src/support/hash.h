#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

/// \file hash.h
/// The two content hashes shared across the repo, hoisted out of their
/// original private homes so every user agrees on one implementation:
///
///   - FNV-1a 64 (journal/exploration config hashes, the service result
///     cache's content addresses, folded_curve's distance-sequence
///     certificates) — fast, incremental, good avalanche for content
///     addressing; NOT collision-resistant against adversaries, so it
///     keys caches and certificates, never security decisions;
///   - crc32 — the 32-bit checksum framing every journal record and
///     every service protocol frame (see its comment: a CRC over the
///     IEEE 802.3 polynomial, but not the IEEE check value).

namespace dr::support {

inline constexpr std::uint64_t kFnvOffset64 = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime64 = 1099511628211ULL;

/// One FNV-1a step: fold `byte` into the running hash `h`.
constexpr std::uint64_t fnv1aByte(std::uint64_t h,
                                  std::uint8_t byte) noexcept {
  return (h ^ byte) * kFnvPrime64;
}

/// Fold a 64-bit value into the running hash, little-endian byte order
/// (used by folded_curve for i64 stack-distance sequences).
constexpr std::uint64_t fnv1aU64(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) h = fnv1aByte(h, static_cast<std::uint8_t>(v >> (8 * i)));
  return h;
}

/// FNV-1a 64 of a byte string, continuing from `seed` (chain calls to
/// hash a composite value incrementally).
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t seed = kFnvOffset64) noexcept {
  std::uint64_t h = seed;
  for (char c : bytes) h = fnv1aByte(h, static_cast<std::uint8_t>(c));
  return h;
}

/// 32-bit CRC over the reflected polynomial 0xEDB88320 of `size` bytes.
/// `seed` chains partial computations: crc32(b, crc32(a)) == crc32(a+b).
///
/// Not the IEEE 802.3 check value: the defining loop takes each byte as
/// two nibble steps whose table entries run eight shift rounds, not four,
/// so crc32("123456789") is 0x111FB598 where IEEE gives 0xCBF43926. Every
/// frame and journal record carries this value, so it is kept as is. Any
/// single damaged byte still changes it, but its per-byte state update
/// has rank 28, so it checks like a 28-bit code, not a 32-bit one.
///
/// Slicing-by-8: eight compile-time 256-entry tables fold 8 input bytes
/// per step and a byte-table loop takes the tail. Input words are
/// assembled byte by byte, so every host byte order gets the same value,
/// with no intrinsics or per-CPU dispatch. tests/test_support.cpp pins
/// it against the bitwise definition.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace dr::support
