#ifndef TCDP_COMMON_HASH_H_
#define TCDP_COMMON_HASH_H_

/// \file
/// The repo's two string/content hashes.
///
/// HashBytes is a fast 64-bit content hash for in-memory keys (matrix
/// fingerprints, the records codec's image memo). It reads 64-bit
/// words into four independent multiply-rotate lanes (xxHash64's
/// round), so the lanes' multiplies overlap instead of forming one
/// serial chain. Not cryptographic and not stable across builds or
/// byte orders: use it only as a key whose matches an exact compare
/// confirms, never as a persisted value.
///
/// Fnv1a64 is FNV-1a 64, byte by byte: slow, but fixed forever. A
/// durable user's shard (ShardedReleaseService::ShardOf) and a
/// router's ring points (replication/ring.h) depend on its values.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace tcdp {
namespace hash_internal {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

inline std::uint64_t Rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

inline std::uint64_t Load64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t Round(std::uint64_t acc, std::uint64_t word) {
  return Rotl(acc + word * kPrime2, 31) * kPrime1;
}

inline std::uint64_t Fold(std::uint64_t h, std::uint64_t word) {
  return Rotl(h ^ Round(0, word), 27) * kPrime1 + kPrime4;
}

}  // namespace hash_internal

/// \brief FNV-1a 64 of \p text; its values are part of the durable
/// contract (pinned by ShardOf's golden test).
inline std::uint64_t Fnv1a64(std::string_view text) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// \brief 64-bit hash of \p size bytes at \p data under \p seed.
inline std::uint64_t HashBytes(const void* data, std::size_t size,
                               std::uint64_t seed = 0) {
  using namespace hash_internal;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::size_t left = size;
  std::uint64_t h;
  if (left >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    do {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
      p += 32;
      left -= 32;
    } while (left >= 32);
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    for (std::uint64_t v : {v1, v2, v3, v4}) {
      h = (h ^ Round(0, v)) * kPrime1 + kPrime4;
    }
  } else {
    h = seed + kPrime5;
  }
  h += size;
  for (; left >= 8; p += 8, left -= 8) h = Fold(h, Load64(p));
  if (left > 0) {
    // The length is already mixed in, so zero padding is unambiguous.
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, left);
    h = Fold(h, tail);
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace tcdp

#endif  // TCDP_COMMON_HASH_H_
