// Carry-less-multiply folding for the CRC-32 in common/binary_io.
// This file is compiled with -mpclmul -msse4.1 on x86-64; Crc32 enters
// the guarded body only after Crc32UsesFold()'s runtime CPU check,
// so the binary stays safe on CPUs without PCLMULQDQ. The folding
// scheme and constants are those of Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009),
// for the bit-reflected polynomial 0xEDB88320: the register it returns
// is the one the slice-by-8 table loop would hold after the same bytes.

#include <cstddef>
#include <cstdint>

#include "common/binary_io.h"

#if defined(__PCLMUL__) && defined(__SSE4_1__) && \
    (defined(__x86_64__) || defined(_M_X64))

#include <immintrin.h>

namespace tcdp {
namespace {

// x^k mod P for the fold distances, bit-reflected and shifted left by
// one (the paper's k1..k5), and the Barrett pair (P, mu).
constexpr long long kFold512Lo = 0x154442bd4;  // k1: x^(4*128+32)
constexpr long long kFold512Hi = 0x1c6e41596;  // k2: x^(4*128-32)
constexpr long long kFold128Lo = 0x1751997d0;  // k3: x^(128+32)
constexpr long long kFold128Hi = 0x0ccaa009e;  // k4: x^(128-32)
constexpr long long kFold64 = 0x163cd6124;     // k5: x^64
constexpr long long kPoly = 0x1db710641;       // P(x), reflected
constexpr long long kMu = 0x1f7011641;         // floor(x^64 / P(x))

/// a.lo * k.lo xor a.hi * k.hi: moves 128 bits of remainder forward by
/// the distance k encodes.
inline __m128i Fold(__m128i a, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                       _mm_clmulepi64_si128(a, k, 0x11));
}

inline __m128i Load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

}  // namespace

std::uint32_t Crc32Fold(const unsigned char* p, std::size_t size,
                        std::uint32_t crc) {
  // Four independent 128-bit lanes, each folded 512 bits forward per
  // step, keep four multiplies in flight.
  __m128i x0 = _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  size -= 64;
  const __m128i k512 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
  for (; size >= 64; p += 64, size -= 64) {
    x0 = _mm_xor_si128(Fold(x0, k512), Load(p));
    x1 = _mm_xor_si128(Fold(x1, k512), Load(p + 16));
    x2 = _mm_xor_si128(Fold(x2, k512), Load(p + 32));
    x3 = _mm_xor_si128(Fold(x3, k512), Load(p + 48));
  }

  // The lanes into one, then the remaining 16-byte blocks.
  const __m128i k128 = _mm_set_epi64x(kFold128Hi, kFold128Lo);
  __m128i x = _mm_xor_si128(Fold(x0, k128), x1);
  x = _mm_xor_si128(Fold(x, k128), x2);
  x = _mm_xor_si128(Fold(x, k128), x3);
  for (; size >= 16; p += 16, size -= 16) {
    x = _mm_xor_si128(Fold(x, k128), Load(p));
  }

  // 128 -> 96 -> 64 bits of remainder.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k128, 0x10));
  const __m128i k64 = _mm_set_epi64x(0, kFold64);
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k64, 0x00));

  // Barrett reduction to the 32-bit register.
  const __m128i barrett = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

bool Crc32UsesFold() {
  static const bool supported =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return supported;
}

}  // namespace tcdp

#else  // no PCLMULQDQ at build time

namespace tcdp {

std::uint32_t Crc32Fold(const unsigned char*, std::size_t, std::uint32_t crc) {
  return crc;  // never called: Crc32UsesFold() is false
}

bool Crc32UsesFold() { return false; }

}  // namespace tcdp

#endif
