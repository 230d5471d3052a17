// PackedMask: all/dense/RLE representation choice, word expansion past
// the width, set-bit walks, wire round-trips, and corrupted-input
// rejection.

#include "common/packed_mask.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/random.h"

namespace tcdp {
namespace {

std::vector<std::uint64_t> RandomWords(Rng* rng, std::size_t n,
                                       double run_bias) {
  // run_bias near 1 produces long runs of repeated words.
  std::vector<std::uint64_t> words(n);
  std::uint64_t current =
      static_cast<std::uint64_t>(rng->UniformInt(0, 3)) * 0x5555555555555555ull;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng->Uniform() > run_bias) {
      current = static_cast<std::uint64_t>(
          rng->UniformInt(0, static_cast<std::int64_t>(1) << 62));
    }
    words[i] = current;
  }
  return words;
}

TEST(PackedMask, AllMaskIsEveryone) {
  const PackedMask mask = PackedMask::All();
  EXPECT_TRUE(mask.is_all());
  EXPECT_EQ(mask.ToWords(3), std::vector<std::uint64_t>(3, ~0ull));
  EXPECT_EQ(mask.num_words(), 0u);
}

TEST(PackedMask, EmptyExplicitMaskIsNobody) {
  const PackedMask mask = PackedMask::FromWords({});
  EXPECT_FALSE(mask.is_all());
  EXPECT_EQ(mask.ToWords(1), std::vector<std::uint64_t>{0});
  bool visited = false;
  mask.ForEachSetBit([&visited](std::size_t) { visited = true; });
  EXPECT_FALSE(visited);
}

TEST(PackedMask, ShortRowsStayDense) {
  // Three identical words would RLE to one run, but short rows keep the
  // dense path.
  const PackedMask mask = PackedMask::FromWords({0xFFull, 0xFFull, 0xFFull});
  EXPECT_FALSE(mask.is_rle());
  // Past the width every word is zero.
  EXPECT_EQ(mask.ToWords(4),
            (std::vector<std::uint64_t>{0xFFull, 0xFFull, 0xFFull, 0}));
}

TEST(PackedMask, LongUniformRowsCompress) {
  const std::vector<std::uint64_t> words(1000, ~std::uint64_t{0});
  const PackedMask mask = PackedMask::FromWords(words);
  EXPECT_TRUE(mask.is_rle());
  std::string encoded;
  mask.EncodeTo(&encoded);
  EXPECT_LT(encoded.size(), 16u);  // one run: length and word
  EXPECT_EQ(mask.ToWords(1000), words);
  EXPECT_EQ(mask.ToWords(1001).back(), 0u);
}

TEST(PackedMask, MixedRowsMatchDenseReference) {
  Rng rng(20260728);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(0, 40));
    const double bias = rng.Uniform();
    const std::vector<std::uint64_t> words = RandomWords(&rng, n, bias);
    const PackedMask mask = PackedMask::FromWords(words);
    EXPECT_EQ(mask.ToWords(n), words) << "iter " << iter;
    std::vector<std::uint64_t> wider = words;
    wider.push_back(0);
    EXPECT_EQ(mask.ToWords(n + 1), wider) << "iter " << iter;
  }
}

TEST(PackedMask, ForEachSetBitVisitsExactlyTheSetBitsInOrder) {
  Rng rng(20261017);
  bool saw_rle = false;
  bool saw_dense = false;
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(0, 40));
    const std::vector<std::uint64_t> words =
        RandomWords(&rng, n, rng.Uniform());
    const PackedMask mask = PackedMask::FromWords(words);
    (mask.is_rle() ? saw_rle : saw_dense) = true;
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < n * 64; ++i) {
      if ((words[i >> 6] >> (i & 63)) & 1u) expected.push_back(i);
    }
    std::vector<std::size_t> visited;
    mask.ForEachSetBit([&visited](std::size_t i) { visited.push_back(i); });
    EXPECT_EQ(visited, expected) << "iter " << iter;
  }
  EXPECT_TRUE(saw_rle);
  EXPECT_TRUE(saw_dense);
}

TEST(PackedMask, WireRoundTrip) {
  Rng rng(7);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(0, 64));
    const PackedMask original =
        PackedMask::FromWords(RandomWords(&rng, n, rng.Uniform()));
    std::string encoded;
    original.EncodeTo(&encoded);
    BinaryCursor cursor(encoded);
    auto decoded = PackedMask::Decode(cursor);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(cursor.empty());
    EXPECT_TRUE(*decoded == original);
  }
  // The All mask too.
  std::string encoded;
  PackedMask::All().EncodeTo(&encoded);
  BinaryCursor cursor(encoded);
  auto decoded = PackedMask::Decode(cursor);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->is_all());
}

TEST(PackedMask, DecodeRejectsCorruption) {
  const PackedMask original = PackedMask::FromWords(
      std::vector<std::uint64_t>(100, 0xAAAAAAAAAAAAAAAAull));
  ASSERT_TRUE(original.is_rle());
  std::string encoded;
  original.EncodeTo(&encoded);

  // Every strict prefix must fail cleanly, never crash.
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    std::string prefix = encoded.substr(0, len);
    BinaryCursor cursor(prefix);
    EXPECT_FALSE(PackedMask::Decode(cursor).ok()) << "prefix " << len;
  }
  // Unknown kind byte.
  {
    std::string bad = encoded;
    bad[0] = 9;
    BinaryCursor cursor(bad);
    EXPECT_FALSE(PackedMask::Decode(cursor).ok());
  }
}

TEST(PackedMask, DecodeRejectsInconsistentRuns) {
  // Hand-build an RLE encoding whose runs over/under-cover the width.
  auto build = [](std::uint64_t width, std::uint64_t runs,
                  std::uint64_t run_len) {
    std::string out;
    out.push_back(2);  // kRle
    PutVarint64(&out, width);
    PutVarint64(&out, runs);
    for (std::uint64_t r = 0; r < runs; ++r) {
      PutVarint64(&out, run_len);
      PutFixed64(&out, 0xFFull);
    }
    return out;
  };
  {
    std::string under = build(10, 1, 5);  // covers 5 of 10
    BinaryCursor cursor(under);
    EXPECT_FALSE(PackedMask::Decode(cursor).ok());
  }
  {
    std::string over = build(10, 2, 9);  // 18 > 10
    BinaryCursor cursor(over);
    EXPECT_FALSE(PackedMask::Decode(cursor).ok());
  }
  {
    std::string zero_run = build(10, 1, 0);
    BinaryCursor cursor(zero_run);
    EXPECT_FALSE(PackedMask::Decode(cursor).ok());
  }
}

TEST(BinaryIo, VarintRoundTripAndBounds) {
  for (std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{1} << 32,
        ~std::uint64_t{0}}) {
    std::string buf;
    PutVarint64(&buf, v);
    BinaryCursor cursor(buf);
    std::uint64_t back = 0;
    ASSERT_TRUE(cursor.ReadVarint64(&back).ok());
    EXPECT_EQ(back, v);
    EXPECT_TRUE(cursor.empty());
  }
  // An unterminated varint (all continuation bits) must fail.
  std::string runaway(11, static_cast<char>(0x80));
  BinaryCursor cursor(runaway);
  std::uint64_t out = 0;
  EXPECT_FALSE(cursor.ReadVarint64(&out).ok());
}

TEST(BinaryIo, DoubleBitsAreExact) {
  for (double v : {0.0, -0.0, 1.0 / 3.0, 1e-300, -2.5}) {
    std::string buf;
    PutDoubleBits(&buf, v);
    BinaryCursor cursor(buf);
    double back = 1.0;
    ASSERT_TRUE(cursor.ReadDoubleBits(&back).ok());
    std::uint64_t a, b;
    std::memcpy(&a, &v, 8);
    std::memcpy(&b, &back, 8);
    EXPECT_EQ(a, b);
  }
}

TEST(BinaryIo, Crc32KnownVector) {
  // The classic check value for "123456789" under CRC-32/ISO-HDLC.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  // Incremental == one-shot.
  const std::uint32_t head = Crc32("1234", 4);
  EXPECT_EQ(Crc32("56789", 5, head), 0xCBF43926u);
}

/// Byte-at-a-time CRC-32 register update (polynomial 0xEDB88320): the
/// textbook definition the sliced Crc32 must reproduce. The register is
/// kept un-finalized so one pass yields every prefix's CRC.
std::uint32_t ReferenceCrcUpdate(std::uint32_t reg, unsigned char byte) {
  reg ^= byte;
  for (int k = 0; k < 8; ++k) {
    reg = (reg & 1) ? 0xEDB88320u ^ (reg >> 1) : reg >> 1;
  }
  return reg;
}

std::uint32_t ReferenceCrc32(const unsigned char* data, std::size_t size,
                             std::uint32_t seed = 0) {
  std::uint32_t reg = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    reg = ReferenceCrcUpdate(reg, data[i]);
  }
  return reg ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(Rng* rng, std::size_t n) {
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng->UniformInt(0, 255));
  }
  return bytes;
}

TEST(BinaryIo, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  Rng rng(4242);
  const std::vector<unsigned char> bytes = RandomBytes(&rng, 4096 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* start = bytes.data() + offset;
    std::uint32_t reg = 0xFFFFFFFFu;  // reference over start[0, len)
    for (std::size_t len = 0; len <= 4096; ++len) {
      ASSERT_EQ(Crc32(start, len), reg ^ 0xFFFFFFFFu)
          << "offset " << offset << " length " << len;
      if (len < 4096) reg = ReferenceCrcUpdate(reg, start[len]);
    }
  }
}

TEST(BinaryIo, Crc32MatchesBytewiseReferenceOnOneMebibyte) {
  Rng rng(4343);
  const std::vector<unsigned char> bytes = RandomBytes(&rng, (1u << 20) + 7);
  for (std::size_t offset : {0u, 3u, 7u}) {
    EXPECT_EQ(Crc32(bytes.data() + offset, 1u << 20),
              ReferenceCrc32(bytes.data() + offset, 1u << 20))
        << "offset " << offset;
  }
}

TEST(BinaryIo, Crc32ChainsSeedsLikeTheReference) {
  Rng rng(4444);
  const std::vector<unsigned char> bytes = RandomBytes(&rng, 3000);
  const std::uint32_t whole = ReferenceCrc32(bytes.data(), bytes.size());
  for (std::size_t split : {0u, 1u, 7u, 8u, 9u, 63u, 1000u, 2999u, 3000u}) {
    const std::uint32_t head = Crc32(bytes.data(), split);
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
  }
  for (std::uint32_t seed : {0x00000000u, 0x12345678u, 0xFFFFFFFFu}) {
    for (std::size_t len : {0u, 5u, 8u, 17u, 3000u}) {
      EXPECT_EQ(Crc32(bytes.data(), len, seed),
                ReferenceCrc32(bytes.data(), len, seed))
          << "seed " << seed << " length " << len;
    }
  }
}

TEST(BinaryIo, Crc32ChainsAcrossTheFoldBoundaries) {
  // Splits on each side of the fold's 16-byte block and 64-byte minimum,
  // so a chain hands the register between fold and table both ways.
  Rng rng(4545);
  const std::vector<unsigned char> bytes = RandomBytes(&rng, 160);
  for (std::size_t total : {79u, 80u, 81u, 144u, 160u}) {
    const std::uint32_t whole = ReferenceCrc32(bytes.data(), total);
    for (std::size_t split : {15u, 16u, 17u, 63u, 64u, 65u, 79u, 80u}) {
      if (split > total) continue;
      const std::uint32_t head = Crc32(bytes.data(), split);
      EXPECT_EQ(Crc32(bytes.data() + split, total - split, head), whole)
          << "total " << total << " split " << split;
    }
  }
}

TEST(BinaryIo, Crc32TablePathMatchesTheReference) {
  // Checked directly, so a CPU whose Crc32 takes the fold still covers
  // the table path that short inputs and other CPUs run.
  Rng rng(4646);
  const std::vector<unsigned char> bytes = RandomBytes(&rng, 4096 + 8);
  for (std::size_t offset : {0u, 1u, 5u}) {
    const unsigned char* start = bytes.data() + offset;
    std::uint32_t reg = 0xFFFFFFFFu;
    for (std::size_t len = 0; len <= 4096; ++len) {
      ASSERT_EQ(Crc32Table(start, len), reg ^ 0xFFFFFFFFu)
          << "offset " << offset << " length " << len;
      if (len < 4096) reg = ReferenceCrcUpdate(reg, start[len]);
    }
  }
  EXPECT_EQ(Crc32Table("123456789", 9), 0xCBF43926u);
  for (std::uint32_t seed : {0x12345678u, 0xFFFFFFFFu}) {
    EXPECT_EQ(Crc32Table(bytes.data(), 3000, seed),
              ReferenceCrc32(bytes.data(), 3000, seed));
    EXPECT_EQ(Crc32Table(bytes.data(), 3000, seed),
              Crc32(bytes.data(), 3000, seed));
  }
}

TEST(BinaryIo, Crc32FoldIsTakenExactlyWhenTheCpuHasIt) {
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
  const bool cpu_has_fold =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  EXPECT_EQ(Crc32UsesFold(), cpu_has_fold);
#else
  EXPECT_FALSE(Crc32UsesFold());
#endif
}

TEST(BinaryIo, DoubleBitsArrayMatchesOneFieldAtATime) {
  const std::vector<double> values = {0.0, -0.0, 1.0 / 3.0, 1e-300, -2.5,
                                      0.1, 6.02e23};
  std::string one_by_one = "prefix";
  for (double v : values) PutDoubleBits(&one_by_one, v);
  std::string bulk = "prefix";
  PutDoubleBitsArray(&bulk, values.data(), values.size());
  EXPECT_EQ(bulk, one_by_one);

  BinaryCursor cursor(bulk.data() + 6, bulk.size() - 6);
  std::vector<double> back(values.size(), 1.0);
  ASSERT_TRUE(cursor.ReadDoubleBitsArray(back.data(), back.size()).ok());
  EXPECT_TRUE(cursor.empty());
  EXPECT_EQ(std::memcmp(back.data(), values.data(),
                        values.size() * sizeof(double)),
            0);

  // One byte short: a clean error, and the cursor does not move.
  BinaryCursor truncated(bulk.data() + 6, bulk.size() - 7);
  EXPECT_FALSE(truncated.ReadDoubleBitsArray(back.data(), back.size()).ok());
  EXPECT_EQ(truncated.remaining(), bulk.size() - 7);
}

TEST(BinaryIo, VarintLengthMatchesEncoding) {
  for (std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{16383}, std::uint64_t{16384}, std::uint64_t{1} << 35,
        ~std::uint64_t{0}}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(VarintLength(v), buf.size()) << v;
  }
}

}  // namespace
}  // namespace tcdp
