// Tests for the kAddUser/kSnapUser codecs' per-thread image memo
// (server/records.h): every decode must equal a fresh
// ParseAccountantImage bit for bit, every encode must equal the
// un-memoized SerializeAccountantImage byte for byte, a blob one byte
// away from a cached one is parsed afresh with the same verdict, the
// memo stays inside its stated bound, and threads never share entries.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/random.h"
#include "core/tpl_accountant.h"
#include "markov/stochastic_matrix.h"
#include "server/records.h"

namespace tcdp {
namespace server {
namespace {

std::uint64_t Bits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

bool SameMatrixBits(const StochasticMatrix& a, const StochasticMatrix& b) {
  const std::vector<double>& x = a.matrix().data();
  const std::vector<double>& y = b.matrix().data();
  return a.size() == b.size() && x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

// Matrix data, presence of each direction and the quantization bits.
void ExpectSameImage(const AccountantImage& got, const AccountantImage& want) {
  const TemporalCorrelations& g = got.correlations;
  const TemporalCorrelations& w = want.correlations;
  ASSERT_EQ(g.has_backward(), w.has_backward());
  ASSERT_EQ(g.has_forward(), w.has_forward());
  if (w.has_backward()) {
    EXPECT_TRUE(SameMatrixBits(g.backward(), w.backward()));
  }
  if (w.has_forward()) {
    EXPECT_TRUE(SameMatrixBits(g.forward(), w.forward()));
  }
  EXPECT_EQ(Bits(got.cache_alpha_resolution),
            Bits(want.cache_alpha_resolution));
  EXPECT_EQ(got.epsilons, want.epsilons);
}

// Profile i of a deterministic family: the direction cycles through
// None, BackwardOnly, ForwardOnly and Both, and the quantization
// alternates between cached and direct evaluators.
AccountantImage Profile(std::size_t i, std::size_t n, Rng* rng) {
  AccountantImage image;
  StochasticMatrix a = StochasticMatrix::Random(n, rng);
  StochasticMatrix b = StochasticMatrix::Random(n, rng);
  switch (i % 4) {
    case 0:
      break;
    case 1:
      image.correlations = TemporalCorrelations::BackwardOnly(a);
      break;
    case 2:
      image.correlations = TemporalCorrelations::ForwardOnly(a);
      break;
    default:
      image.correlations = TemporalCorrelations::Both(a, b).value();
  }
  // Even i (None among them) carry a quantization unique to i.
  image.cache_alpha_resolution =
      i % 2 == 0 ? 1e-9 * static_cast<double>(i + 1) : -1.0;
  return image;
}

std::string AddUserPayload(const std::string& name, const std::string& blob) {
  std::string out;
  PutLengthPrefixed(&out, name);
  PutLengthPrefixed(&out, blob);
  return out;
}

std::string SnapUserPayload(const std::string& name, const std::string& blob) {
  std::string out;
  PutLengthPrefixed(&out, name);
  PutVarint64(&out, 7);
  PutDoubleBits(&out, 0.5);
  PutDoubleBits(&out, 0.25);
  PutLengthPrefixed(&out, blob);
  return out;
}

void ExpectWithinBound() {
  const ImageMemoStats stats = ThreadImageMemoStats();
  EXPECT_LE(stats.entries, kImageMemoMaxEntries);
  EXPECT_LE(stats.bytes, kImageMemoMaxBytes);
}

TEST(ImageMemo, DecodesEqualAFreshParseWhileCyclingPastTheBound) {
  Rng rng(11);
  std::vector<std::string> blobs;
  for (std::size_t i = 0; i < kImageMemoMaxEntries + 60; ++i) {
    blobs.push_back(SerializeAccountantImage(Profile(i, 3, &rng)));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < blobs.size(); ++i) {
      const auto want = ParseAccountantImage(blobs[i]);
      ASSERT_TRUE(want.ok()) << want.status();
      const auto add =
          DecodeAddUser(AddUserPayload("u" + std::to_string(i), blobs[i]));
      ASSERT_TRUE(add.ok()) << add.status();
      EXPECT_EQ(add->name, "u" + std::to_string(i));
      ExpectSameImage(add->image, *want);
      // The same blob again, now as a snapshot row: a memo hit.
      const ImageMemoStats before = ThreadImageMemoStats();
      const auto snap = DecodeSnapUser(SnapUserPayload("s", blobs[i]));
      ASSERT_TRUE(snap.ok()) << snap.status();
      EXPECT_EQ(ThreadImageMemoStats().hits, before.hits + 1);
      EXPECT_EQ(snap->join, 7u);
      ExpectSameImage(snap->image, *want);
      ExpectWithinBound();
    }
  }
  EXPECT_EQ(ThreadImageMemoStats().entries, kImageMemoMaxEntries);
}

TEST(ImageMemo, ByteBoundEvictsBeforeTheEntryBound) {
  Rng rng(12);
  // n = 24 with both directions charges about 30 KiB an entry, so the
  // byte bound binds long before 256 entries.
  AccountantImage image;
  image.cache_alpha_resolution = 1e-9;
  for (int i = 0; i < 48; ++i) {
    image.correlations =
        TemporalCorrelations::Both(StochasticMatrix::Random(24, &rng),
                                   StochasticMatrix::Random(24, &rng))
            .value();
    const std::string payload = EncodeAddUser({"u", image});
    ASSERT_TRUE(DecodeAddUser(payload).ok());
    ExpectWithinBound();
  }
  EXPECT_LT(ThreadImageMemoStats().entries, 48u);
  EXPECT_GT(ThreadImageMemoStats().bytes, kImageMemoMaxBytes / 2);
}

TEST(ImageMemo, OversizedBlobBypassesTheMemo) {
  Rng rng(13);
  AccountantImage image;
  image.correlations =
      TemporalCorrelations::Both(StochasticMatrix::Random(96, &rng),
                                 StochasticMatrix::Random(96, &rng))
          .value();
  const std::string blob = SerializeAccountantImage(image);
  ASSERT_GT(blob.size(), kImageMemoMaxEntryBytes);
  const std::string payload = AddUserPayload("big", blob);
  const ImageMemoStats before = ThreadImageMemoStats();
  for (int i = 0; i < 2; ++i) {
    const auto decoded = DecodeAddUser(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ExpectSameImage(decoded->image, image);
    EXPECT_EQ(EncodeAddUser(*decoded), payload);
  }
  const ImageMemoStats after = ThreadImageMemoStats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses + 4);
}

// What the un-memoized codec would answer for a record holding \p blob.
void ExpectFreshVerdict(const std::string& blob, const Status& status,
                        const AccountantImage* image, const char* record) {
  const auto fresh = ParseAccountantImage(blob);
  if (!fresh.ok()) {
    EXPECT_EQ(status, fresh.status()) << record;
  } else if (!fresh->epsilons.empty()) {
    EXPECT_EQ(status, Status::InvalidArgument(
                          std::string(record) +
                          ": embedded accountant blob carries history"));
  } else {
    ASSERT_TRUE(status.ok()) << record << ": " << status;
    ExpectSameImage(*image, *fresh);
  }
}

TEST(ImageMemo, OneByteAwayFromACachedBlobIsParsedAfresh) {
  AccountantImage image;
  image.correlations =
      TemporalCorrelations::Both(
          StochasticMatrix::FromRows({{0.8, 0.2}, {0.25, 0.75}}),
          StochasticMatrix::FromRows({{0.5, 0.5}, {0.125, 0.875}}))
          .value();
  image.cache_alpha_resolution = 1e-6;
  const std::string blob = SerializeAccountantImage(image);
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    for (char ch : std::string("0123456789.-+e ,\nx")) {
      if (blob[pos] == ch) continue;
      std::string mutated = blob;
      mutated[pos] = ch;
      SCOPED_TRACE("byte " + std::to_string(pos) + " -> '" +
                   std::string(1, ch) + "'");
      // Cache the original, then decode its one-byte neighbour.
      ASSERT_TRUE(DecodeAddUser(AddUserPayload("a", blob)).ok());
      const auto add = DecodeAddUser(AddUserPayload("a", mutated));
      ExpectFreshVerdict(mutated, add.status(),
                         add.ok() ? &add->image : nullptr, "DecodeAddUser");
      ASSERT_TRUE(DecodeSnapUser(SnapUserPayload("a", blob)).ok());
      const auto snap = DecodeSnapUser(SnapUserPayload("a", mutated));
      ExpectFreshVerdict(mutated, snap.status(),
                         snap.ok() ? &snap->image : nullptr,
                         "DecodeSnapUser");
      add.ok() ? ++accepted : ++refused;
    }
  }
  // The mutations reach both verdicts.
  EXPECT_GT(accepted, 10u);
  EXPECT_GT(refused, 10u);
}

TEST(ImageMemo, CachedBlobWithHistoryAppendedIsRefused) {
  AccountantImage image;
  image.correlations = TemporalCorrelations::ForwardOnly(
      StochasticMatrix::FromRows({{0.9, 0.1}, {0.3, 0.7}}));
  const std::string blob = SerializeAccountantImage(image);
  ASSERT_TRUE(DecodeSnapUser(SnapUserPayload("a", blob)).ok());
  image.epsilons = {0.5};
  const std::string with_history = SerializeAccountantImage(image);
  EXPECT_EQ(DecodeSnapUser(SnapUserPayload("a", with_history)).status(),
            Status::InvalidArgument(
                "DecodeSnapUser: embedded accountant blob carries history"));
  EXPECT_EQ(DecodeAddUser(AddUserPayload("a", with_history)).status(),
            Status::InvalidArgument(
                "DecodeAddUser: embedded accountant blob carries history"));
}

TEST(ImageMemo, EncodesTheUnmemoizedBytesForEveryShape) {
  const StochasticMatrix m =
      StochasticMatrix::FromRows({{1.0 / 3.0, 2.0 / 3.0}, {0.3, 0.7}});
  // The same matrix with 0.0 and -0.0 prints differently, so the memo
  // key must be the bits, not the values.
  auto zero = StochasticMatrix::CreateExact(Matrix({{0.0, 1.0}, {0.5, 0.5}}));
  auto negzero =
      StochasticMatrix::CreateExact(Matrix({{-0.0, 1.0}, {0.5, 0.5}}));
  ASSERT_TRUE(zero.ok() && negzero.ok());
  std::vector<TemporalCorrelations> shapes = {
      TemporalCorrelations::None(),
      TemporalCorrelations::BackwardOnly(m),
      TemporalCorrelations::ForwardOnly(m),
      TemporalCorrelations::Both(m, m).value(),
      TemporalCorrelations::BackwardOnly(*zero),
      TemporalCorrelations::BackwardOnly(*negzero),
  };
  std::vector<std::string> seen;
  for (int round = 0; round < 2; ++round) {
    for (double quantization : {1e-9, -1.0}) {
      for (const TemporalCorrelations& shape : shapes) {
        AccountantImage image;
        image.correlations = shape;
        image.cache_alpha_resolution = quantization;
        const std::string want = SerializeAccountantImage(image);
        // Encoding drops any history the image carries.
        AccountantImage with_history = image;
        with_history.epsilons = {0.1, 0.2};
        EXPECT_EQ(EncodeAddUser({"u", with_history}),
                  AddUserPayload("u", want));
        SnapUserRecord snap;
        snap.name = "s";
        snap.join = 7;
        snap.bpl_last = 0.5;
        snap.eps_sum = 0.25;
        snap.image = image;
        EXPECT_EQ(EncodeSnapUser(snap), SnapUserPayload("s", want));
        if (round == 0) seen.push_back(want);
      }
    }
  }
  // Twelve distinct images print twelve distinct blobs.
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
  EXPECT_EQ(seen.size(), 12u);
}

TEST(ImageMemo, ThreadsEncodeAndDecodeTheSameBlobsConcurrently) {
  Rng rng(14);
  std::vector<AccountantImage> images;
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < 24; ++i) {
    images.push_back(Profile(i, 4, &rng));
    payloads.push_back(
        AddUserPayload("u", SerializeAccountantImage(images.back())));
  }
  std::vector<int> failures(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        for (std::size_t i = 0; i < images.size(); ++i) {
          const std::size_t k = (i + static_cast<std::size_t>(t)) %
                                images.size();
          if (EncodeAddUser({"u", images[k]}) != payloads[k]) ++failures[t];
          const auto decoded = DecodeAddUser(payloads[k]);
          if (!decoded.ok() ||
              EncodeAddUser(*decoded) != payloads[k]) {
            ++failures[t];
          }
        }
      }
      // Each thread filled its own memo.
      if (ThreadImageMemoStats().entries != 2 * images.size()) ++failures[t];
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace server
}  // namespace tcdp
