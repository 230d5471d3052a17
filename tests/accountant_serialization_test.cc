// Corruption matrix for accountant persistence: truncated and mutated
// v1/v2 blobs must come back as Status — never assert, crash, or
// allocate unboundedly — and the bank's image-restore path must reject
// every class of inconsistent image.

#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/accountant_bank.h"
#include "core/tpl_accountant.h"
#include "markov/stochastic_matrix.h"

namespace tcdp {
namespace {

StochasticMatrix TestMatrix() {
  return StochasticMatrix::FromRows({{0.8, 0.2}, {0.3, 0.7}});
}

TemporalCorrelations TestCorrelations() {
  return TemporalCorrelations::Both(TestMatrix(), TestMatrix()).value();
}

std::string SerializedFixture() {
  TplAccountant accountant(TestCorrelations());
  EXPECT_TRUE(accountant.RecordRelease(0.1).ok());
  EXPECT_TRUE(accountant.RecordSkip().ok());
  EXPECT_TRUE(accountant.RecordRelease(0.2).ok());
  return accountant.Serialize();
}

TEST(AccountantCorruptionMatrix, EveryTruncationFailsCleanly) {
  const std::string blob = SerializedFixture();
  // Every strict prefix must be rejected with a Status. (The final few
  // characters of a trailing number are the one legitimate ambiguity:
  // "0.2" truncated to "0." still parses as a shorter valid number, so
  // prefixes that happen to parse may succeed — but they must never
  // crash. We assert failure for every prefix that drops a whole line.)
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const std::string prefix = blob.substr(0, len);
    auto image = ParseAccountantImage(prefix);
    auto restored = TplAccountant::Deserialize(prefix);
    if (prefix.find("epsilons") == std::string::npos) {
      EXPECT_FALSE(image.ok()) << "prefix of " << len << " parsed";
      EXPECT_FALSE(restored.ok()) << "prefix of " << len << " restored";
    }
  }
}

TEST(AccountantCorruptionMatrix, HostileCountsAreBounded) {
  // A flipped digit must not turn into an exabyte allocation.
  EXPECT_FALSE(ParseAccountantImage("tcdp-accountant-v1\n"
                                    "backward 0\nforward 0\n"
                                    "epsilons 999999999999999999\n0.1\n")
                   .ok());
  EXPECT_FALSE(ParseAccountantImage("tcdp-accountant-v1\n"
                                    "backward 999999999999999999\n")
                   .ok());
  // Negative counts wrap to huge unsigned values; same guard.
  EXPECT_FALSE(ParseAccountantImage("tcdp-accountant-v1\n"
                                    "backward 0\nforward 0\n"
                                    "epsilons -7\n")
                   .ok());
}

TEST(AccountantCorruptionMatrix, HostileValuesRejected) {
  const std::string head = "tcdp-accountant-v1\nbackward 0\nforward 0\n";
  EXPECT_FALSE(ParseAccountantImage(head + "epsilons 1\nnan\n").ok());
  EXPECT_FALSE(ParseAccountantImage(head + "epsilons 1\ninf\n").ok());
  EXPECT_FALSE(ParseAccountantImage(head + "epsilons 1\n-0.5\n").ok());
  EXPECT_FALSE(ParseAccountantImage(head + "epsilons 1\npotato\n").ok());
  EXPECT_FALSE(
      ParseAccountantImage("tcdp-accountant-v2\nquantization nan\n" +
                           std::string("backward 0\nforward 0\nepsilons 0\n"))
          .ok());
  // Matrix rows that are not stochastic.
  EXPECT_FALSE(ParseAccountantImage("tcdp-accountant-v1\n"
                                    "backward 2\n0.5,0.5\n0.9,0.9\n"
                                    "forward 0\nepsilons 0\n")
                   .ok());
  // Declared size disagreeing with the actual row count.
  EXPECT_FALSE(ParseAccountantImage("tcdp-accountant-v1\n"
                                    "backward 3\n0.5,0.5\n0.5,0.5\n"
                                    "forward 0\nepsilons 0\n")
                   .ok());
}

// Serialize -> Parse is the identity on every finite value the image
// can carry: subnormals, DBL_MIN, 0, 1 and 1 - ulp in the matrices,
// the quantization step and the epsilon list all come back bitwise.
TEST(AccountantImageRoundTrip, EdgeValuesComeBackBitwise) {
  const double one_minus_ulp = std::nextafter(1.0, 0.0);
  const double denorm = std::numeric_limits<double>::denorm_min();
  auto backward = StochasticMatrix::CreateExact(
      Matrix({{1.0, denorm}, {one_minus_ulp, 1.0 - one_minus_ulp}}));
  auto forward = StochasticMatrix::CreateExact(
      Matrix({{DBL_MIN, 1.0}, {0.0, 1.0}}));
  ASSERT_TRUE(backward.ok() && forward.ok());
  for (double quantization : {-1.0, 1e-6, denorm, DBL_MIN, one_minus_ulp}) {
    AccountantImage image;
    image.correlations =
        TemporalCorrelations::Both(*backward, *forward).value();
    image.cache_alpha_resolution = quantization;
    image.epsilons = {denorm, 1e-310, DBL_MIN, 0.0, 1.0, one_minus_ulp,
                      DBL_MAX};
    const std::string blob = SerializeAccountantImage(image);
    auto parsed = ParseAccountantImage(blob);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << blob;
    const auto same_bits = [](const std::vector<double>& a,
                              const std::vector<double>& b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
    };
    EXPECT_TRUE(same_bits({parsed->cache_alpha_resolution}, {quantization}));
    EXPECT_TRUE(same_bits(parsed->epsilons, image.epsilons));
    EXPECT_TRUE(same_bits(parsed->correlations.backward().matrix().data(),
                          backward->matrix().data()));
    EXPECT_TRUE(same_bits(parsed->correlations.forward().matrix().data(),
                          forward->matrix().data()));
    EXPECT_EQ(SerializeAccountantImage(*parsed), blob);
  }
}

TEST(AccountantCorruptionMatrix, FieldMutationsFailOrRoundTrip) {
  const std::string blob = SerializedFixture();
  // Swap each keyword for garbage: structural corruption.
  for (const char* keyword : {"quantization", "backward", "forward",
                              "epsilons"}) {
    std::string mutated = blob;
    const std::size_t pos = mutated.find(keyword);
    ASSERT_NE(pos, std::string::npos);
    mutated[pos] = 'X';
    EXPECT_FALSE(ParseAccountantImage(mutated).ok()) << keyword;
  }
  // An unharmed blob still parses and replays bitwise.
  auto image = ParseAccountantImage(blob);
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_EQ(image->epsilons, (std::vector<double>{0.1, 0.0, 0.2}));
  auto restored = TplAccountant::Deserialize(blob);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->Serialize(), blob);
}

// ---------------------------------------------------------------- bank

AccountantBank::Image LiveImage(AccountantBank* bank) {
  bank->AddUser(TestCorrelations());
  bank->AddUser(TestCorrelations());
  EXPECT_TRUE(bank->RecordRelease(0.1).ok());
  EXPECT_TRUE(bank->RecordRelease(0.2, {0}).ok());
  EXPECT_TRUE(bank->RecordRelease(0.3).ok());
  return bank->ExportImage();
}

TEST(AccountantBankRestore, RoundTripsBitwise) {
  AccountantBank bank;
  const AccountantBank::Image image = LiveImage(&bank);
  auto restored = AccountantBank::Restore(image);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->num_users(), bank.num_users());
  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    EXPECT_EQ(restored->TplSeriesFor(u), bank.TplSeriesFor(u)) << u;
    EXPECT_EQ(restored->BplSeriesFor(u), bank.BplSeriesFor(u)) << u;
    EXPECT_EQ(restored->UserEpsSum(u), bank.UserEpsSum(u)) << u;
  }
}

TEST(AccountantBankRestore, RejectsInconsistentImages) {
  AccountantBank bank;
  const AccountantBank::Image good = LiveImage(&bank);

  {
    AccountantBank::Image bad = good;
    bad.participation.pop_back();  // row/schedule length mismatch
    EXPECT_FALSE(AccountantBank::Restore(bad).ok());
  }
  {
    AccountantBank::Image bad = good;
    bad.schedule[1] = -0.2;  // non-positive budget
    EXPECT_FALSE(AccountantBank::Restore(bad).ok());
  }
  {
    AccountantBank::Image bad = good;
    bad.schedule[1] = std::nan("");  // non-finite budget
    EXPECT_FALSE(AccountantBank::Restore(bad).ok());
  }
  {
    AccountantBank::Image bad = good;
    bad.users[0].join = 99;  // join past the horizon
    EXPECT_FALSE(AccountantBank::Restore(bad).ok());
  }
  {
    AccountantBank::Image bad = good;
    bad.users[0].join = 1;  // user 0 joins after user 1
    const auto rejected = AccountantBank::Restore(bad);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rejected.status().message().find("user 1 joins before user 0"),
              std::string::npos)
        << rejected.status().message();
  }
  {
    AccountantBank::Image bad = good;
    bad.users[1].eps_sum += 0.25;  // columns disagree with masks
    EXPECT_FALSE(AccountantBank::Restore(bad).ok());
  }
  {
    AccountantBank::Image bad = good;
    bad.users[0].bpl_last = -1.0;  // negative running state
    EXPECT_FALSE(AccountantBank::Restore(bad).ok());
  }
  {
    AccountantBank::Image bad = good;
    bad.participation[0] = PackedMask::FromWords(
        std::vector<std::uint64_t>(64, ~std::uint64_t{0}));  // too wide
    EXPECT_FALSE(AccountantBank::Restore(bad).ok());
  }
}

TEST(AccountantBankRestore, RejectsOneFlippedBitInALongSparseImage) {
  // Hundreds of users over hundreds of releases: RLE rows, dense rows,
  // All rows and late joiners, the shape the one-pass eps_sum replay
  // has to walk.
  AccountantBank bank;
  for (std::size_t u = 0; u < 300; ++u) bank.AddUser(TestCorrelations());
  for (std::size_t t = 0; t < 400; ++t) {
    if (t % 50 == 25) bank.AddUser(TestCorrelations());
    if (t % 97 == 0) {
      ASSERT_TRUE(bank.RecordRelease(0.05).ok());
      continue;
    }
    std::vector<std::size_t> participants;
    for (std::size_t u = (t * 13) % 17; u < bank.num_users(); u += 17) {
      participants.push_back(u);
    }
    ASSERT_TRUE(bank.RecordRelease(0.01 * (1 + t % 7), participants).ok());
  }
  const AccountantBank::Image good = bank.ExportImage();
  auto restored = AccountantBank::Restore(good);
  ASSERT_TRUE(restored.ok()) << restored.status();
  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    EXPECT_EQ(restored->UserEpsSum(u), bank.UserEpsSum(u)) << u;
  }

  // Flip one bit of a late joiner, after its join, in a sparse row.
  const std::size_t user = 305;
  const std::size_t t = 380;
  ASSERT_GE(t, good.users[user].join);
  ASSERT_FALSE(good.participation[t].is_all());
  AccountantBank::Image bad = good;
  std::vector<std::uint64_t> words =
      bad.participation[t].ToWords(bad.participation[t].num_words());
  words[user >> 6] ^= std::uint64_t{1} << (user & 63u);
  bad.participation[t] = PackedMask::FromWords(std::move(words));
  const auto rejected = AccountantBank::Restore(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("user 305 eps_sum"),
            std::string::npos)
      << rejected.status().message();
}

TEST(AccountantBankRestore, BitsOutsideAUsersSeriesStayOutOfTheIndex) {
  // A row bit for a user before its join (or past the fleet) selects
  // nothing: the eps_sum replay skips it, and so must the
  // participation index that EpsilonsFor and SeriesFor read.
  AccountantBank bank;
  bank.AddUser(TestCorrelations());
  bank.AddUser(TestCorrelations());
  ASSERT_TRUE(bank.RecordRelease(0.1, {0}).ok());
  ASSERT_TRUE(bank.RecordRelease(0.2, {1}).ok());
  const std::size_t late = bank.AddUser(TestCorrelations());
  ASSERT_TRUE(bank.RecordRelease(0.3, {late}).ok());
  ASSERT_TRUE(bank.RecordRelease(0.4, {0}).ok());
  ASSERT_TRUE(bank.RecordRelease(0.5).ok());

  AccountantBank::Image crafted = bank.ExportImage();
  ASSERT_EQ(crafted.users[late].join, 2u);
  // Release 0 also selects the late joiner (join 2 > 0) and user 9,
  // past the 3-user fleet but inside the row's one word.
  crafted.participation[0] = PackedMask::FromWords(
      {(std::uint64_t{1} << 0) | (std::uint64_t{1} << late) |
       (std::uint64_t{1} << 9)});
  auto restored = AccountantBank::Restore(crafted);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->ParticipationIndexEntries(),
            bank.ParticipationIndexEntries());
  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    EXPECT_EQ(restored->EpsilonsFor(u), bank.EpsilonsFor(u)) << u;
    EXPECT_EQ(restored->TplSeriesFor(u), bank.TplSeriesFor(u)) << u;
    EXPECT_EQ(restored->FplSeriesFor(u), bank.FplSeriesFor(u)) << u;
  }
  EXPECT_EQ(restored->EpsilonsFor(late), std::vector<double>({0.3, 0.0, 0.5}));
}

TEST(AccountantBankSerializeUser, MatchesStandaloneAccountant) {
  AccountantBank bank;
  (void)LiveImage(&bank);
  for (std::size_t u = 0; u < bank.num_users(); ++u) {
    auto restored = TplAccountant::Deserialize(bank.SerializeUser(u));
    ASSERT_TRUE(restored.ok()) << restored.status();
    EXPECT_EQ(restored->TplSeries(), bank.TplSeriesFor(u)) << u;
    EXPECT_EQ(restored->UserLevelTpl(), bank.UserEpsSum(u)) << u;
  }
}

TEST(AccountantBankParticipation, LongHistoriesCompress) {
  AccountantBank bank;
  for (int u = 0; u < 2048; ++u) bank.AddUser(TestCorrelations());
  // Sparse schedule: a fixed small clique participates, everyone else
  // skips — rows are mostly zero words and should RLE away.
  const std::vector<std::size_t> clique = {0, 1, 2};
  for (int t = 0; t < 200; ++t) {
    ASSERT_TRUE(bank.RecordRelease(0.01, clique).ok());
  }
  const AccountantBank::Image image = bank.ExportImage();
  for (const PackedMask& row : image.participation) {
    EXPECT_TRUE(row.is_rle()) << "rows should RLE below the dense footprint";
  }
  // And the index still answers membership exactly.
  EXPECT_EQ(bank.EpsilonsFor(2)[150], 0.01);
  EXPECT_EQ(bank.EpsilonsFor(3)[150], 0.0);
  EXPECT_EQ(bank.UserEpsSum(3), 0.0);
}

}  // namespace
}  // namespace tcdp
