// The write-ahead event log: framing round-trips, torn-tail recovery at
// every byte offset, CRC detection of flipped bytes,
// truncate-then-append resumption, and the golden bytes of WAL and
// snapshot records.

#include "server/event_log.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/packed_mask.h"
#include "core/accountant_bank.h"
#include "markov/stochastic_matrix.h"
#include "server/records.h"
#include "server/snapshot.h"

namespace tcdp {
namespace server {
namespace {

class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "/tmp/tcdp_event_log_test.wal";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string ReadFileBytes() {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  void WriteFileBytes(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
};

TEST_F(EventLogTest, RoundTripsRecords) {
  {
    auto writer = EventLogWriter::Create(path_);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Append(EventType::kManifest, "manifest").ok());
    ASSERT_TRUE(writer->Append(EventType::kAddUser, "").ok());
    ASSERT_TRUE(writer->Append(EventType::kRelease,
                               std::string("\x00\x01\x02", 3))
                    .ok());
    EXPECT_EQ(writer->records_written(), 3u);
    ASSERT_TRUE(writer->Sync().ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  auto result = ReadEventLog(path_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->clean);
  ASSERT_EQ(result->records.size(), 3u);
  EXPECT_EQ(result->records[0].type, EventType::kManifest);
  EXPECT_EQ(result->records[0].payload, "manifest");
  EXPECT_EQ(result->records[1].payload, "");
  EXPECT_EQ(result->records[2].payload, std::string("\x00\x01\x02", 3));
  EXPECT_EQ(result->record_end.size(), 3u);
  EXPECT_EQ(result->valid_bytes, result->record_end.back());
}

// The exact bytes of a WAL holding one sparse kRelease record, as
// existing logs store it: any drift in the CRC or the record codec
// would make those logs unreadable, and fails here.
TEST_F(EventLogTest, ReleaseRecordMatchesGoldenBytes) {
  const std::uint64_t words[2] = {0x9, 0x40};  // users 0, 3 and 70
  ReleaseRecord record;
  record.epsilon = 0.1;
  record.mask = PackedMask::FromWordSpan(words, 2);
  {
    auto writer = EventLogWriter::Create(path_);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(
        writer->Append(EventType::kRelease, EncodeRelease(record)).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : ReadFileBytes()) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 15]);
  }
  EXPECT_EQ(hex,
            "5443445057414c31031b000000f3a055ce9a9999999999b93f0001020900"
            "0000000000004000000000000000");

  auto result = ReadEventLog(path_);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->records.size(), 1u);
  auto decoded = DecodeRelease(result->records[0].payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->epsilon, 0.1);
  EXPECT_FALSE(decoded->all);
  EXPECT_EQ(decoded->mask.ToWords(2),
            (std::vector<std::uint64_t>{0x9, 0x40}));
}

// The exact bytes of one kSnapUser record as snapshots store it: the
// binary user fields, then the "tcdp-accountant-v2" text at %.17g with
// the cache's quantization step. Entries print with all 17 digits, so
// any drift in the image printer shows up here — and would make every
// existing snapshot unreadable.
TEST_F(EventLogTest, SnapUserRecordMatchesGoldenBytes) {
  auto backward = StochasticMatrix::CreateExact(
      Matrix({{1.0 / 3.0, 2.0 / 3.0}, {0.1 + 0.2, 1.0 - (0.1 + 0.2)}}));
  auto forward = StochasticMatrix::CreateExact(
      Matrix({{0.7, 0.3}, {1e-3 / 7.0, 1.0 - 1e-3 / 7.0}}));
  ASSERT_TRUE(backward.ok() && forward.ok());
  SnapUserRecord record;
  record.name = "bob";
  record.join = 3;
  record.bpl_last = 0.5;
  record.eps_sum = 0.25;
  record.image.correlations =
      TemporalCorrelations::Both(*backward, *forward).value();
  record.image.cache_alpha_resolution = 1e-6;
  {
    auto writer = EventLogWriter::Create(path_);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(
        writer->Append(EventType::kSnapUser, EncodeSnapUser(record)).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  const std::string payload(
      "\x03"
      "bob"
      "\x03"
      "\x00\x00\x00\x00\x00\x00\xe0\x3f"
      "\x00\x00\x00\x00\x00\x00\xd0\x3f"
      "\xfa\x01"
      "tcdp-accountant-v2\n"
      "quantization 9.9999999999999995e-07\n"
      "backward 2\n"
      "0.33333333333333331,0.66666666666666663\n"
      "0.30000000000000004,0.69999999999999996\n"
      "forward 2\n"
      "0.69999999999999996,0.29999999999999999\n"
      "0.00014285714285714287,0.99985714285714289\n"
      "epsilons 0\n",
      273);
  // Magic, type 17, length 273, CRC-32 of type + payload.
  const std::string header("TCDPWAL1\x11\x11\x01\x00\x00\xae\xbd\x8e\x8a", 17);
  EXPECT_EQ(ReadFileBytes(), header + payload);

  auto decoded = DecodeSnapUser(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->name, "bob");
  EXPECT_EQ(decoded->join, 3u);
  EXPECT_EQ(decoded->image.cache_alpha_resolution, 1e-6);
  EXPECT_EQ(decoded->image.correlations.backward().matrix().data(),
            backward->matrix().data());
  EXPECT_EQ(decoded->image.correlations.forward().matrix().data(),
            forward->matrix().data());
  EXPECT_EQ(EncodeSnapUser(*decoded), payload);
}

// The exact bytes of a snapshot of a live bank. Its rows are rebuilt
// from the bank's participation index, and this pins them to the
// layout existing snapshots hold: All rows, dense rows of up to four
// words, RLE rows, an empty participant list, releases at 0 users,
// duplicate participants and late joiners. No user has a backward
// matrix, so every stored double is a sum of budgets and the bytes do
// not depend on the platform's libm.
TEST_F(EventLogTest, LiveBankSnapshotMatchesGoldenBytes) {
  const TemporalCorrelations profiles[] = {
      TemporalCorrelations::None(),
      TemporalCorrelations::ForwardOnly(
          StochasticMatrix::FromRows({{0.8, 0.2}, {0.0, 1.0}})),
      TemporalCorrelations::ForwardOnly(StochasticMatrix::FromRows(
          {{0.6, 0.3, 0.1}, {0.2, 0.5, 0.3}, {0.1, 0.1, 0.8}}))};
  AccountantBank bank;
  std::vector<std::string> names;
  const auto add_users = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      bank.AddUser(profiles[names.size() % 3]);
      names.push_back("u" + std::to_string(names.size()));
    }
  };
  ASSERT_TRUE(bank.RecordRelease(0.25, {}).ok());  // 0 users: one zero word
  ASSERT_TRUE(bank.RecordRelease(0.5).ok());       // 0 users: All
  add_users(70);
  ASSERT_TRUE(bank.RecordRelease(0.1, {0, 3, 69, 3}).ok());
  ASSERT_TRUE(bank.RecordRelease(0.2).ok());
  ASSERT_TRUE(bank.RecordRelease(0.3, {}).ok());
  add_users(130);
  ASSERT_TRUE(bank.RecordRelease(0.15, {5, 199}).ok());
  ASSERT_TRUE(bank.RecordRelease(0.05, {}).ok());
  add_users(100);
  ASSERT_TRUE(bank.RecordRelease(0.05, {7, 7}).ok());
  ASSERT_TRUE(bank.RecordRelease(0.35, {1, 130, 299}).ok());
  ASSERT_TRUE(bank.RecordRelease(0.45).ok());
  ASSERT_TRUE(bank.RecordRelease(0.4, {256, 260, 256}).ok());

  ShardSnapshot snapshot;
  snapshot.applied_records = 1 + names.size() + bank.horizon();
  snapshot.names = names;
  snapshot.bank = bank.ExportImage();
  snapshot.alpha_resolution = bank.cache_alpha_resolution();
  // (kind, words) per row: 'A'll, 'D'ense or 'R'LE.
  const std::vector<std::pair<char, std::size_t>> shapes = {
      {'D', 1}, {'A', 0}, {'D', 2}, {'A', 0}, {'D', 2}, {'D', 4},
      {'R', 4}, {'R', 5}, {'D', 5}, {'A', 0}, {'R', 5}};
  ASSERT_EQ(snapshot.bank.participation.size(), shapes.size());
  for (std::size_t t = 0; t < shapes.size(); ++t) {
    const PackedMask& row = snapshot.bank.participation[t];
    const char kind = row.is_all() ? 'A' : row.is_rle() ? 'R' : 'D';
    EXPECT_EQ(kind, shapes[t].first) << "release " << t;
    EXPECT_EQ(row.num_words(), shapes[t].second) << "release " << t;
  }
  auto encoded = EncodeShardSnapshot(snapshot);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  const std::string bytes = *encoded;
  EXPECT_EQ(bytes.size(), 56994u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0xfec22188u);
  WriteFileBytes(bytes);

  // Restore, then export: the same image, written to the same bytes.
  auto read = ReadShardSnapshot(path_);
  ASSERT_TRUE(read.ok()) << read.status();
  auto restored = AccountantBank::Restore(read->bank);
  ASSERT_TRUE(restored.ok()) << restored.status();
  snapshot.bank = restored->ExportImage();
  EXPECT_EQ(snapshot.bank.schedule, bank.schedule());
  EXPECT_TRUE(snapshot.bank.participation == read->bank.participation);
  encoded = EncodeShardSnapshot(snapshot);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  EXPECT_EQ(*encoded, bytes);
}

TEST_F(EventLogTest, MissingFileIsNotFound) {
  auto result = ReadEventLog("/tmp/definitely_missing_tcdp.wal");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(EventLogTest, BadMagicRejected) {
  WriteFileBytes("NOTALOG1xxxxxxxx");
  auto result = ReadEventLog(path_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EventLogTest, TruncationAtEveryOffsetRecoversValidPrefix) {
  {
    auto writer = EventLogWriter::Create(path_);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(writer
                      ->Append(EventType::kRelease,
                               "payload-" + std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE(writer->Close().ok());
  }
  const std::string full = ReadFileBytes();
  auto full_read = ReadEventLog(path_);
  ASSERT_TRUE(full_read.ok());
  ASSERT_TRUE(full_read->clean);
  const auto& boundaries = full_read->record_end;

  for (std::size_t cut = 8; cut <= full.size(); ++cut) {
    WriteFileBytes(full.substr(0, cut));
    auto result = ReadEventLog(path_);
    ASSERT_TRUE(result.ok()) << "cut " << cut << ": " << result.status();
    // The number of whole records the cut preserves.
    std::size_t expect_records = 0;
    while (expect_records < boundaries.size() &&
           boundaries[expect_records] <= cut) {
      ++expect_records;
    }
    ASSERT_EQ(result->records.size(), expect_records) << "cut " << cut;
    const bool at_boundary =
        cut == 8 || (expect_records > 0 &&
                     boundaries[expect_records - 1] == cut);
    EXPECT_EQ(result->clean, at_boundary) << "cut " << cut;
    for (std::size_t r = 0; r < expect_records; ++r) {
      EXPECT_EQ(result->records[r].payload, "payload-" + std::to_string(r));
    }
  }
}

TEST_F(EventLogTest, FlippedByteStopsAtCorruptRecord) {
  {
    auto writer = EventLogWriter::Create(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(EventType::kAddUser, "first").ok());
    ASSERT_TRUE(writer->Append(EventType::kAddUser, "second").ok());
    ASSERT_TRUE(writer->Append(EventType::kAddUser, "third").ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  const std::string full = ReadFileBytes();
  auto clean_read = ReadEventLog(path_);
  ASSERT_TRUE(clean_read.ok());
  // Flip one byte inside the second record's payload.
  const std::uint64_t second_begin = clean_read->record_end[0];
  std::string corrupt = full;
  corrupt[static_cast<std::size_t>(second_begin) + 9 + 2] ^= 0x40;
  WriteFileBytes(corrupt);
  auto result = ReadEventLog(path_);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->clean);
  ASSERT_EQ(result->records.size(), 1u);
  EXPECT_EQ(result->records[0].payload, "first");
  EXPECT_EQ(result->valid_bytes, second_begin);
  EXPECT_NE(result->tail_error.find("CRC"), std::string::npos)
      << result->tail_error;
}

TEST_F(EventLogTest, TruncateThenAppendResumes) {
  {
    auto writer = EventLogWriter::Create(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(EventType::kAddUser, "keep").ok());
    ASSERT_TRUE(writer->Append(EventType::kRelease, "torn").ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  auto before = ReadEventLog(path_);
  ASSERT_TRUE(before.ok());
  // Simulate a crash that tore the second record, then recovery.
  const std::uint64_t cut = before->record_end[0];
  {
    const std::string full = ReadFileBytes();
    WriteFileBytes(full.substr(0, static_cast<std::size_t>(cut) + 3));
  }
  auto torn = ReadEventLog(path_);
  ASSERT_TRUE(torn.ok());
  EXPECT_FALSE(torn->clean);
  ASSERT_TRUE(TruncateFile(path_, torn->valid_bytes).ok());
  {
    auto writer = EventLogWriter::OpenForAppend(path_, torn->valid_bytes,
                                                torn->records.size());
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Append(EventType::kRelease, "after-crash").ok());
    EXPECT_EQ(writer->records_written(), torn->records.size() + 1);
    ASSERT_TRUE(writer->Close().ok());
  }
  auto result = ReadEventLog(path_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->clean);
  ASSERT_EQ(result->records.size(), 2u);
  EXPECT_EQ(result->records[0].payload, "keep");
  EXPECT_EQ(result->records[1].payload, "after-crash");
}

TEST_F(EventLogTest, AppendAfterCloseFails) {
  auto writer = EventLogWriter::Create(path_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_FALSE(writer->Append(EventType::kAddUser, "x").ok());
}

}  // namespace
}  // namespace server
}  // namespace tcdp
