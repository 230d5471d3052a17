// The write-ahead event log: framing round-trips, torn-tail recovery at
// every byte offset, CRC detection of flipped bytes, and
// truncate-then-append resumption.

#include "server/event_log.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/packed_mask.h"
#include "server/records.h"

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
  EXPECT_TRUE(decoded->mask.bit(70));
  EXPECT_FALSE(decoded->mask.bit(1));
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
