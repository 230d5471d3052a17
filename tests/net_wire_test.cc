// Unit tests for the network wire layer: framing + incremental
// reassembly (net/wire.h) and the typed message codecs
// (net/messages.h). The decoder is hostile-input-facing, so every
// malformed shape here must come back as Status — never UB — and a
// poisoned decoder must stay poisoned.

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "net/messages.h"
#include "net/wire.h"
#include "workload/generators.h"

namespace tcdp {
namespace net {
namespace {

std::string PreambleBytes() {
  std::string bytes;
  AppendPreamble(&bytes);
  return bytes;
}

TEST(FrameDecoderTest, RoundTripsFramesFedByteByByte) {
  std::string stream = PreambleBytes();
  AppendFrame(&stream, MsgType::kFlush, "");
  AppendFrame(&stream, MsgType::kRelease, EncodeRelease("alice", 0.25));
  AppendFrame(&stream, MsgType::kQuery, std::string(1000, 'x'));

  FrameDecoder decoder;
  for (char byte : stream) {
    ASSERT_TRUE(decoder.Feed(&byte, 1).ok());
  }
  ASSERT_EQ(decoder.queued_frames(), 3u);
  EXPECT_TRUE(decoder.preamble_done());

  Frame frame = decoder.PopFrame();
  EXPECT_EQ(frame.type, MsgType::kFlush);
  EXPECT_TRUE(frame.payload.empty());
  frame = decoder.PopFrame();
  EXPECT_EQ(frame.type, MsgType::kRelease);
  auto release = DecodeRelease(frame.payload);
  ASSERT_TRUE(release.ok());
  EXPECT_EQ(release->name, "alice");
  EXPECT_EQ(release->epsilon, 0.25);
  frame = decoder.PopFrame();
  EXPECT_EQ(frame.type, MsgType::kQuery);
  EXPECT_EQ(frame.payload, std::string(1000, 'x'));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameDecoderTest, RejectsBadMagic) {
  std::string stream = "NOTTCDP!????";
  FrameDecoder decoder;
  const Status fed = decoder.Feed(stream.data(), stream.size());
  EXPECT_FALSE(fed.ok());
  EXPECT_NE(fed.message().find("bad magic"), std::string::npos);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameDecoderTest, RejectsWrongVersion) {
  std::string stream(kNetMagic, sizeof(kNetMagic));
  stream += std::string("\x02\x00\x00\x00", 4);  // version 2
  FrameDecoder decoder;
  const Status fed = decoder.Feed(stream.data(), stream.size());
  EXPECT_FALSE(fed.ok());
  EXPECT_NE(fed.message().find("version"), std::string::npos);
}

TEST(FrameDecoderTest, RejectsOversizedLength) {
  std::string stream = PreambleBytes();
  // Hand-build a header announcing kMaxFramePayload + 1 bytes. The
  // decoder must reject it from the header alone (no allocation).
  stream.push_back(static_cast<char>(MsgType::kQuery));
  const std::uint32_t length = kMaxFramePayload + 1;
  stream.append(reinterpret_cast<const char*>(&length), 4);
  stream.append(4, '\0');  // CRC, never reached
  FrameDecoder decoder;
  const Status fed = decoder.Feed(stream.data(), stream.size());
  EXPECT_FALSE(fed.ok());
  EXPECT_NE(fed.message().find("oversized"), std::string::npos);
}

TEST(FrameDecoderTest, RejectsCorruptedCrc) {
  std::string stream = PreambleBytes();
  AppendFrame(&stream, MsgType::kRelease, EncodeRelease("bob", 0.1));
  stream.back() = static_cast<char>(stream.back() ^ 0x40);  // flip payload bit
  FrameDecoder decoder;
  const Status fed = decoder.Feed(stream.data(), stream.size());
  EXPECT_FALSE(fed.ok());
  EXPECT_NE(fed.message().find("CRC"), std::string::npos);
}

TEST(FrameDecoderTest, StaysPoisonedButKeepsEarlierFrames) {
  std::string stream = PreambleBytes();
  AppendFrame(&stream, MsgType::kFlush, "");
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(stream.data(), stream.size()).ok());
  const std::string garbage = "garbage that is not a frame header!";
  EXPECT_FALSE(decoder.Feed(garbage.data(), garbage.size()).ok());
  // Also poisoned for future feeds, even of valid bytes.
  std::string valid;
  AppendFrame(&valid, MsgType::kFlush, "");
  EXPECT_FALSE(decoder.Feed(valid.data(), valid.size()).ok());
  // The frame completed before the poisoning is still deliverable.
  ASSERT_TRUE(decoder.has_frame());
  EXPECT_EQ(decoder.PopFrame().type, MsgType::kFlush);
}

TEST(MessageCodecTest, ReleaseRoundTripAndValidation) {
  auto decoded = DecodeRelease(EncodeRelease("user-7", 0.05));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->name, "user-7");
  EXPECT_EQ(decoded->epsilon, 0.05);
  // Non-positive and non-finite epsilons are rejected at decode.
  EXPECT_FALSE(DecodeRelease(EncodeRelease("u", -1.0)).ok());
  EXPECT_FALSE(DecodeRelease(EncodeRelease("u", 0.0)).ok());
}

TEST(MessageCodecTest, ReleaseAllAndNameRoundTrip) {
  auto eps = DecodeReleaseAll(EncodeReleaseAll(0.125));
  ASSERT_TRUE(eps.ok());
  EXPECT_EQ(*eps, 0.125);
  auto name = DecodeName(EncodeName("carol"));
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, "carol");
}

TEST(MessageCodecTest, ErrorRoundTrip) {
  const Status original = Status::NotFound("user 'x' has not joined");
  Status decoded;
  ASSERT_TRUE(DecodeError(EncodeError(original), &decoded).ok());
  EXPECT_EQ(decoded, original);
  // Code 0 (OK) and unknown codes are invalid on the wire.
  std::string zero;
  zero.push_back('\0');
  zero.push_back('\0');
  EXPECT_FALSE(DecodeError(zero, &decoded).ok());
}

TEST(MessageCodecTest, JoinCarriesCorrelationsBitwise) {
  auto matrix = ClickstreamModel(5, 0.3);
  ASSERT_TRUE(matrix.ok());
  auto corr = TemporalCorrelations::Both(*matrix, *matrix);
  ASSERT_TRUE(corr.ok());
  const std::string payload = EncodeJoin("alice", *corr);
  auto decoded = DecodeJoin(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->name, "alice");
  // Re-encoding the decoded correlations reproduces the exact payload:
  // the matrix survives the wire bitwise.
  EXPECT_EQ(EncodeJoin("alice", decoded->image.correlations), payload);
}

/// A 2-state pair whose entries print with all 17 significant digits
/// (the shortest round-trip form of most of them needs 17, too).
TemporalCorrelations GoldenCorrelations() {
  auto backward = StochasticMatrix::CreateExact(
      Matrix({{1.0 / 3.0, 2.0 / 3.0}, {0.1 + 0.2, 1.0 - (0.1 + 0.2)}}));
  auto forward = StochasticMatrix::CreateExact(
      Matrix({{0.7, 0.3}, {1e-3 / 7.0, 1.0 - 1e-3 / 7.0}}));
  EXPECT_TRUE(backward.ok() && forward.ok());
  return TemporalCorrelations::Both(*backward, *forward).value();
}

// The exact bytes of one Join payload (= a WAL AddUser record): the
// "tcdp-accountant-v2" text at %.17g, quantization -1. Any drift in the
// image printer breaks every existing log and client, and fails here.
TEST(MessageCodecTest, JoinPayloadMatchesGoldenBytes) {
  const std::string golden(
      "\x05"
      "alice"
      "\xe6\x01"
      "tcdp-accountant-v2\n"
      "quantization -1\n"
      "backward 2\n"
      "0.33333333333333331,0.66666666666666663\n"
      "0.30000000000000004,0.69999999999999996\n"
      "forward 2\n"
      "0.69999999999999996,0.29999999999999999\n"
      "0.00014285714285714287,0.99985714285714289\n"
      "epsilons 0\n");
  const TemporalCorrelations corr = GoldenCorrelations();
  EXPECT_EQ(EncodeJoin("alice", corr), golden);

  auto decoded = DecodeJoin(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->name, "alice");
  EXPECT_EQ(decoded->image.cache_alpha_resolution, -1.0);
  EXPECT_TRUE(decoded->image.epsilons.empty());
  EXPECT_EQ(decoded->image.correlations.backward().matrix().data(),
            corr.backward().matrix().data());
  EXPECT_EQ(decoded->image.correlations.forward().matrix().data(),
            corr.forward().matrix().data());
}

std::string ToHex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 15]);
  }
  return hex;
}

server::UserReport GoldenReport() {
  server::UserReport report;
  report.name = "alice";
  report.shard = 1;
  report.join_release = 2;
  report.horizon = 3;
  report.max_tpl = 0.25;
  report.user_level_tpl = 0.3;
  report.epsilons = {0.1, 0.0, 0.2};
  report.tpl_series = {0.15, 0.12, 0.25};
  return report;
}

// The exact bytes of one Report frame as peers already exchange them:
// any drift in the CRC or the series encoding breaks compatibility
// with existing clients and captured streams, and fails here.
TEST(MessageCodecTest, ReportFrameMatchesGoldenBytes) {
  const std::string golden =
      "424b0000000cf401bf05616c696365010203000000000000d03f333333333333d3"
      "3f039a9999999999b93f00000000000000009a9999999999c93f03333333333333"
      "c33fb81e85eb51b8be3f000000000000d03f";
  const server::UserReport report = GoldenReport();
  std::string framed;
  AppendFrame(&framed, MsgType::kReport, EncodeReport(report));
  EXPECT_EQ(ToHex(framed), golden);

  // Encoding in place after other output yields the same frame bytes.
  std::string in_place = "earlier output";
  const std::size_t frame = BeginFrame(&in_place, MsgType::kReport);
  AppendReport(&in_place, report);
  FinishFrame(&in_place, frame);
  EXPECT_EQ(in_place, "earlier output" + framed);

  FrameDecoder decoder(/*expect_preamble=*/false);
  ASSERT_TRUE(decoder.Feed(framed.data(), framed.size()).ok());
  ASSERT_TRUE(decoder.has_frame());
  auto decoded = DecodeReport(decoder.PopFrame().payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->epsilons, report.epsilons);
  EXPECT_EQ(decoded->tpl_series, report.tpl_series);
}

TEST(MessageCodecTest, ReportPayloadSizeIsExact) {
  server::UserReport report = GoldenReport();
  for (std::size_t name_length : {0u, 1u, 127u, 128u, 5000u, 16384u}) {
    report.name.assign(name_length, 'n');
    for (std::size_t horizon : {0u, 1u, 127u, 128u, 16383u, 16384u}) {
      report.horizon = horizon;
      report.shard = horizon;
      report.join_release = horizon * 3;
      report.epsilons.assign(horizon, 0.1);
      report.tpl_series.assign(horizon, 0.2);
      EXPECT_EQ(ReportPayloadSize(report), EncodeReport(report).size())
          << "name " << name_length << " horizon " << horizon;
    }
  }
}

TEST(MessageCodecTest, ReportPayloadSizeAtTheFrameBoundary) {
  // Every field but the two series has a fixed size here; each series
  // costs a 3-byte count plus 8 bytes per release near this horizon.
  server::UserReport report = GoldenReport();
  const std::size_t fixed = 1 + report.name.size() + 3 + 2 * sizeof(double);
  const std::size_t boundary = (kMaxFramePayload - fixed - 2 * 3) / 16;
  for (std::size_t horizon : {boundary, boundary + 1}) {
    report.horizon = 0;  // keeps the varint at one byte
    report.epsilons.assign(horizon, 0.1);
    report.tpl_series.assign(horizon, 0.2);
    const std::size_t encoded = EncodeReport(report).size();
    EXPECT_EQ(ReportPayloadSize(report), encoded) << "horizon " << horizon;
    EXPECT_EQ(encoded <= kMaxFramePayload, horizon == boundary)
        << "horizon " << horizon;
  }
}

TEST(MessageCodecTest, ReportRoundTripBitwise) {
  server::UserReport report;
  report.name = "user-3";
  report.shard = 2;
  report.join_release = 4;
  report.horizon = 6;
  report.max_tpl = 0.6368250731707413;
  report.user_level_tpl = 1.0000000000000002;
  report.epsilons = {0.1, 0.0, 0.2, 0.1, 0.0, 0.05};
  report.tpl_series = {0.1234567890123456, 0.2, 0.3, 0.4, 0.5, 0.6};
  auto decoded = DecodeReport(EncodeReport(report));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->name, report.name);
  EXPECT_EQ(decoded->shard, report.shard);
  EXPECT_EQ(decoded->join_release, report.join_release);
  EXPECT_EQ(decoded->horizon, report.horizon);
  EXPECT_EQ(decoded->max_tpl, report.max_tpl);
  EXPECT_EQ(decoded->user_level_tpl, report.user_level_tpl);
  EXPECT_EQ(decoded->epsilons, report.epsilons);
  EXPECT_EQ(decoded->tpl_series, report.tpl_series);
}

TEST(MessageCodecTest, StatsReportRoundTrip) {
  WireServiceStats stats;
  stats.num_shards = 3;
  stats.num_users = 100;
  stats.horizon = 17;
  stats.join_requests = 100;
  stats.release_requests = 900;
  stats.ticks = 20;
  stats.global_releases = 17;
  for (std::uint64_t s = 0; s < 3; ++s) {
    WireShardStats shard;
    shard.users = 30 + s;
    shard.horizon = 17;
    shard.wal_records = 120 + s;
    shard.wal_bytes = 4096 * (s + 1);
    shard.snapshots_written = s;
    shard.queue_depth = 5 - s;
    shard.enqueue_blocks = 2 * s;
    stats.shards.push_back(shard);
  }
  auto decoded = DecodeStatsReport(EncodeStatsReport(stats));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_shards, stats.num_shards);
  EXPECT_EQ(decoded->release_requests, stats.release_requests);
  ASSERT_EQ(decoded->shards.size(), 3u);
  EXPECT_EQ(decoded->shards[1].wal_bytes, 8192u);
  EXPECT_EQ(decoded->shards[2].enqueue_blocks, 4u);
  EXPECT_EQ(decoded->shards[0].queue_depth, 5u);
}

TEST(MessageCodecTest, EveryStrictPrefixFailsToDecode) {
  // Truncation at any byte must surface as Status, not UB. (Payloads
  // reach these decoders only after the frame CRC passed, but a buggy
  // or malicious peer can frame any bytes it likes.) Each payload's
  // strict prefixes must fail under its own decoder; feeding them to
  // every other decoder additionally exercises the wrong-type paths
  // (success there is harmless, crashing is not).
  server::UserReport report;
  report.name = "u";
  report.epsilons = {0.1, 0.2};
  report.tpl_series = {0.3, 0.4};
  struct Case {
    std::string payload;
    std::function<bool(const std::string&)> decodes;
  };
  const std::vector<Case> cases = {
      {EncodeRelease("alice", 0.25),
       [](const std::string& p) { return DecodeRelease(p).ok(); }},
      {EncodeReleaseAll(0.1),
       [](const std::string& p) { return DecodeReleaseAll(p).ok(); }},
      {EncodeName("bob"),
       [](const std::string& p) { return DecodeName(p).ok(); }},
      {EncodeError(Status::Internal("boom")),
       [](const std::string& p) {
         Status error;
         return DecodeError(p, &error).ok();
       }},
      {EncodeReport(report),
       [](const std::string& p) { return DecodeReport(p).ok(); }},
  };
  for (const Case& c : cases) {
    for (std::size_t cut = 0; cut < c.payload.size(); ++cut) {
      const std::string prefix = c.payload.substr(0, cut);
      EXPECT_FALSE(c.decodes(prefix)) << "prefix length " << cut;
      Status ignored;
      (void)DecodeRelease(prefix);
      (void)DecodeReleaseAll(prefix);
      (void)DecodeName(prefix);
      (void)DecodeError(prefix, &ignored);
      (void)DecodeReport(prefix);
      (void)DecodeStatsReport(prefix);
      (void)DecodeJoin(prefix);
    }
  }
  // And a series count that exceeds the remaining payload is rejected
  // before any allocation.
  std::string huge;
  PutLengthPrefixed(&huge, "u");
  for (int i = 0; i < 3; ++i) PutVarint64(&huge, 0);
  PutDoubleBits(&huge, 0.0);
  PutDoubleBits(&huge, 0.0);
  PutVarint64(&huge, std::uint64_t{1} << 60);  // epsilons count
  EXPECT_FALSE(DecodeReport(huge).ok());
}

}  // namespace
}  // namespace net
}  // namespace tcdp
