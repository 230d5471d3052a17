// Unit tests for the network wire layer: framing + incremental
// reassembly (net/wire.h) and the typed message codecs
// (net/messages.h). The decoder is hostile-input-facing, so every
// malformed shape here must come back as Status — never UB — and a
// poisoned decoder must stay poisoned.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/run_series.h"
#include "net/messages.h"
#include "net/wire.h"
#include "workload/generators.h"

// The largest single operator-new request since the last reset, so a
// decoder test can show it never allocated for a claimed horizon.
std::atomic<std::size_t> g_largest_allocation{0};

void* operator new(std::size_t size) {
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_allocation.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// GCC flags free() on what it takes for a new-expression's pointer;
// here operator new is malloc, so the pair matches.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

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
  stream += std::string("\x01\x00\x00\x00", 4);  // version 1: dense Reports
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

// The exact bytes of one protocol-version-2 Report frame: any drift in
// the CRC or the run encoding breaks compatibility with existing
// clients and captured streams, and fails here. The payload is
// 05 "alice" | 01 02 03 | 0.25 | 0.3 | epsilons: 03 runs (01, 0.1)
// (01, 0.0) (01, 0.2) | tpl_series: 03 runs (01, 0.15) (01, 0.12)
// (01, 0.25).
TEST(MessageCodecTest, ReportFrameMatchesGoldenBytes) {
  const std::string golden =
      "4251000000e4e8ad7505616c696365010203000000000000d03f333333333333d3"
      "3f03019a9999999999b93f01000000000000000001"
      "9a9999999999c93f0301333333333333c33f01b81e85eb51b8be3f01000000000000"
      "d03f";
  const server::UserReport report = GoldenReport();
  std::string framed;
  AppendFrame(&framed, MsgType::kReport, EncodeReport(report));
  EXPECT_EQ(ToHex(framed), golden);

  // Encoding the run form in place after other output yields the same
  // frame bytes.
  std::string in_place = "earlier output";
  const std::size_t frame = BeginFrame(&in_place, MsgType::kReport);
  AppendReport(&in_place, server::ToRunReport(report));
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
  // Runs of 1, 127, 128 and 16384 entries put one- to three-byte
  // varints in the run lengths and counts.
  server::UserReport report = GoldenReport();
  for (std::size_t name_length : {0u, 1u, 127u, 128u, 5000u, 16384u}) {
    report.name.assign(name_length, 'n');
    for (std::size_t horizon : {0u, 1u, 127u, 128u, 16383u, 16384u}) {
      for (std::size_t run : {1u, 127u, 128u, 16384u}) {
        report.horizon = horizon;
        report.shard = horizon;
        report.join_release = horizon * 3;
        report.epsilons.resize(horizon);
        report.tpl_series.resize(horizon);
        for (std::size_t i = 0; i < horizon; ++i) {
          report.epsilons[i] = (i / run) % 2 ? 0.1 : 0.2;
          report.tpl_series[i] = 0.5 + static_cast<double>(i / run);
        }
        const std::size_t encoded = EncodeReport(report).size();
        EXPECT_EQ(ReportPayloadSize(report), encoded)
            << "name " << name_length << " horizon " << horizon << " run "
            << run;
        EXPECT_EQ(ReportPayloadSize(server::ToRunReport(report)), encoded);
      }
    }
  }
}

TEST(MessageCodecTest, ReportPayloadSizeAtTheFrameBoundary) {
  // Every adjacent value differs, so each series is one run per
  // release: a 3-byte run count plus 9 bytes (a one-byte length and
  // the double) per release near this horizon, 18 bytes a release for
  // the pair. Every other field has a fixed size here.
  server::UserReport report = GoldenReport();
  const std::size_t fixed =
      1 + report.name.size() + 1 + 1 + 3 + 2 * sizeof(double);
  const std::size_t boundary = (kMaxFramePayload - fixed - 2 * 3) / 18;
  for (std::size_t horizon : {boundary, boundary + 1}) {
    report.horizon = horizon;
    report.epsilons.resize(horizon);
    report.tpl_series.resize(horizon);
    for (std::size_t i = 0; i < horizon; ++i) {
      report.epsilons[i] = i % 2 ? 0.1 : 0.2;
      report.tpl_series[i] = static_cast<double>(i);
    }
    const std::string encoded = EncodeReport(report);
    EXPECT_EQ(ReportPayloadSize(report), encoded.size())
        << "horizon " << horizon;
    EXPECT_EQ(encoded.size() <= kMaxFramePayload, horizon == boundary)
        << "horizon " << horizon;
    auto decoded = DecodeReport(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->epsilons, report.epsilons);
    EXPECT_EQ(decoded->tpl_series, report.tpl_series);
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
  // The report's runs of 150 and 199 entries put two-byte varints in
  // the run lengths.
  server::UserReport report;
  report.name = "u";
  report.horizon = 200;
  report.epsilons.assign(150, 0.1);
  report.epsilons.resize(200, 0.2);
  report.tpl_series.assign(1, 0.3);
  report.tpl_series.resize(200, 0.4);
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
  PutVarint64(&huge, std::uint64_t{1} << 60);  // epsilons run count
  EXPECT_FALSE(DecodeReport(huge).ok());
}

/// A Report payload with the given horizon and raw series bytes.
std::string ReportWithSeries(std::uint64_t horizon,
                             const std::string& series) {
  std::string payload;
  PutLengthPrefixed(&payload, "u");
  PutVarint64(&payload, 0);  // shard
  PutVarint64(&payload, 0);  // join_release
  PutVarint64(&payload, horizon);
  PutDoubleBits(&payload, 0.5);
  PutDoubleBits(&payload, 0.5);
  return payload + series;
}

/// One run-coded series: a run count, then (length, value) pairs.
std::string RunBytes(std::uint64_t count,
                     const std::vector<std::uint64_t>& lengths) {
  std::string bytes;
  PutVarint64(&bytes, count);
  for (std::uint64_t length : lengths) {
    PutVarint64(&bytes, length);
    PutDoubleBits(&bytes, 0.25);
  }
  return bytes;
}

TEST(MessageCodecTest, HostileRunsAreRefusedWithoutAllocatingTheHorizon) {
  // Each payload claims a horizon whose dense series would take at
  // least 128 MiB. The decoder must refuse it with InvalidArgument and
  // never ask for a buffer near that size.
  const std::uint64_t big = kMaxReportHorizon;
  const std::string whole = RunBytes(1, {big});
  struct Case {
    const char* what;
    std::string payload;
  };
  const std::vector<Case> cases = {
      {"zero-length run", ReportWithSeries(big, RunBytes(2, {0, big}) + whole)},
      {"runs short of the horizon",
       ReportWithSeries(big, whole + RunBytes(2, {big / 2, big / 2 - 1}))},
      {"runs past the horizon",
       ReportWithSeries(big, RunBytes(2, {big, 1}) + whole)},
      {"run count beyond the payload",
       ReportWithSeries(big, RunBytes(1000, {big}) + whole)},
      {"run count beyond the horizon",
       ReportWithSeries(1, RunBytes(2, {1, 1}) + RunBytes(1, {1}))},
      {"horizon above the cap",
       ReportWithSeries(big + 1, RunBytes(1, {big + 1}) +
                                     RunBytes(1, {big + 1}))},
  };
  for (const Case& c : cases) {
    g_largest_allocation.store(0);
    auto decoded = DecodeReport(c.payload);
    const std::size_t largest = g_largest_allocation.load();
    ASSERT_FALSE(decoded.ok()) << c.what;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << c.what << ": " << decoded.status();
    EXPECT_LT(largest, std::size_t{1} << 16) << c.what;
  }

  // The same shapes made consistent decode and expand to the horizon,
  // which the allocation probe sees.
  g_largest_allocation.store(0);
  auto decoded = DecodeReport(
      ReportWithSeries(1000, RunBytes(2, {400, 600}) + RunBytes(1, {1000})));
  EXPECT_GE(g_largest_allocation.load(), 1000 * sizeof(double));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->epsilons, std::vector<double>(1000, 0.25));
  EXPECT_EQ(decoded->tpl_series, std::vector<double>(1000, 0.25));
}

TEST(MessageCodecTest, ReportFitsTheWireIsWhatEveryDecoderAccepts) {
  // One run per series: a few dozen bytes, far inside the frame, so only
  // the horizon cap can refuse it.
  server::UserReportRuns report;
  report.name = "sparse";
  report.max_tpl = 0.25;
  report.user_level_tpl = 0.25;
  for (const std::uint64_t horizon :
       {kMaxReportHorizon, kMaxReportHorizon + 1}) {
    report.horizon = static_cast<std::size_t>(horizon);
    report.epsilons = {{report.horizon, 0.0}};
    report.tpl_series = {{report.horizon, 0.25}};
    const std::size_t size = ReportPayloadSize(report);
    EXPECT_LT(size, std::size_t{64});
    EXPECT_EQ(ReportFitsTheWire(horizon, size), horizon == kMaxReportHorizon)
        << "horizon " << horizon;
  }
  // The refused one is what DecodeReport refuses (the accepted one would
  // expand to 256 MiB, so it is not decoded here).
  std::string payload;
  AppendReport(&payload, report);
  auto decoded = DecodeReport(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  // The frame bound: a payload one byte past it fails at any horizon.
  EXPECT_TRUE(ReportFitsTheWire(1, kMaxFramePayload));
  EXPECT_FALSE(ReportFitsTheWire(1, kMaxFramePayload + 1));
}

}  // namespace
}  // namespace net
}  // namespace tcdp
