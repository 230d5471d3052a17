// Active diagnostics (ISSUE 9): heartbeat registry sampling, watchdog
// stall classification with scan-count detection-latency bounds, the
// flight recorder's bundle contents/atomicity/retention, and the
// crash-path state writer.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"

namespace tcdp {
namespace obs {
namespace {

std::string TempDir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tcdp-obs-" + tag + "-" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

TEST(HeartbeatRegistry, RegisterSampleUnregister) {
  HeartbeatRegistry registry;
  EXPECT_EQ(registry.size(), 0u);

  std::atomic<std::uint64_t> queue{3};
  HeartbeatInfo info;
  info.name = "unit-worker";
  info.kind = HeartbeatKind::kWorker;
  info.pending = [&queue] { return queue.load(); };
  HeartbeatHandle handle = registry.Register(std::move(info));
  ASSERT_TRUE(handle.registered());
  EXPECT_EQ(registry.size(), 1u);

  handle.Beat();
  handle.Beat();
  auto samples = registry.SampleAll();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "unit-worker");
  EXPECT_EQ(samples[0].kind, HeartbeatKind::kWorker);
  EXPECT_EQ(samples[0].progress, 2u);
  EXPECT_EQ(samples[0].pending, 3u);
  EXPECT_GT(samples[0].last_active_ns, 0u);

  handle.Unregister();
  EXPECT_FALSE(handle.registered());
  EXPECT_EQ(registry.size(), 0u);
  // Unregister is idempotent and the handle stays null-safe.
  handle.Unregister();
  handle.Beat();
}

TEST(HeartbeatRegistry, MoveTransfersOwnership) {
  HeartbeatRegistry registry;
  HeartbeatInfo info;
  info.name = "mover";
  HeartbeatHandle a = registry.Register(std::move(info));
  HeartbeatHandle b = std::move(a);
  EXPECT_FALSE(a.registered());
  EXPECT_TRUE(b.registered());
  EXPECT_EQ(registry.size(), 1u);
  b.Unregister();
  EXPECT_EQ(registry.size(), 0u);
}

TEST(Watchdog, IdleWorkerWithEmptyQueueNeverStalls) {
  std::atomic<std::uint64_t> pending{0};
  HeartbeatInfo info;
  info.name = "idle-worker";
  info.kind = HeartbeatKind::kWorker;
  info.pending = [&pending] { return pending.load(); };
  HeartbeatHandle handle = HeartbeatRegistry::Default().Register(
      std::move(info));

  WatchdogOptions options;
  options.interval_ms = 0;  // manual scans only
  options.stall_ticks = 1;
  Watchdog watchdog(options);
  for (int i = 0; i < 5; ++i) watchdog.ScanOnceForTesting();
  const HealthSnapshot snapshot = watchdog.Snapshot();
  EXPECT_TRUE(snapshot.healthy);
  for (const ComponentHealth& comp : snapshot.components) {
    if (comp.name == "idle-worker") {
      EXPECT_FALSE(comp.stalled);
    }
  }
  handle.Unregister();
}

TEST(Watchdog, FrozenWorkerWithPendingWorkStallsWithinStallTicksScans) {
  std::atomic<std::uint64_t> pending{0};
  HeartbeatInfo info;
  info.name = "stuck-worker";
  info.kind = HeartbeatKind::kWorker;
  info.pending = [&pending] { return pending.load(); };
  HeartbeatHandle handle = HeartbeatRegistry::Default().Register(
      std::move(info));

  WatchdogOptions options;
  options.interval_ms = 0;
  options.stall_ticks = 2;
  Watchdog watchdog(options);

  // Healthy while progressing.
  handle.Beat();
  watchdog.ScanOnceForTesting();
  EXPECT_TRUE(watchdog.Snapshot().healthy);

  // Freeze with work pending: detection must land within stall_ticks
  // scans of the freeze (acceptance: 2 scan intervals), measured in
  // scan counts so no wall clock races the assertion.
  pending.store(4);
  const std::uint64_t frozen_at = watchdog.scans();
  bool detected = false;
  std::uint64_t detected_scan = 0;
  for (int i = 0; i < 4 && !detected; ++i) {
    watchdog.ScanOnceForTesting();
    for (const ComponentHealth& comp : watchdog.Snapshot().components) {
      if (comp.name == "stuck-worker" && comp.stalled) {
        detected = true;
        detected_scan = comp.stall_detected_scan;
      }
    }
  }
  ASSERT_TRUE(detected);
  EXPECT_LE(detected_scan, frozen_at + options.stall_ticks + 1);
  EXPECT_FALSE(watchdog.Snapshot().healthy);
  EXPECT_FALSE(watchdog.Snapshot().ready);

  // Progress again: the stall clears on the next scan.
  handle.Beat();
  pending.store(0);
  watchdog.ScanOnceForTesting();
  EXPECT_TRUE(watchdog.Snapshot().healthy);
  handle.Unregister();
}

TEST(Watchdog, ReadyRequiresLatchAndHealth) {
  WatchdogOptions options;
  options.interval_ms = 0;
  Watchdog watchdog(options);
  watchdog.ScanOnceForTesting();
  EXPECT_FALSE(watchdog.Snapshot().ready);  // latch not set
  watchdog.SetReady(true);
  watchdog.ScanOnceForTesting();
  EXPECT_TRUE(watchdog.Snapshot().ready);
}

TEST(Watchdog, StallBumpsTheStallCounterAndFiresTheRecorder) {
  SetMetricsEnabled(true);
  const std::string dir = TempDir("wd-recorder");
  FlightRecorderOptions recorder_options;
  recorder_options.dir = dir;
  recorder_options.keep = 4;
  recorder_options.state_text = [] { return std::string("state-ok"); };
  FlightRecorder recorder(recorder_options);

  std::atomic<std::uint64_t> pending{7};
  HeartbeatInfo info;
  info.name = "recorded-worker";
  info.kind = HeartbeatKind::kWorker;
  info.pending = [&pending] { return pending.load(); };
  HeartbeatHandle handle = HeartbeatRegistry::Default().Register(
      std::move(info));

  WatchdogOptions options;
  options.interval_ms = 0;
  options.stall_ticks = 1;
  options.flight_recorder = &recorder;
  Watchdog watchdog(options);
  for (int i = 0; i < 3; ++i) watchdog.ScanOnceForTesting();

  ASSERT_FALSE(watchdog.Snapshot().healthy);
  const auto bundles = recorder.ListBundles();
  ASSERT_EQ(bundles.size(), 1u);  // transition fires once, not per scan

  // Bundle completeness: the published directory holds a decodable
  // metrics snapshot, a parseable trace dump, the manifest, and the
  // host's state text. ListBundles returns names relative to the dir.
  const std::string bundle = dir + "/" + bundles[0];
  EXPECT_NE(bundle.find("stall-recorded-worker"), std::string::npos);
  const std::string metrics_bin = ReadFile(bundle + "/metrics.bin");
  ASSERT_FALSE(metrics_bin.empty());
  auto decoded = DecodeMetricsSnapshot(metrics_bin);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  bool saw_stall_counter = false;
  for (const auto& [name, value] : decoded->counters) {
    if (name ==
            "tcdp_watchdog_stalls_total{component=\"recorded-worker\"}" &&
        value >= 1) {
      saw_stall_counter = true;
    }
  }
  EXPECT_TRUE(saw_stall_counter);
  const std::string trace = ReadFile(bundle + "/trace.json");
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.front(), '{');  // Chrome trace object
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(ReadFile(bundle + "/MANIFEST.txt").find("stall-recorded-worker"),
            std::string::npos);
  EXPECT_NE(ReadFile(bundle + "/state.txt").find("state-ok"),
            std::string::npos);
  // No half-written temp dirs left behind after publication.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().rfind(".tmp-", 0),
              std::string::npos);
  }

  handle.Unregister();
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorder, RetentionKeepsTheNewestK) {
  const std::string dir = TempDir("retention");
  FlightRecorderOptions options;
  options.dir = dir;
  options.keep = 3;
  FlightRecorder recorder(options);
  for (int i = 0; i < 7; ++i) {
    auto path = recorder.Trigger("round-" + std::to_string(i));
    ASSERT_TRUE(path.ok()) << path.status();
  }
  const auto bundles = recorder.ListBundles();
  ASSERT_EQ(bundles.size(), 3u);
  // ListBundles sorts by sequence; the survivors are the newest three.
  EXPECT_NE(bundles[0].find("round-4"), std::string::npos);
  EXPECT_NE(bundles[2].find("round-6"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorder, ReasonIsSanitizedIntoThePath) {
  const std::string dir = TempDir("sanitize");
  FlightRecorderOptions options;
  options.dir = dir;
  FlightRecorder recorder(options);
  auto path = recorder.Trigger("stall: shard/0 went \taway");
  ASSERT_TRUE(path.ok()) << path.status();
  EXPECT_EQ(path->find('\t'), std::string::npos);
  EXPECT_EQ(path->find(' '), std::string::npos);
  EXPECT_EQ(path->find('/', dir.size() + 1), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorder, CrashPathWritesThePreSerializedState) {
  const std::string dir = TempDir("crash");
  FlightRecorderOptions options;
  options.dir = dir;
  options.state_text = [] { return std::string("crash-state-marker"); };
  FlightRecorder recorder(options);
  ASSERT_TRUE(recorder.InstallCrashHandler().ok());
  recorder.RefreshSignalState();
  // Exercise the handler body directly: raising a real SIGSEGV under
  // sanitizers would end the test run instead of exercising the code.
  FlightRecorder::WriteCrashFileFromSignal(SIGSEGV);
  const std::string crash_file =
      dir + "/crash-" + std::to_string(::getpid()) + ".txt";
  const std::string contents = ReadFile(crash_file);
  ASSERT_FALSE(contents.empty());
  EXPECT_NE(contents.find("signal"), std::string::npos);
  EXPECT_NE(contents.find("crash-state-marker"), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace obs
}  // namespace tcdp
