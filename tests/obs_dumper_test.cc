// MetricsDumper coverage (ISSUE 9 satellite): atomic rotation under
// concurrent registry load, the guaranteed final exit-path dump, and
// the process self-metrics flowing through all three export surfaces
// (binary snapshot codec, JSON, Prometheus text).

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/atomic_file.h"
#include "obs/dumper.h"
#include "obs/metrics.h"
#include "obs/process_metrics.h"
#include "obs/watchdog.h"

namespace tcdp {
namespace obs {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("tcdp-dumper-" + name + "-" + std::to_string(::getpid())))
      .string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

TEST(WriteFileAtomic, PublishesWholeFilesOnly) {
  const std::string path = TempPath("atomic.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  EXPECT_EQ(ReadFile(path), "first");
  ASSERT_TRUE(WriteFileAtomic(path, "second-longer-content").ok());
  EXPECT_EQ(ReadFile(path), "second-longer-content");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(MetricsDumper, RotationUnderLoadNeverExposesAPartialFile) {
  SetMetricsEnabled(true);
  const std::string json_path = TempPath("load.json");
  const std::string prom_path = TempPath("load.prom");
  Counter* counter =
      Registry::Default().GetCounter("tcdp_dumper_test_load_total");
  std::atomic<bool> stop{false};
  std::thread load([&] {
    while (!stop.load()) counter->Increment();
  });
  {
    MetricsDumper dumper(json_path, prom_path, /*interval_ms=*/1);
    // Every observed JSON file must be a complete document: the
    // tmp+rename publication means a reader never sees a torn write
    // even while the dumper rewrites it every millisecond.
    int observed = 0;
    for (int i = 0; i < 200; ++i) {
      const std::string json = ReadFile(json_path);
      if (json.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      ++observed;
      EXPECT_EQ(json.front(), '{') << json.substr(0, 40);
      const auto end = json.find_last_not_of(" \n\t");
      ASSERT_NE(end, std::string::npos);
      EXPECT_EQ(json[end], '}');
    }
    EXPECT_GT(observed, 0);
    // The JSON file is published before the same dump syncs and renames
    // its Prometheus file, so the first dump may still be finishing.
    for (int i = 0; i < 2000 && dumper.dumps() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(dumper.dumps(), 0u);
  }
  stop.store(true);
  load.join();
  std::filesystem::remove(json_path);
  std::filesystem::remove(prom_path);
}

TEST(MetricsDumper, RegistersAPeriodicHeartbeatWhileRunning) {
  const std::size_t before = HeartbeatRegistry::Default().size();
  {
    MetricsDumper dumper(TempPath("hb.json"), "", /*interval_ms=*/10);
    bool seen = false;
    for (const auto& sample : HeartbeatRegistry::Default().SampleAll()) {
      if (sample.name == "metrics-dumper") {
        EXPECT_EQ(sample.kind, HeartbeatKind::kPeriodic);
        EXPECT_EQ(sample.expected_period_ns, 10ull * 1000000ull);
        seen = true;
      }
    }
    EXPECT_TRUE(seen);
  }
  EXPECT_EQ(HeartbeatRegistry::Default().size(), before);
  std::filesystem::remove(TempPath("hb.json"));
}

TEST(MetricsDumper, FinalDumpAlwaysLandsOnTheExitPath) {
  SetMetricsEnabled(true);
  const std::string json_path = TempPath("final.json");
  const std::string prom_path = TempPath("final.prom");
  std::filesystem::remove(json_path);
  std::filesystem::remove(prom_path);
  Counter* counter =
      Registry::Default().GetCounter("tcdp_dumper_test_final_total");
  {
    // interval 0: no background thread at all — the destructor is the
    // only writer, and it must still leave both files behind.
    MetricsDumper dumper(json_path, prom_path, /*interval_ms=*/0);
    counter->Increment();
  }
  const std::string json = ReadFile(json_path);
  const std::string prom = ReadFile(prom_path);
  ASSERT_FALSE(json.empty());
  ASSERT_FALSE(prom.empty());
  EXPECT_NE(json.find("tcdp_dumper_test_final_total"), std::string::npos);
  EXPECT_NE(prom.find("tcdp_dumper_test_final_total"), std::string::npos);
  std::filesystem::remove(json_path);
  std::filesystem::remove(prom_path);
}

TEST(MetricsDumper, InactivePathsSpawnNothingAndDumpNothing) {
  const std::size_t before = HeartbeatRegistry::Default().size();
  { MetricsDumper dumper("", "", /*interval_ms=*/5); }
  EXPECT_EQ(HeartbeatRegistry::Default().size(), before);
}

TEST(ProcessMetrics, ExportedThroughAllThreeSurfaces) {
  SetMetricsEnabled(true);
  UpdateProcessMetrics();
  const MetricsSnapshot snapshot = Registry::Default().Snapshot();
  bool uptime = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "tcdp_process_uptime_seconds") uptime = true;
#if defined(__linux__)
    if (name == "tcdp_process_rss_bytes") {
      EXPECT_GT(value, 0);
    }
    if (name == "tcdp_process_open_fds") {
      EXPECT_GT(value, 0);
    }
#endif
  }
  EXPECT_TRUE(uptime);

  // Surface 2: the binary snapshot codec round-trips the gauges.
  auto decoded = DecodeMetricsSnapshot(EncodeMetricsSnapshot(snapshot));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->gauges, snapshot.gauges);

  // Surfaces 1 and 3: JSON and Prometheus text.
  EXPECT_NE(MetricsJson(snapshot).find("tcdp_process_uptime_seconds"),
            std::string::npos);
  EXPECT_NE(
      MetricsPrometheusText(snapshot).find("tcdp_process_uptime_seconds"),
      std::string::npos);
#if defined(__linux__)
  EXPECT_NE(MetricsJson(snapshot).find("tcdp_process_rss_bytes"),
            std::string::npos);
#endif
}

}  // namespace
}  // namespace obs
}  // namespace tcdp
