#ifndef TCDP_OBS_DUMPER_H_
#define TCDP_OBS_DUMPER_H_

/// \file
/// File export for the metrics registry: the background MetricsDumper
/// thread `tcdp serve` runs next to the net event loop, publishing
/// through WriteFileAtomic (common/atomic_file.h) so a scraper polling
/// the dump never reads a half-written file. Lived in tools/cli.cc
/// until the dumper grew real responsibilities (heartbeat, process
/// metrics, guaranteed final dump) and needed direct test coverage.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "obs/watchdog.h"

namespace tcdp {
namespace obs {

/// Dumps the registry to the configured paths: JSON
/// (scripts/check_metrics_schema.py's schema, shared with
/// `tcdp stats --json`) and/or Prometheus text exposition. Refreshes
/// the process self-metrics first so every dump carries current
/// uptime/RSS/fd gauges. Empty paths are skipped.
Status DumpMetricsFiles(const std::string& json_path,
                        const std::string& prom_path);

/// \brief Background thread republishing the metrics files every
/// interval while Serve blocks the main thread. Snapshot/serialize
/// never touch the service, only the obs registry (thread-safe by
/// construction). Publishes a kPeriodic heartbeat so the watchdog
/// notices a wedged dumper, and always lands one final dump from the
/// destructor — the exit-path files are never stale.
class MetricsDumper {
 public:
  MetricsDumper(std::string json_path, std::string prom_path,
                std::size_t interval_ms);
  ~MetricsDumper();
  MetricsDumper(const MetricsDumper&) = delete;
  MetricsDumper& operator=(const MetricsDumper&) = delete;

  /// Synchronous dump on the calling thread (also counted).
  Status DumpNow();

  /// Completed dumps (interval + explicit + final).
  std::uint64_t dumps() const;

 private:
  void Loop();
  bool active() const {
    return !json_path_.empty() || !prom_path_.empty();
  }

  std::string json_path_;
  std::string prom_path_;
  std::size_t interval_ms_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::uint64_t dumps_ = 0;
  HeartbeatHandle heartbeat_;
  std::thread worker_;
};

}  // namespace obs
}  // namespace tcdp

#endif  // TCDP_OBS_DUMPER_H_
