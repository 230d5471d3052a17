#include "obs/dumper.h"

#include <chrono>
#include <utility>

#include "common/atomic_file.h"
#include "obs/metrics.h"
#include "obs/process_metrics.h"

namespace tcdp {
namespace obs {

Status DumpMetricsFiles(const std::string& json_path,
                        const std::string& prom_path) {
  UpdateProcessMetrics();
  const MetricsSnapshot snapshot = Registry::Default().Snapshot();
  if (!json_path.empty()) {
    TCDP_RETURN_IF_ERROR(WriteFileAtomic(json_path, MetricsJson(snapshot)));
  }
  if (!prom_path.empty()) {
    TCDP_RETURN_IF_ERROR(
        WriteFileAtomic(prom_path, MetricsPrometheusText(snapshot)));
  }
  return Status::OK();
}

MetricsDumper::MetricsDumper(std::string json_path, std::string prom_path,
                             std::size_t interval_ms)
    : json_path_(std::move(json_path)),
      prom_path_(std::move(prom_path)),
      interval_ms_(interval_ms) {
  if (interval_ms_ > 0 && active()) {
    HeartbeatInfo info;
    info.name = "metrics-dumper";
    info.kind = HeartbeatKind::kPeriodic;
    info.expected_period_ns = static_cast<std::uint64_t>(interval_ms_) *
                              1000000ull;
    heartbeat_ = HeartbeatRegistry::Default().Register(std::move(info));
    worker_ = std::thread([this] { Loop(); });
  }
}

MetricsDumper::~MetricsDumper() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  heartbeat_.Unregister();
  // The exit-path guarantee: whatever happened on the interval thread,
  // the files on disk reflect the registry at shutdown.
  if (active()) (void)DumpNow();
}

Status MetricsDumper::DumpNow() {
  const Status dumped = DumpMetricsFiles(json_path_, prom_path_);
  std::lock_guard<std::mutex> lock(mu_);
  ++dumps_;
  return dumped;
}

std::uint64_t MetricsDumper::dumps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dumps_;
}

void MetricsDumper::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    (void)DumpNow();
    heartbeat_.Beat();
    lock.lock();
    cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                 [this] { return stop_; });
  }
}

}  // namespace obs
}  // namespace tcdp
