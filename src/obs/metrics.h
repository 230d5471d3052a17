#ifndef TCDP_OBS_METRICS_H_
#define TCDP_OBS_METRICS_H_

/// \file
/// Lock-light process-wide metrics: monotonic counters, gauges, and
/// log-bucketed latency histograms with a bounded relative error.
///
/// Design constraints (docs/ARCHITECTURE.md "Observability"):
///
/// - **Hot-path cost is one relaxed atomic op.** Instruments are
///   resolved to raw pointers once (registration takes a mutex; reads
///   never do). Histogram recording is striped across a small set of
///   per-thread shards so concurrent workers do not bounce one cache
///   line; a snapshot merges the stripes.
/// - **Zero-cost when disabled.** `MetricsEnabled()` is a single
///   relaxed atomic load; the `ScopedLatencyTimer` helper skips even
///   the clock read when metrics are off. Nothing here ever touches
///   the accounting arithmetic, so per-user TPL series are bitwise
///   identical with instrumentation on or off (gated by the `obs`
///   bench suite).
/// - **Bounded relative error.** A histogram with relative error `a`
///   buckets values geometrically with growth `gamma = (1+a)/(1-a)`
///   and reports each bucket at `rep = 2*lo*gamma/(1+gamma)`, the
///   point that equalizes the edge errors at exactly `a`. Any
///   quantile estimate over [min_value, max_value] is within `a` of
///   the true recorded value. Values below `min_value` clamp into the
///   first bucket (over-reported, never under); values at or above
///   `max_value` land in an explicit overflow bucket reported at
///   `max_value`; zero/negative values are counted separately.
/// - **Mergeable.** `HistogramSnapshot`s with identical bucket
///   configuration merge associatively and commutatively, so
///   per-thread or per-process snapshots aggregate exactly.
///
/// Snapshots serialize three ways: a compact binary codec (the
/// `kMetrics` wire response, see docs/PROTOCOL.md), a JSON object
/// (`tcdp serve --metrics-json`, `tcdp stats --json`), and Prometheus
/// text exposition. `scripts/check_metrics_schema.py` validates the
/// latter two from the outside.
///
/// The registry is process-global on purpose: services, shards, and
/// the net frontend all publish into one namespace, and tests that
/// create many services share instruments (counters keep
/// accumulating; gauges are last-writer-wins).

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace tcdp {
namespace obs {

/// Global instrumentation switch (default on). A relaxed load; safe
/// to flip at runtime (`tcdp serve --no-metrics 1`, bench A/B runs).
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

// ---------------------------------------------------------------- counter

/// \brief Monotonic counter. All operations are relaxed atomics.
class Counter {
 public:
  void Add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// ------------------------------------------------------------------ gauge

/// \brief Last-writer-wins signed gauge with a monotonic-max helper
/// (high watermarks).
class Gauge {
 public:
  void Set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

// -------------------------------------------------------------- histogram

struct HistogramOptions {
  /// Quantile estimates are within this relative error of the true
  /// recorded value (for values inside [min_value, max_value)).
  double relative_error = 0.05;
  /// Smallest distinguishable value; defaults sized for seconds-scale
  /// latencies down to 1ns.
  double min_value = 1e-9;
  /// Values >= max_value land in the overflow bucket.
  double max_value = 1e4;
};

/// \brief Mergeable point-in-time view of a histogram.
struct HistogramSnapshot {
  double relative_error = 0.0;
  double min_value = 0.0;
  double max_value = 0.0;
  std::uint64_t zero_count = 0;      ///< values <= 0
  std::uint64_t overflow_count = 0;  ///< values >= max_value
  std::vector<std::uint64_t> buckets;
  double sum = 0.0;           ///< sum of every recorded value
  double max_observed = 0.0;  ///< largest recorded value (exact)

  std::uint64_t count() const;
  /// Quantile estimate; \p q in [0,1]. 0 when empty. Values from the
  /// zero bucket report 0; overflow reports max_value.
  double Quantile(double q) const;
  /// Element-wise accumulate; false (and no-op) when the bucket
  /// configurations differ.
  bool Merge(const HistogramSnapshot& other);
};

/// \brief Striped log-bucketed histogram; see the file comment for
/// the error bound. Thread-safe for concurrent Observe/Snapshot.
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;
  ~Histogram();

  void Observe(double value);
  HistogramSnapshot Snapshot() const;

  std::size_t num_buckets() const { return num_buckets_; }
  const HistogramOptions& options() const { return options_; }

  /// Bucket index for \p value (clamped; callers outside tests rarely
  /// need this). Exposed for the bucket-math property tests.
  std::size_t BucketIndex(double value) const;
  /// The representative value reported for bucket \p index.
  double BucketValue(std::size_t index) const;
  /// Exclusive upper edge of bucket \p index (Prometheus `le`).
  double BucketUpperEdge(std::size_t index) const;

 private:
  struct Stripe;

  HistogramOptions options_;
  double inv_log_gamma_ = 0.0;
  double log_gamma_ = 0.0;
  std::size_t num_buckets_ = 0;
  std::size_t num_stripes_ = 0;
  Stripe* stripes_ = nullptr;
};

// --------------------------------------------------------------- registry

/// \brief Sorted-by-name snapshot of every registered instrument.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// \brief Process-wide named instrument table. Registration locks;
/// returned pointers are valid for the process lifetime and their
/// operations never lock.
class Registry {
 public:
  static Registry& Default();

  /// Find-or-create. Invalid characters in \p name are sanitized to
  /// '_' (see IsValidMetricName); a name already registered as a
  /// different kind returns a detached instrument that is never
  /// exported (callers stay crash-free, the collision is a bug).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          HistogramOptions options = {});

  MetricsSnapshot Snapshot() const;

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  struct Impl;
  Impl* impl_;
};

// ------------------------------------------------------------ conveniences

/// `base{key="value"}` — the full-name form the registry stores and
/// the Prometheus renderer parses back apart. Repeated labels:
/// `WithLabel(WithLabel(n, k1, v1), k2, v2)`.
std::string WithLabel(const std::string& base, const std::string& key,
                      const std::string& value);

/// `name` must match `[a-zA-Z_:][a-zA-Z0-9_:]*` optionally followed by
/// a well-formed `{label="value",...}` suffix.
bool IsValidMetricName(const std::string& name);

/// \brief Records elapsed seconds into a histogram on destruction;
/// skips the clock read entirely when metrics are disabled (or \p
/// histogram is null).
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* histogram);
  ~ScopedLatencyTimer();
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* histogram_;
  std::uint64_t start_ns_;
};

/// Monotonic nanoseconds (steady clock); shared with the trace
/// recorder so span and latency timestamps agree.
std::uint64_t MonotonicNanos();

// ------------------------------------------------------- serialization

/// Compact binary codec for the kMetrics wire response
/// ("tcdp-metrics-v1"; grammar in docs/PROTOCOL.md). Histogram bucket
/// arrays are run-trimmed: only the [first_nonzero, last_nonzero]
/// window is emitted.
std::string EncodeMetricsSnapshot(const MetricsSnapshot& snapshot);
StatusOr<MetricsSnapshot> DecodeMetricsSnapshot(const std::string& payload);

/// JSON object: {"tcdp_metrics_version":1, "counters":{...},
/// "gauges":{...}, "histograms":{name:{count,sum,p50,p90,p99,max}}}.
/// The schema scripts/check_metrics_schema.py validates.
std::string MetricsJson(const MetricsSnapshot& snapshot);

/// Prometheus text exposition (counters, gauges, and cumulative
/// histogram series with trailing +Inf buckets).
std::string MetricsPrometheusText(const MetricsSnapshot& snapshot);

}  // namespace obs
}  // namespace tcdp

#endif  // TCDP_OBS_METRICS_H_
