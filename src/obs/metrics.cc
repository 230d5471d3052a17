#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "bench/json.h"
#include "common/binary_io.h"

namespace tcdp {
namespace obs {
namespace {

std::atomic<bool> g_metrics_enabled{true};

constexpr std::size_t kStripes = 4;
constexpr std::size_t kMaxBuckets = 1u << 20;

/// Adds \p delta to the double stored as raw bits in \p cell.
void AtomicDoubleAdd(std::atomic<std::uint64_t>* cell, double delta) {
  std::uint64_t observed = cell->load(std::memory_order_relaxed);
  for (;;) {
    double current;
    static_assert(sizeof(current) == sizeof(observed), "double is 64-bit");
    std::memcpy(&current, &observed, sizeof(current));
    const double next_value = current + delta;
    std::uint64_t next;
    std::memcpy(&next, &next_value, sizeof(next));
    if (cell->compare_exchange_weak(observed, next,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

void AtomicDoubleMax(std::atomic<std::uint64_t>* cell, double value) {
  std::uint64_t observed = cell->load(std::memory_order_relaxed);
  for (;;) {
    double current;
    std::memcpy(&current, &observed, sizeof(current));
    if (!(value > current)) return;
    std::uint64_t next;
    std::memcpy(&next, &value, sizeof(next));
    if (cell->compare_exchange_weak(observed, next,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

double BitsToDouble(std::uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::size_t ThreadStripe(std::size_t num_stripes) {
  static std::atomic<unsigned> next{0};
  thread_local unsigned id = next.fetch_add(1, std::memory_order_relaxed);
  return id % num_stripes;
}

bool IsBaseNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

bool IsLabelNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

/// Splits `base{labels}` into its parts; \p labels keeps the raw text
/// between the braces ("" when absent). Assumes a validated name.
void SplitName(const std::string& name, std::string* base,
               std::string* labels) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  *labels = name.substr(brace + 1, name.size() - brace - 2);
}

std::string SanitizeName(const std::string& name) {
  if (IsValidMetricName(name)) return name;
  std::string out = name.empty() ? std::string("_") : name;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!IsBaseNameChar(out[i], i == 0)) out[i] = '_';
  }
  return out;
}

void AppendDouble(std::string* out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out->append(buffer);
}

std::uint64_t ZigZagEncode(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

std::int64_t ZigZagDecode(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1);
}

}  // namespace

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t MonotonicNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// -------------------------------------------------------------- histogram

struct Histogram::Stripe {
  std::atomic<std::uint64_t> zero{0};
  std::atomic<std::uint64_t> overflow{0};
  std::atomic<std::uint64_t> sum_bits{0};
  std::atomic<std::uint64_t> max_bits{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
};

Histogram::Histogram(HistogramOptions options) : options_(options) {
  // Harden the configuration: a broken spec degrades to the default
  // rather than dividing by log(1) below.
  if (!(options_.relative_error > 0.0) || !(options_.relative_error < 1.0)) {
    options_.relative_error = 0.05;
  }
  if (!(options_.min_value > 0.0) || !std::isfinite(options_.min_value)) {
    options_.min_value = 1e-9;
  }
  if (!(options_.max_value > options_.min_value) ||
      !std::isfinite(options_.max_value)) {
    options_.max_value = options_.min_value * 1e12;
  }
  const double gamma =
      (1.0 + options_.relative_error) / (1.0 - options_.relative_error);
  log_gamma_ = std::log(gamma);
  inv_log_gamma_ = 1.0 / log_gamma_;
  const double span =
      std::log(options_.max_value / options_.min_value) * inv_log_gamma_;
  num_buckets_ = static_cast<std::size_t>(std::ceil(span));
  if (num_buckets_ < 1) num_buckets_ = 1;
  if (num_buckets_ > kMaxBuckets) num_buckets_ = kMaxBuckets;
  num_stripes_ = kStripes;
  stripes_ = new Stripe[num_stripes_];
  for (std::size_t s = 0; s < num_stripes_; ++s) {
    stripes_[s].buckets =
        std::make_unique<std::atomic<std::uint64_t>[]>(num_buckets_);
    for (std::size_t i = 0; i < num_buckets_; ++i) {
      stripes_[s].buckets[i].store(0, std::memory_order_relaxed);
    }
  }
}

Histogram::~Histogram() { delete[] stripes_; }

std::size_t Histogram::BucketIndex(double value) const {
  if (!(value > options_.min_value)) return 0;
  const double position = std::log(value / options_.min_value) * inv_log_gamma_;
  std::size_t index = static_cast<std::size_t>(position);
  if (index >= num_buckets_) index = num_buckets_ - 1;
  return index;
}

double Histogram::BucketUpperEdge(std::size_t index) const {
  const double edge =
      options_.min_value * std::exp(log_gamma_ * static_cast<double>(index + 1));
  return std::min(edge, options_.max_value);
}

double Histogram::BucketValue(std::size_t index) const {
  const double lo =
      options_.min_value * std::exp(log_gamma_ * static_cast<double>(index));
  const double gamma = std::exp(log_gamma_);
  // The point equalizing the relative error against both bucket edges:
  // rep/lo - 1 == 1 - rep/(lo*gamma) == (gamma-1)/(gamma+1) == a.
  const double rep = 2.0 * lo * gamma / (1.0 + gamma);
  return std::min(rep, options_.max_value);
}

void Histogram::Observe(double value) {
  Stripe& stripe = stripes_[ThreadStripe(num_stripes_)];
  if (!std::isfinite(value) || !(value > 0.0)) {
    stripe.zero.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  AtomicDoubleAdd(&stripe.sum_bits, value);
  AtomicDoubleMax(&stripe.max_bits, value);
  if (value >= options_.max_value) {
    stripe.overflow.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  stripe.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.relative_error = options_.relative_error;
  snapshot.min_value = options_.min_value;
  snapshot.max_value = options_.max_value;
  snapshot.buckets.assign(num_buckets_, 0);
  for (std::size_t s = 0; s < num_stripes_; ++s) {
    const Stripe& stripe = stripes_[s];
    snapshot.zero_count += stripe.zero.load(std::memory_order_relaxed);
    snapshot.overflow_count +=
        stripe.overflow.load(std::memory_order_relaxed);
    snapshot.sum +=
        BitsToDouble(stripe.sum_bits.load(std::memory_order_relaxed));
    snapshot.max_observed = std::max(
        snapshot.max_observed,
        BitsToDouble(stripe.max_bits.load(std::memory_order_relaxed)));
    for (std::size_t i = 0; i < num_buckets_; ++i) {
      snapshot.buckets[i] +=
          stripe.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return snapshot;
}

std::uint64_t HistogramSnapshot::count() const {
  std::uint64_t total = zero_count + overflow_count;
  for (std::uint64_t bucket : buckets) total += bucket;
  return total;
}

double HistogramSnapshot::Quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  if (rank <= zero_count) return 0.0;
  std::uint64_t cumulative = zero_count;
  const double gamma = (1.0 + relative_error) / (1.0 - relative_error);
  const double log_gamma = std::log(gamma);
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (rank <= cumulative) {
      const double lo = min_value * std::exp(log_gamma * static_cast<double>(i));
      return std::min(2.0 * lo * gamma / (1.0 + gamma), max_value);
    }
  }
  return max_value;
}

bool HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (relative_error != other.relative_error ||
      min_value != other.min_value || max_value != other.max_value ||
      buckets.size() != other.buckets.size()) {
    return false;
  }
  zero_count += other.zero_count;
  overflow_count += other.overflow_count;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  sum += other.sum;
  max_observed = std::max(max_observed, other.max_observed);
  return true;
}

// --------------------------------------------------------------- registry

struct Registry::Impl {
  mutable std::mutex mu;
  // std::map: snapshots iterate sorted, so every export is
  // deterministic without a sort pass.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  // Kind-collision fallbacks: live forever, never exported.
  std::vector<std::unique_ptr<Counter>> detached_counters;
  std::vector<std::unique_ptr<Gauge>> detached_gauges;
  std::vector<std::unique_ptr<Histogram>> detached_histograms;
};

Registry::Registry() : impl_(new Impl) {}
Registry::~Registry() { delete impl_; }

Registry& Registry::Default() {
  // Leaked on purpose: instruments are handed out as raw pointers and
  // may be touched by worker threads during static destruction.
  static Registry* registry = new Registry;
  return *registry;
}

Counter* Registry::GetCounter(const std::string& name) {
  const std::string key = SanitizeName(name);
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->counters.find(key);
  if (it != impl_->counters.end()) return it->second.get();
  if (impl_->gauges.count(key) != 0 || impl_->histograms.count(key) != 0) {
    impl_->detached_counters.push_back(std::make_unique<Counter>());
    return impl_->detached_counters.back().get();
  }
  return impl_->counters.emplace(key, std::make_unique<Counter>())
      .first->second.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  const std::string key = SanitizeName(name);
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->gauges.find(key);
  if (it != impl_->gauges.end()) return it->second.get();
  if (impl_->counters.count(key) != 0 || impl_->histograms.count(key) != 0) {
    impl_->detached_gauges.push_back(std::make_unique<Gauge>());
    return impl_->detached_gauges.back().get();
  }
  return impl_->gauges.emplace(key, std::make_unique<Gauge>())
      .first->second.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  HistogramOptions options) {
  const std::string key = SanitizeName(name);
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->histograms.find(key);
  if (it != impl_->histograms.end()) return it->second.get();
  if (impl_->counters.count(key) != 0 || impl_->gauges.count(key) != 0) {
    impl_->detached_histograms.push_back(
        std::make_unique<Histogram>(options));
    return impl_->detached_histograms.back().get();
  }
  return impl_->histograms.emplace(key, std::make_unique<Histogram>(options))
      .first->second.get();
}

MetricsSnapshot Registry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(impl_->mu);
  snapshot.counters.reserve(impl_->counters.size());
  for (const auto& [name, counter] : impl_->counters) {
    snapshot.counters.emplace_back(name, counter->value());
  }
  snapshot.gauges.reserve(impl_->gauges.size());
  for (const auto& [name, gauge] : impl_->gauges) {
    snapshot.gauges.emplace_back(name, gauge->value());
  }
  snapshot.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, histogram] : impl_->histograms) {
    snapshot.histograms.emplace_back(name, histogram->Snapshot());
  }
  return snapshot;
}

// ------------------------------------------------------------ conveniences

std::string WithLabel(const std::string& base, const std::string& key,
                      const std::string& value) {
  std::string escaped;
  escaped.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') escaped.push_back('\\');
    if (c == '\n') {
      escaped.append("\\n");
      continue;
    }
    escaped.push_back(c);
  }
  std::string out;
  if (!base.empty() && base.back() == '}') {
    out = base.substr(0, base.size() - 1);
    out += ",";
  } else {
    out = base;
    out += "{";
  }
  out += key;
  out += "=\"";
  out += escaped;
  out += "\"}";
  return out;
}

bool IsValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  std::size_t i = 0;
  if (!IsBaseNameChar(name[0], /*first=*/true)) return false;
  for (i = 1; i < name.size() && IsBaseNameChar(name[i], false); ++i) {
  }
  if (i == name.size()) return true;
  if (name[i] != '{' || name.back() != '}') return false;
  ++i;
  const std::size_t end = name.size() - 1;
  if (i == end) return true;  // empty label set: base{}
  while (i < end) {
    if (!IsLabelNameChar(name[i], /*first=*/true)) return false;
    ++i;
    while (i < end && IsLabelNameChar(name[i], false)) ++i;
    if (i + 1 >= end || name[i] != '=' || name[i + 1] != '"') return false;
    i += 2;
    while (i < end && name[i] != '"') {
      if (name[i] == '\\') ++i;  // escaped character
      if (name[i] == '\n') return false;
      ++i;
    }
    if (i >= end || name[i] != '"') return false;
    ++i;
    if (i == end) return true;
    if (name[i] != ',') return false;
    ++i;
  }
  return false;
}

ScopedLatencyTimer::ScopedLatencyTimer(Histogram* histogram)
    : histogram_(MetricsEnabled() ? histogram : nullptr),
      start_ns_(histogram_ != nullptr ? MonotonicNanos() : 0) {}

ScopedLatencyTimer::~ScopedLatencyTimer() {
  if (histogram_ == nullptr) return;
  histogram_->Observe(static_cast<double>(MonotonicNanos() - start_ns_) *
                      1e-9);
}

// ------------------------------------------------------- serialization

namespace {
constexpr std::uint8_t kSnapshotVersion = 1;
}  // namespace

std::string EncodeMetricsSnapshot(const MetricsSnapshot& snapshot) {
  std::string out;
  out.push_back(static_cast<char>(kSnapshotVersion));
  PutVarint64(&out, snapshot.counters.size());
  for (const auto& [name, value] : snapshot.counters) {
    PutLengthPrefixed(&out, name);
    PutVarint64(&out, value);
  }
  PutVarint64(&out, snapshot.gauges.size());
  for (const auto& [name, value] : snapshot.gauges) {
    PutLengthPrefixed(&out, name);
    PutVarint64(&out, ZigZagEncode(value));
  }
  PutVarint64(&out, snapshot.histograms.size());
  for (const auto& [name, hist] : snapshot.histograms) {
    PutLengthPrefixed(&out, name);
    PutDoubleBits(&out, hist.relative_error);
    PutDoubleBits(&out, hist.min_value);
    PutDoubleBits(&out, hist.max_value);
    PutVarint64(&out, hist.zero_count);
    PutVarint64(&out, hist.overflow_count);
    PutDoubleBits(&out, hist.sum);
    PutDoubleBits(&out, hist.max_observed);
    PutVarint64(&out, hist.buckets.size());
    // Run-trim: only the populated [first, last] window travels.
    std::size_t first = hist.buckets.size();
    std::size_t last = 0;
    for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
      if (hist.buckets[i] != 0) {
        if (first == hist.buckets.size()) first = i;
        last = i;
      }
    }
    if (first == hist.buckets.size()) {
      PutVarint64(&out, 0);
      PutVarint64(&out, 0);
    } else {
      PutVarint64(&out, first);
      PutVarint64(&out, last - first + 1);
      for (std::size_t i = first; i <= last; ++i) {
        PutVarint64(&out, hist.buckets[i]);
      }
    }
  }
  return out;
}

StatusOr<MetricsSnapshot> DecodeMetricsSnapshot(const std::string& payload) {
  BinaryCursor cursor(payload);
  std::uint8_t version = 0;
  TCDP_RETURN_IF_ERROR(cursor.ReadByte(&version));
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        "DecodeMetricsSnapshot: unsupported version " +
        std::to_string(version));
  }
  MetricsSnapshot snapshot;
  std::uint64_t count = 0;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&count));
  if (count > cursor.remaining() / 2) {
    return Status::InvalidArgument(
        "DecodeMetricsSnapshot: counter count exceeds payload");
  }
  snapshot.counters.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name;
    std::uint64_t value = 0;
    TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&name));
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&value));
    snapshot.counters.emplace_back(std::move(name), value);
  }
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&count));
  if (count > cursor.remaining() / 2) {
    return Status::InvalidArgument(
        "DecodeMetricsSnapshot: gauge count exceeds payload");
  }
  snapshot.gauges.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name;
    std::uint64_t value = 0;
    TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&name));
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&value));
    snapshot.gauges.emplace_back(std::move(name), ZigZagDecode(value));
  }
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name;
    HistogramSnapshot hist;
    TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&name));
    TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&hist.relative_error));
    TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&hist.min_value));
    TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&hist.max_value));
    if (!(hist.relative_error > 0.0) || !(hist.relative_error < 1.0) ||
        !(hist.min_value > 0.0) || !std::isfinite(hist.min_value) ||
        !(hist.max_value > hist.min_value) ||
        !std::isfinite(hist.max_value)) {
      return Status::InvalidArgument(
          "DecodeMetricsSnapshot: malformed histogram configuration for '" +
          name + "'");
    }
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&hist.zero_count));
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&hist.overflow_count));
    TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&hist.sum));
    TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&hist.max_observed));
    std::uint64_t total_buckets = 0;
    std::uint64_t first = 0;
    std::uint64_t window = 0;
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&total_buckets));
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&first));
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&window));
    if (total_buckets > kMaxBuckets || first > total_buckets ||
        window > total_buckets - first || window > cursor.remaining()) {
      return Status::InvalidArgument(
          "DecodeMetricsSnapshot: bucket window exceeds payload for '" +
          name + "'");
    }
    hist.buckets.assign(static_cast<std::size_t>(total_buckets), 0);
    for (std::uint64_t b = 0; b < window; ++b) {
      std::uint64_t bucket = 0;
      TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&bucket));
      hist.buckets[static_cast<std::size_t>(first + b)] = bucket;
    }
    snapshot.histograms.emplace_back(std::move(name), std::move(hist));
  }
  if (!cursor.empty()) {
    return Status::InvalidArgument(
        "DecodeMetricsSnapshot: trailing bytes in payload");
  }
  return snapshot;
}

std::string MetricsJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"tcdp_metrics_version\": 1,\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    bench::AppendJsonString(name, &out);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    bench::AppendJsonString(name, &out);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    bench::AppendJsonString(name, &out);
    out += ": {\"count\": " + std::to_string(hist.count());
    out += ", \"sum\": ";
    AppendDouble(&out, hist.sum);
    out += ", \"p50\": ";
    AppendDouble(&out, hist.Quantile(0.50));
    out += ", \"p90\": ";
    AppendDouble(&out, hist.Quantile(0.90));
    out += ", \"p99\": ";
    AppendDouble(&out, hist.Quantile(0.99));
    out += ", \"max\": ";
    AppendDouble(&out, hist.max_observed);
    out += "}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string MetricsPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string base;
  std::string labels;
  std::string last_typed;
  auto type_line = [&](const std::string& metric, const char* kind) {
    if (metric == last_typed) return;
    last_typed = metric;
    out += "# TYPE " + metric + " " + kind + "\n";
  };
  for (const auto& [name, value] : snapshot.counters) {
    SplitName(name, &base, &labels);
    type_line(base, "counter");
    out += base;
    if (!labels.empty()) out += "{" + labels + "}";
    out += " " + std::to_string(value) + "\n";
  }
  last_typed.clear();
  for (const auto& [name, value] : snapshot.gauges) {
    SplitName(name, &base, &labels);
    type_line(base, "gauge");
    out += base;
    if (!labels.empty()) out += "{" + labels + "}";
    out += " " + std::to_string(value) + "\n";
  }
  last_typed.clear();
  for (const auto& [name, hist] : snapshot.histograms) {
    SplitName(name, &base, &labels);
    type_line(base, "histogram");
    const double gamma =
        (1.0 + hist.relative_error) / (1.0 - hist.relative_error);
    const double log_gamma = std::log(gamma);
    // Zero/unrepresentable observations sit below every finite edge.
    std::uint64_t cumulative = hist.zero_count;
    auto bucket_line = [&](const char* le, std::uint64_t cum) {
      out += base + "_bucket{";
      if (!labels.empty()) out += labels + ",";
      out += "le=\"";
      out += le;
      out += "\"} " + std::to_string(cum) + "\n";
    };
    for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
      if (hist.buckets[i] == 0) continue;  // sparse: skip empty edges
      cumulative += hist.buckets[i];
      const double edge = std::min(
          hist.min_value * std::exp(log_gamma * static_cast<double>(i + 1)),
          hist.max_value);
      char buffer[48];
      std::snprintf(buffer, sizeof(buffer), "%.9g", edge);
      bucket_line(buffer, cumulative);
    }
    bucket_line("+Inf", hist.count());
    out += base + "_sum";
    if (!labels.empty()) out += "{" + labels + "}";
    out += " ";
    AppendDouble(&out, hist.sum);
    out += "\n" + base + "_count";
    if (!labels.empty()) out += "{" + labels + "}";
    out += " " + std::to_string(hist.count()) + "\n";
  }
  return out;
}

}  // namespace obs
}  // namespace tcdp
