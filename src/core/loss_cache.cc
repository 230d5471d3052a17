#include "core/loss_cache.h"

#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace tcdp {
namespace {

/// Process-global cache instruments (every TemporalLossCache instance
/// feeds the same totals, mirroring the per-instance atomics that back
/// `stats()`).
struct CacheObs {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* interned;
  obs::Gauge* entries;
  static const CacheObs& Get() {
    static const CacheObs instruments = [] {
      obs::Registry& registry = obs::Registry::Default();
      CacheObs o;
      o.hits = registry.GetCounter("tcdp_loss_cache_hits_total");
      o.misses = registry.GetCounter("tcdp_loss_cache_misses_total");
      o.interned = registry.GetCounter("tcdp_loss_cache_interned_total");
      o.entries = registry.GetGauge("tcdp_loss_cache_entries");
      return o;
    }();
    return instruments;
  }
};

}  // namespace

class TemporalLossCache::Impl {
 public:
  explicit Impl(const Options& options) : options_(options) {}

  /// One interned matrix: its loss function plus a sharded value table.
  struct Entry {
    explicit Entry(StochasticMatrix matrix) : loss(std::move(matrix)) {}
    TemporalLossFunction loss;
    struct Shard {
      std::mutex mu;
      std::unordered_map<std::int64_t, double> values;
    };
    std::array<Shard, kNumShards> shards;
  };

  std::shared_ptr<Entry> InternEntry(const StochasticMatrix& matrix) {
    const std::uint64_t fp = FingerprintStochasticMatrix(matrix);
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto [it, inserted] = registry_.try_emplace(fp);
    for (const auto& existing : it->second) {
      if (ExactlyEquals(existing->loss.transition(), matrix)) return existing;
    }
    auto entry = std::make_shared<Entry>(matrix);
    it->second.push_back(entry);
    if (obs::MetricsEnabled()) CacheObs::Get().interned->Increment();
    return entry;
  }

  double Evaluate(Entry& entry, double alpha) {
    if (!(alpha > 0.0)) return 0.0;
    std::int64_t key;
    if (options_.alpha_resolution > 0.0) {
      const double scaled = alpha / options_.alpha_resolution;
      if (scaled >= 9.0e18) {  // llround would overflow int64
        // Leakage this deep is astronomically past any real budget;
        // evaluate directly rather than corrupt the key space.
        counters_.misses.fetch_add(1, std::memory_order_relaxed);
        if (obs::MetricsEnabled()) CacheObs::Get().misses->Increment();
        return entry.loss.Evaluate(alpha);
      }
      // Snap to the grid point at or above alpha: L is nondecreasing, so
      // evaluating at a larger argument keeps the memoized value an
      // upper bound on the true loss — an accountant must never round a
      // privacy leakage down.
      key = static_cast<std::int64_t>(std::llround(scaled));
      double snapped = static_cast<double>(key) * options_.alpha_resolution;
      if (snapped < alpha) {
        ++key;
        snapped = static_cast<double>(key) * options_.alpha_resolution;
      }
      alpha = snapped;
    } else {
      std::memcpy(&key, &alpha, sizeof(key));
    }
    Entry::Shard& shard =
        entry.shards[static_cast<std::uint64_t>(key) % kNumShards];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.values.find(key);
      if (it != shard.values.end()) {
        counters_.hits.fetch_add(1, std::memory_order_relaxed);
        if (obs::MetricsEnabled()) CacheObs::Get().hits->Increment();
        return it->second;
      }
    }
    // Compute outside the lock: a miss evaluates the matrix's aggregate
    // table (built by its first miss, the costly one), and a concurrent
    // duplicate computes the identical value anyway. Only the
    // thread whose insert wins counts the miss, so hits + misses always
    // equals lookups even when a cold bucket is raced.
    const double value = entry.loss.Evaluate(alpha);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto [it, inserted] = shard.values.emplace(key, value);
      if (inserted) {
        counters_.misses.fetch_add(1, std::memory_order_relaxed);
        if (obs::MetricsEnabled()) {
          CacheObs::Get().misses->Increment();
          CacheObs::Get().entries->Add(1);
        }
      } else {
        counters_.hits.fetch_add(1, std::memory_order_relaxed);
        if (obs::MetricsEnabled()) CacheObs::Get().hits->Increment();
      }
      return it->second;
    }
  }

  Stats stats() const {
    Stats s;
    s.hits = counters_.hits.load(std::memory_order_relaxed);
    s.misses = counters_.misses.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const auto& [fp, entries] : registry_) {
      s.distinct_matrices += entries.size();
      for (const auto& entry : entries) {
        s.table_bytes += entry->loss.table_bytes();
        for (auto& shard : entry->shards) {
          std::lock_guard<std::mutex> shard_lock(shard.mu);
          s.entries += shard.values.size();
        }
      }
    }
    return s;
  }

 private:
  Options options_;
  mutable std::mutex registry_mu_;
  // fingerprint -> entries (a bucket list guards against hash collision).
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<Entry>>>
      registry_;
  /// Bumped on every lookup, so they get a cache line of their own:
  /// the hit path's cost must not depend on what the allocator places
  /// next to this object.
  struct alignas(64) Counters {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
  };
  Counters counters_;
};

namespace {

/// The evaluator handed to accountants: routes through the shared table.
class CachedLoss : public LossEvaluator {
 public:
  CachedLoss(std::shared_ptr<TemporalLossCache::Impl> impl,
             std::shared_ptr<TemporalLossCache::Impl::Entry> entry)
      : impl_(std::move(impl)), entry_(std::move(entry)) {}

  double Evaluate(double alpha) const override {
    return impl_->Evaluate(*entry_, alpha);
  }

 private:
  std::shared_ptr<TemporalLossCache::Impl> impl_;
  std::shared_ptr<TemporalLossCache::Impl::Entry> entry_;
};

}  // namespace

TemporalLossCache::TemporalLossCache() : TemporalLossCache(Options()) {}

TemporalLossCache::TemporalLossCache(const Options& options)
    : impl_(std::make_shared<Impl>(options)) {}

std::shared_ptr<const LossEvaluator> TemporalLossCache::Intern(
    const StochasticMatrix& matrix) {
  return std::make_shared<CachedLoss>(impl_, impl_->InternEntry(matrix));
}

TemporalLossCache::Stats TemporalLossCache::stats() const {
  return impl_->stats();
}

}  // namespace tcdp
