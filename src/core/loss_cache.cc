#include "core/loss_cache.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
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

  ~Impl() {
    // The gauge counts the entries of live caches only.
    const std::size_t occupied =
        counters_.occupied.load(std::memory_order_relaxed);
    if (occupied > 0) {
      CacheObs::Get().entries->Add(-static_cast<std::int64_t>(occupied));
    }
    delete[] table_.load(std::memory_order_relaxed);
  }

  /// One interned matrix: its loss function and its id in the memo
  /// (ids start at 1; 0 marks an empty slot).
  struct Entry {
    Entry(StochasticMatrix matrix, std::uint32_t id_in)
        : loss(std::move(matrix)), id(id_in) {}
    TemporalLossFunction loss;
    std::uint32_t id;
  };

  const Entry& InternEntry(const StochasticMatrix& matrix) {
    const std::uint64_t fp = FingerprintStochasticMatrix(matrix);
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto [it, inserted] = registry_.try_emplace(fp);
    for (const auto& existing : it->second) {
      if (ExactlyEquals(existing->loss.transition(), matrix)) return *existing;
    }
    it->second.push_back(std::make_unique<Entry>(matrix, ++num_entries_));
    if (obs::MetricsEnabled()) CacheObs::Get().interned->Increment();
    return *it->second.back();
  }

  double Evaluate(const Entry& entry, double alpha) {
    if (!(alpha > 0.0)) return 0.0;
    std::int64_t key;
    if (options_.alpha_resolution > 0.0) {
      const double scaled = alpha / options_.alpha_resolution;
      if (scaled >= 9.0e18) {  // llround would overflow int64
        // Leakage this deep is astronomically past any real budget;
        // evaluate directly rather than corrupt the key space.
        CountMiss();
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
    const std::size_t index = SetIndex(entry.id, key);
    Set* table = table_.load(std::memory_order_acquire);
    double value = 0.0;
    if (table != nullptr && table[index].Find(entry.id, key, &value)) {
      counters_.hits.fetch_add(1, std::memory_order_relaxed);
      if (obs::MetricsEnabled()) CacheObs::Get().hits->Increment();
      return value;
    }
    // Evaluate outside the set: a miss reads the matrix's aggregate
    // table (built by its first miss, the costly one), and a racing
    // duplicate computes the identical value anyway.
    CountMiss();
    value = entry.loss.Evaluate(alpha);
    if (table == nullptr) table = AllocateTable();
    if (table[index].Insert(entry.id, key, value)) {
      // Kept whether or not metrics are on, so ~Impl can take exactly
      // this cache's entries back out.
      counters_.occupied.fetch_add(1, std::memory_order_relaxed);
      CacheObs::Get().entries->Add(1);
    }
    return value;
  }

  Stats stats() const {
    Stats s;
    s.hits = counters_.hits.load(std::memory_order_relaxed);
    s.misses = counters_.misses.load(std::memory_order_relaxed);
    s.entries = counters_.occupied.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(registry_mu_);
    s.distinct_matrices = num_entries_;
    for (const auto& [fp, entries] : registry_) {
      for (const auto& entry : entries) {
        s.table_bytes += entry->loss.table_bytes();
      }
    }
    return s;
  }

 private:
  /// One cache line of the memo: kMemoWays (id, key, value) slots under
  /// a sequence word that is odd while a writer holds the set. A writer
  /// stores the slot fields with release and a reader loads them with
  /// acquire (plain moves on x86), so a reader that sees any field of
  /// a write also sees the odd word it began with when it re-reads the
  /// word: a reader never takes a lock and never returns a torn slot.
  struct alignas(64) Set {
    std::atomic<std::uint32_t> seq;
    std::atomic<std::uint32_t> id[kMemoWays];
    std::atomic<std::int64_t> key[kMemoWays];
    std::atomic<double> value[kMemoWays];

    /// True, with *value_out, when the set holds (id, key). A read that
    /// overlaps a writer is a miss, never a hit.
    bool Find(std::uint32_t want_id, std::int64_t want_key,
              double* value_out) const {
      const std::uint32_t before = seq.load(std::memory_order_acquire);
      if ((before & 1u) != 0) return false;
      for (std::size_t w = 0; w < kMemoWays; ++w) {
        if (id[w].load(std::memory_order_acquire) != want_id ||
            key[w].load(std::memory_order_acquire) != want_key) {
          continue;
        }
        const double found = value[w].load(std::memory_order_acquire);
        if (seq.load(std::memory_order_relaxed) != before) return false;
        *value_out = found;
        return true;
      }
      return false;
    }

    /// Stores (id, key, value) unless another writer holds the set.
    /// The victim is the way already holding (id, key) (a racing miss
    /// stored the same bits), else an empty way, else round-robin by
    /// the set's write count. Returns whether an empty way was filled.
    bool Insert(std::uint32_t new_id, std::int64_t new_key, double new_value) {
      std::uint32_t before = seq.load(std::memory_order_relaxed);
      if ((before & 1u) != 0 ||
          !seq.compare_exchange_strong(before, before + 1,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return false;
      }
      // Ways fill in order and never empty again, so no way after the
      // first empty one can hold (id, key).
      std::size_t victim = (before >> 1) % kMemoWays;
      for (std::size_t w = 0; w < kMemoWays; ++w) {
        const std::uint32_t way_id = id[w].load(std::memory_order_relaxed);
        if (way_id == 0 ||
            (way_id == new_id &&
             key[w].load(std::memory_order_relaxed) == new_key)) {
          victim = w;
          break;
        }
      }
      const bool filled = id[victim].load(std::memory_order_relaxed) == 0;
      id[victim].store(new_id, std::memory_order_release);
      key[victim].store(new_key, std::memory_order_release);
      value[victim].store(new_value, std::memory_order_release);
      seq.store(before + 2, std::memory_order_release);
      return filled;
    }
  };
  static_assert(sizeof(Set) == 64, "a memo set is one cache line");
  static_assert(std::atomic<double>::is_always_lock_free &&
                    std::atomic<std::int64_t>::is_always_lock_free &&
                    std::atomic<std::uint32_t>::is_always_lock_free,
                "memo slots must be plain loads and stores");

  static constexpr unsigned kSetBits = 14;
  static_assert(kMemoSets == std::size_t{1} << kSetBits, "sets by bits");

  static std::size_t SetIndex(std::uint32_t id, std::int64_t key) {
    std::uint64_t x = (static_cast<std::uint64_t>(key) +
                       id * 0x9e3779b97f4a7c15ull) *
                      0xbf58476d1ce4e5b9ull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x >> (64 - kSetBits));
  }

  /// The table, allocated (zeroed: every way empty) by the first miss
  /// so a cache that never evaluates costs no memo memory.
  Set* AllocateTable() {
    Set* fresh = new Set[kMemoSets]();
    Set* current = nullptr;
    if (table_.compare_exchange_strong(current, fresh,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return fresh;
    }
    delete[] fresh;  // another thread's first miss published first
    return current;
  }

  void CountMiss() {
    counters_.misses.fetch_add(1, std::memory_order_relaxed);
    if (obs::MetricsEnabled()) CacheObs::Get().misses->Increment();
  }

  Options options_;
  mutable std::mutex registry_mu_;
  // fingerprint -> entries (a bucket list guards against hash collision).
  std::unordered_map<std::uint64_t, std::vector<std::unique_ptr<Entry>>>
      registry_;
  std::uint32_t num_entries_ = 0;  ///< guarded by registry_mu_
  std::atomic<Set*> table_{nullptr};
  /// Bumped on every lookup, so they get a cache line of their own:
  /// the hit path's cost must not depend on what the allocator places
  /// next to this object.
  struct alignas(64) Counters {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::size_t> occupied{0};  ///< memo slots filled
  };
  Counters counters_;
};

namespace {

/// The evaluator handed to accountants: routes through the shared memo.
/// The entry lives as long as the cache internals it keeps alive.
class CachedLoss : public LossEvaluator {
 public:
  CachedLoss(std::shared_ptr<TemporalLossCache::Impl> impl,
             const TemporalLossCache::Impl::Entry& entry)
      : impl_(std::move(impl)), entry_(entry) {}

  double Evaluate(double alpha) const override {
    return impl_->Evaluate(entry_, alpha);
  }

 private:
  std::shared_ptr<TemporalLossCache::Impl> impl_;
  const TemporalLossCache::Impl::Entry& entry_;
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
