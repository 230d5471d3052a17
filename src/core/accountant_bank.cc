#include "core/accountant_bank.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <numeric>

#include "core/tpl_accountant.h"
#include "kernels/kernels.h"
#include "markov/stochastic_matrix.h"
#include "obs/metrics.h"

namespace {

/// Process-global bank instruments: step latency plus population
/// gauges. With several banks in one process (one per shard) the
/// gauges are maintained as deltas, so they track the fleet total.
struct BankObs {
  tcdp::obs::Histogram* step_seconds;
  tcdp::obs::Counter* stepped_columns;
  tcdp::obs::Gauge* cohorts;
  tcdp::obs::Gauge* users;
  static const BankObs& Get() {
    static const BankObs instruments = [] {
      tcdp::obs::Registry& registry = tcdp::obs::Registry::Default();
      BankObs o;
      o.step_seconds = registry.GetHistogram("tcdp_bank_step_seconds");
      o.stepped_columns =
          registry.GetCounter("tcdp_bank_stepped_columns_total");
      o.cohorts = registry.GetGauge("tcdp_bank_cohorts");
      o.users = registry.GetGauge("tcdp_bank_users");
      return o;
    }();
    return instruments;
  }
};

}  // namespace

namespace tcdp {
namespace {

bool SameBits(double a, double b) {
  std::uint64_t x;
  std::uint64_t y;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

/// Sparse-release crossover: a sparse release whose participants plus
/// active slots exceed 1/kSweepShare of all slots runs the kernel sweep
/// instead of stepping them one by one. Measured on a 5k-user bank of 8
/// n=16 profiles (4-vCPU x86 VM), per stepped slot inline vs per slot of
/// the whole bank swept: about 20 vs 8 ns with warm CPU caches (break
/// even near 1/2.5 of the slots), about 110 vs 17 ns with caches flushed
/// between releases, as on an idle shard worker (near 1/6). 1/4 sits
/// between the two.
constexpr std::size_t kSweepShare = 4;

/// A cohort's StepMemo holds 2^kStepMemoBits entries.
constexpr unsigned kStepMemoBits = 9;

/// A small exact-bits memo for the per-slice update loop: cohort
/// members overwhelmingly carry bit-identical BPL state (identical
/// sub-schedules), so one evaluation serves the whole run without a
/// lookup in the shared cache. Falls through to the evaluator
/// (itself deterministic) when full — a perf valve, never a semantic
/// one.
class LocalLossMemo {
 public:
  double Evaluate(const LossEvaluator& loss, double alpha) {
    std::uint64_t bits;
    std::memcpy(&bits, &alpha, sizeof(bits));
    for (std::size_t i = 0; i < size_; ++i) {
      if (keys_[i] == bits) return values_[i];
    }
    const double value = loss.Evaluate(alpha);
    if (size_ < kCapacity) {
      keys_[size_] = bits;
      values_[size_] = value;
      ++size_;
    }
    return value;
  }

  void Reset() { size_ = 0; }

 private:
  static constexpr std::size_t kCapacity = 32;
  std::size_t size_ = 0;
  std::uint64_t keys_[kCapacity];
  double values_[kCapacity];
};

/// Per-thread working set for StepSlots: staging buffers for the
/// evaluated backward losses and the mask-expanded budget adds, plus a
/// LocalLossMemo that now survives across the chunks one release fans
/// out to a thread (keyed on (bank, release, evaluator); evaluators are
/// pure, so a warm memo changes timing only, never values).
struct StepScratch {
  std::vector<double> loss;
  std::vector<double> add;

  LocalLossMemo& MemoFor(const void* bank, std::size_t release,
                         const void* evaluator) {
    if (!memo_valid_ || bank != memo_bank_ || release != memo_release_ ||
        evaluator != memo_evaluator_) {
      memo_.Reset();
      memo_bank_ = bank;
      memo_release_ = release;
      memo_evaluator_ = evaluator;
      memo_valid_ = true;
    }
    return memo_;
  }

 private:
  LocalLossMemo memo_;
  const void* memo_bank_ = nullptr;
  const void* memo_evaluator_ = nullptr;
  std::size_t memo_release_ = 0;
  bool memo_valid_ = false;
};

StepScratch& StepScratchForThread() {
  thread_local StepScratch scratch;
  return scratch;
}

/// The series pass's memo of gap trajectories, one per thread. Between
/// a user's participations eps = 0, so a gap is a stretch of the
/// trajectory y_1 = S(y_0), y_2 = S(y_1), ... of one recurrence from the
/// value after the participation, which depends on nothing but the
/// cohort, the direction and y_0. Start values repeat across users and
/// gaps (the recurrences settle on grid points, and budgets come from a
/// few values), so each trajectory is walked once per thread and read
/// back by every later gap that starts from it.
///
/// An entry is keyed by (cohort serial << 1 | direction, y_0 bits) and
/// holds y_1, y_2, ... up to the first value equal to its argument bit
/// for bit (settled: every later step returns it again) or
/// kTrajectoryMaxSteps values. Values are computed on demand, only as
/// far as some walk has asked, so the memo never evaluates a step the
/// step-by-step recurrence would not. Evaluators are pure, so a memoized
/// value is exactly the evaluator's; a full memo is emptied, which
/// costs time only.
class TrajectoryMemo {
 public:
  struct Span {
    const double* values;  ///< y_1 .. y_count
    std::size_t count;
    bool settled;  ///< y_count == y_(count - 1): the trajectory ends
  };

  /// The first min(n, length) values of the trajectory from \p x under
  /// \p key, at least one and at most kTrajectoryMaxSteps, computing
  /// missing ones with \p step. The span is valid until the next call.
  template <typename Step>
  Span Walk(std::uint64_t key, double x, std::size_t n, const Step& step) {
    if (table_ == nullptr) {
      // Fresh pages of an allocation this large come zeroed from the
      // kernel, so calloc gives an empty table (key 0) without writing
      // it, and a thread pays for the pages its entries touch.
      table_.reset(static_cast<Entry*>(std::calloc(kSlots, sizeof(Entry))));
      arena_.reset(
          static_cast<double*>(std::malloc(kArenaValues * sizeof(double))));
      if (table_ == nullptr || arena_ == nullptr) throw std::bad_alloc();
    }
    n = std::min(n, kTrajectoryMaxSteps);
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    Entry* entry = Find(key, bits);
    if (entry->key == key) {
      ++stats_.hits;
    } else {
      ++stats_.misses;
      if (stats_.entries == kMaxEntries) {
        Clear();
        entry = Find(key, bits);
      }
      *entry = Entry{bits, key, 0, 0, 0, false};
      ++stats_.entries;
    }
    if (entry->count < n && !entry->settled) {
      entry = Extend(entry, x, n, step);
    }
    return {arena_.get() + entry->offset, entry->count, entry->settled};
  }

  TrajectoryMemoStats stats() const {
    TrajectoryMemoStats stats = stats_;
    stats.values = used_;
    if (table_ != nullptr) stats.bytes = kBytes;
    return stats;
  }

 private:
  struct Entry {
    std::uint64_t start;    ///< y_0's bits
    std::uint64_t key;      ///< 0 marks an empty slot (serials start at 1)
    std::uint32_t offset;   ///< of y_1 in the arena
    std::uint8_t count;     ///< values computed
    std::uint8_t capacity;  ///< values reserved at offset
    bool settled;
  };
  /// Open-addressed slots, at most 3/4 full; the arena takes the rest
  /// of the byte bound.
  static constexpr std::size_t kSlotBits = 13;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr std::size_t kMaxEntries = kSlots / 4 * 3;
  static constexpr std::size_t kArenaValues =
      (kTrajectoryMemoBytes - kSlots * sizeof(Entry)) / sizeof(double);
  static constexpr std::size_t kBytes =
      kSlots * sizeof(Entry) + kArenaValues * sizeof(double);
  static_assert(kBytes <= kTrajectoryMemoBytes, "the stated bound holds");
  static_assert(kTrajectoryMaxSteps <= 255, "count and capacity are 8-bit");
  static_assert(kArenaValues >= kTrajectoryMaxSteps, "an entry must fit");

  /// The slot holding (key, bits), else the empty slot it would take.
  Entry* Find(std::uint64_t key, std::uint64_t bits) {
    const std::uint64_t hash =
        (bits ^ (key * 0x9e3779b97f4a7c15ull)) * 0xbf58476d1ce4e5b9ull;
    std::size_t slot = static_cast<std::size_t>(hash >> (64 - kSlotBits));
    while (table_[slot].key != 0 &&
           (table_[slot].key != key || table_[slot].start != bits)) {
      slot = (slot + 1) & (kSlots - 1);
    }
    return &table_[slot];
  }

  void Clear() {
    std::fill_n(table_.get(), kSlots, Entry{});
    used_ = 0;
    stats_.entries = 0;
    ++stats_.clears;
  }

  /// Computes \p entry's values up to \p n or until it settles, first
  /// growing its room to at least n (twice what it had, where that
  /// fits): in place when it ends the arena, else by moving it to the
  /// end. An arena too full for that is emptied with the table, and the
  /// entry starts over from \p x. Returns where the entry now is.
  template <typename Step>
  Entry* Extend(Entry* entry, double x, std::size_t n, const Step& step) {
    if (n > entry->capacity) {
      const std::size_t doubled = 2 * std::size_t{entry->capacity};
      const std::size_t capacity =
          std::min(kTrajectoryMaxSteps, std::max(n, doubled));
      std::size_t from =
          entry->offset + entry->capacity == used_ ? entry->offset : used_;
      if (from + capacity > kArenaValues) {
        const Entry fresh{entry->start, entry->key, 0, 0, 0, false};
        Clear();
        entry = Find(fresh.key, fresh.start);
        *entry = fresh;
        ++stats_.entries;
        from = 0;
      } else if (from != entry->offset) {
        std::copy_n(arena_.get() + entry->offset, entry->count,
                    arena_.get() + from);
      }
      entry->offset = static_cast<std::uint32_t>(from);
      entry->capacity = static_cast<std::uint8_t>(capacity);
      used_ = from + capacity;
    }
    double* values = arena_.get() + entry->offset;
    double y = entry->count > 0 ? values[entry->count - 1] : x;
    while (entry->count < n) {
      const double next = step(y);
      values[entry->count++] = next;
      if (SameBits(next, y)) {
        entry->settled = true;
        // A settled entry never grows: the room past it goes back.
        if (entry->offset + entry->capacity == used_) {
          entry->capacity = entry->count;
          used_ = entry->offset + entry->count;
        }
        break;
      }
      y = next;
    }
    return entry;
  }

  struct Free {
    void operator()(void* p) const { std::free(p); }
  };
  std::unique_ptr<Entry[], Free> table_;
  std::unique_ptr<double[], Free> arena_;
  std::size_t used_ = 0;  ///< arena values handed out
  TrajectoryMemoStats stats_;
};

TrajectoryMemo& TrajectoryMemoForThread() {
  thread_local TrajectoryMemo memo;
  return memo;
}

/// One recurrence of the series pass with eps = 0: S(x) = L(x) + 0.0,
/// where Equation 13 applies L^B only at x > 0 (as the columns do) and
/// Equation 15 applies L^F everywhere. A participation's value is
/// S(y) + eps for the y before it: L(y) + 0.0 differs from L(y) only
/// when L(y) is -0.0, and then both give eps.
struct Recurrence {
  TrajectoryMemo* memo;
  const LossEvaluator* loss;  ///< null = zero loss
  std::uint64_t key;          ///< cohort serial << 1 | direction
  bool positive_only;

  double Step(double x) const {
    return (positive_only && !(x > 0.0) ? 0.0 : loss->Evaluate(x)) + 0.0;
  }

  /// Hands S(x), ..., S^emitted(x) to emit(length, value), the settled
  /// rest of a trajectory as one run, and returns S^steps(x) (x when
  /// steps is 0), for steps of emitted or emitted + 1.
  template <typename Emit>
  double Walk(double x, std::size_t emitted, std::size_t steps,
              const Emit& emit) const {
    if (loss == nullptr || (positive_only && !(x > 0.0))) {
      if (emitted > 0) emit(emitted, 0.0);
      return steps > 0 ? 0.0 : x;
    }
    const auto step = [this](double y) { return Step(y); };
    std::size_t done = 0;
    while (done < steps) {
      const TrajectoryMemo::Span span = memo->Walk(key, x, steps - done, step);
      const std::size_t take = std::min(span.count, steps - done);
      for (std::size_t j = 0; j < take && done + j < emitted; ++j) {
        emit(1, span.values[j]);
      }
      done += take;
      x = span.values[take - 1];
      if (done < steps && span.settled) {
        if (emitted > done) emit(emitted - done, x);
        break;
      }
      // Unless the walk is done, the span hit kTrajectoryMaxSteps: the
      // trajectory goes on from its last value.
    }
    return x;
  }
};

/// Per-thread scratch of the series pass and its dense views, kept
/// across calls so a series at a horizon already seen allocates
/// nothing.
struct SeriesScratch {
  std::vector<std::uint32_t> marks;  ///< participations, then len
  RunSeries bpl;                     ///< when the caller wants no BPL
  /// The dense views' runs.
  RunSeries view_eps;
  RunSeries view_bpl;
  RunSeries view_fpl;
  RunSeries view_tpl;
};

SeriesScratch& SeriesScratchForThread() {
  thread_local SeriesScratch scratch;
  return scratch;
}

}  // namespace

AccountantBank::AccountantBank(AccountantBankOptions options)
    : options_(std::move(options)) {
  if (options_.share_loss_cache) {
    cache_ = std::make_unique<TemporalLossCache>(options_.cache);
  }
  cohort_offsets_.push_back(0);
}

std::size_t AccountantBank::FindOrCreateCohort(
    const TemporalCorrelations& correlations) {
  const std::uint64_t fp = FingerprintCorrelations(correlations);
  auto [it, inserted] = cohort_index_.try_emplace(fp);
  for (std::uint32_t c : it->second) {
    if (SameCorrelations(cohorts_[c].correlations, correlations)) return c;
  }
  // Serials are never reused, so a trajectory memoized for a bank that
  // is gone never serves a later one.
  static std::atomic<std::uint64_t> next_serial{1};
  Cohort cohort;
  cohort.serial = next_serial.fetch_add(1, std::memory_order_relaxed);
  cohort.correlations = correlations;
  if (correlations.has_backward()) {
    cohort.backward =
        cache_ != nullptr
            ? cache_->Intern(correlations.backward())
            : std::make_shared<TemporalLossFunction>(correlations.backward());
  }
  if (correlations.has_forward()) {
    cohort.forward =
        cache_ != nullptr
            ? cache_->Intern(correlations.forward())
            : std::make_shared<TemporalLossFunction>(correlations.forward());
  }
  cohorts_.push_back(std::move(cohort));
  const std::uint32_t index = static_cast<std::uint32_t>(cohorts_.size() - 1);
  it->second.push_back(index);
  offsets_dirty_ = true;
  return index;
}

void AccountantBank::EnsureOffsets() const {
  if (!offsets_dirty_) return;
  cohort_offsets_.resize(cohorts_.size() + 1);
  cohort_offsets_[0] = 0;
  for (std::size_t c = 0; c < cohorts_.size(); ++c) {
    cohort_offsets_[c + 1] = cohort_offsets_[c] + cohorts_[c].users.size();
  }
  offsets_dirty_ = false;
}

std::size_t AccountantBank::AddUser(TemporalCorrelations correlations) {
  const std::size_t cohorts_before = cohorts_.size();
  const std::size_t c = FindOrCreateCohort(correlations);
  if (obs::MetricsEnabled()) {
    BankObs::Get().users->Add(1);
    if (cohorts_.size() > cohorts_before) BankObs::Get().cohorts->Add(1);
  }
  Cohort& cohort = cohorts_[c];
  const std::size_t user = num_users();
  user_join_.push_back(static_cast<std::uint32_t>(horizon()));
  user_cohort_.push_back(static_cast<std::uint32_t>(c));
  user_slot_.push_back(static_cast<std::uint32_t>(cohort.users.size()));
  cohort.users.push_back(static_cast<std::uint32_t>(user));
  cohort.bpl_last.push_back(0.0);
  cohort.eps_sum.push_back(0.0);
  user_releases_.emplace_back();
  // bpl_last 0 is a fixed point (L^B is not evaluated at 0): not active.
  cohort.listed.push_back(0);
  // O(1): the flat-slot prefix sums are rebuilt lazily (EnsureOffsets),
  // so bulk enrollment is linear in users, not users x cohorts.
  offsets_dirty_ = true;
  return user;
}

std::size_t AccountantBank::StepSlots(std::size_t lo, std::size_t hi,
                                      double epsilon,
                                      const std::vector<std::uint64_t>& mask,
                                      bool track) {
  StepScratch& scratch = StepScratchForThread();
  std::size_t moved = 0;
  // Locate the cohort owning `lo` (offsets are sorted, cohorts few).
  std::size_t c = static_cast<std::size_t>(
      std::upper_bound(cohort_offsets_.begin(), cohort_offsets_.end(), lo) -
      cohort_offsets_.begin() - 1);
  while (lo < hi) {
    const std::size_t end = std::min(hi, cohort_offsets_[c + 1]);
    Cohort& cohort = cohorts_[c];
    const LossEvaluator* backward = cohort.backward.get();
    const std::size_t s0 = lo - cohort_offsets_[c];
    const std::size_t n = end - lo;
    double* bpl = cohort.bpl_last.data() + s0;
    double* eps_sum = cohort.eps_sum.data() + s0;

    // An empty mask means "everyone enrolled participated"; otherwise
    // stage the per-slot budget adds (epsilon or 0) once, then let the
    // fused kernels stream the column update.
    const double* add = nullptr;
    if (!mask.empty()) {
      if (scratch.add.size() < n) scratch.add.resize(n);
      kernels::ExpandMaskEpsilon(mask.data(), mask.size(),
                                 cohort.users.data() + s0, n, epsilon,
                                 scratch.add.data());
      add = scratch.add.data();
    }
    if (backward != nullptr) {
      if (scratch.loss.size() < n) scratch.loss.resize(n);
      LocalLossMemo& memo = scratch.MemoFor(this, horizon(), backward);
      for (std::size_t i = 0; i < n; ++i) {
        const double alpha = bpl[i];
        scratch.loss[i] = alpha > 0.0 ? memo.Evaluate(*backward, alpha) : 0.0;
      }
    }
    if (track) {
      // Compared before the kernels overwrite the old bits.
      std::uint8_t* listed = cohort.listed.data() + s0;
      for (std::size_t i = 0; i < n; ++i) {
        const double loss = backward != nullptr ? scratch.loss[i] : 0.0;
        listed[i] = add[i] != 0.0 || !SameBits(loss + add[i], bpl[i]);
        moved += listed[i];
      }
    }

    if (backward == nullptr) {
      // Zero backward loss: 0.0 + x == x bitwise for the non-negative
      // adds here, so the fill variants match the reference loss + add.
      if (add == nullptr) {
        kernels::FusedFillUniform(epsilon, bpl, eps_sum, n);
      } else {
        kernels::FusedFillAdd(add, bpl, eps_sum, n);
      }
    } else if (add == nullptr) {
      kernels::FusedLossAddUniform(scratch.loss.data(), epsilon, bpl, eps_sum,
                                   n);
    } else {
      kernels::FusedLossAdd(scratch.loss.data(), add, bpl, eps_sum, n);
    }
    lo = end;
    ++c;
  }
  return moved;
}

void AccountantBank::ForEachSlice(std::size_t n,
                                  const ThreadPool::RangeBody& body) const {
  if (pool_ != nullptr) {
    pool_->ParallelForRange(0, n, body);
  } else if (n > 0) {
    body(0, n);
  }
}

std::size_t AccountantBank::Sweep(double epsilon, bool track) {
  std::atomic<std::size_t> moved{0};
  ForEachSlice(cohort_offsets_.back(),
               [this, epsilon, track, &moved](std::size_t lo, std::size_t hi) {
                 moved += StepSlots(lo, hi, epsilon, mask_scratch_, track);
               });
  return moved.load();
}

double AccountantBank::StepMemo::Evaluate(const LossEvaluator& loss,
                                          double alpha) {
  // A settling skipper's argument is the previous step's loss. Through
  // a quantizing cache those are losses of grid points, short chains
  // that the cohort's users share across releases, so most inline steps
  // hit here instead of reaching the shared cache. Evaluators are
  // pure, so a hit is exactly the evaluator's value.
  if (entries_.empty()) entries_.resize(std::size_t{1} << kStepMemoBits);
  std::uint64_t bits;
  std::memcpy(&bits, &alpha, sizeof(bits));
  auto& entry =
      entries_[(bits * 0x9e3779b97f4a7c15ull) >> (64 - kStepMemoBits)];
  if (entry.first != bits) entry = {bits, loss.Evaluate(alpha)};
  return entry.second;
}

std::size_t AccountantBank::StepActive(Cohort* cohort, double epsilon) {
  std::vector<ActiveSlot>& active = cohort->active;
  if (active.empty()) return 0;
  const LossEvaluator* backward = cohort->backward.get();
  // The StepSlots arithmetic, one slot at a time: bpl = loss + add and
  // eps_sum += add, so every column matches the eager sweep bitwise.
  // A skipper's eps_sum + 0.0 keeps its bits (it is never -0.0), so
  // only its BPL column is touched.
  std::size_t kept = 0;
  for (const ActiveSlot entry : active) {
    const bool participated =
        (mask_scratch_[entry.user >> 6] >> (entry.user & 63u)) & 1u;
    double& bpl = cohort->bpl_last[entry.slot];
    const double old = bpl;
    const double loss = backward != nullptr && old > 0.0
                            ? cohort->step_memo.Evaluate(*backward, old)
                            : 0.0;
    if (participated) {
      bpl = loss + epsilon;
      cohort->eps_sum[entry.slot] += epsilon;
    } else {
      bpl = loss + 0.0;
      if (SameBits(bpl, old)) {
        cohort->listed[entry.slot] = 0;  // fixed point: later skips are no-ops
        continue;
      }
    }
    active[kept++] = entry;
  }
  const std::size_t stepped = active.size();
  active.resize(kept);
  return stepped;
}

std::size_t AccountantBank::StepSparse(
    double epsilon, const std::vector<std::size_t>& participants) {
  const std::size_t total = cohort_offsets_.back();
  std::size_t candidates = total;
  if (!all_active_) {
    candidates = participants.size();
    for (const Cohort& cohort : cohorts_) candidates += cohort.active.size();
  }
  if (candidates * kSweepShare > total) {
    // Dense enough to sweep; the tracked sweep rewrote every `listed`
    // flag, so the lists are rebuilt from them unless they would put
    // the next release past the crossover anyway.
    const std::size_t moved = Sweep(epsilon, /*track=*/true);
    all_active_ = moved * kSweepShare > total;
    if (!all_active_) {
      for (Cohort& cohort : cohorts_) {
        cohort.active.clear();
        for (std::size_t slot = 0; slot < cohort.listed.size(); ++slot) {
          if (cohort.listed[slot]) {
            cohort.active.push_back(
                {static_cast<std::uint32_t>(slot), cohort.users[slot]});
          }
        }
      }
    }
    return total;
  }
  for (const std::size_t user : participants) {
    Cohort& cohort = cohorts_[user_cohort_[user]];
    const std::uint32_t slot = user_slot_[user];
    if (!cohort.listed[slot]) {
      cohort.listed[slot] = 1;
      cohort.active.push_back({slot, static_cast<std::uint32_t>(user)});
    }
  }
  std::size_t stepped = 0;
  for (Cohort& cohort : cohorts_) stepped += StepActive(&cohort, epsilon);
  return stepped;
}

Status AccountantBank::Record(double epsilon,
                              const std::vector<std::size_t>* participants) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument(
        "AccountantBank: epsilon must be finite and > 0");
  }
  obs::ScopedLatencyTimer step_timer(BankObs::Get().step_seconds);
  // mask_scratch_ is reusable staging: empty = every enrolled user.
  if (participants != nullptr) {
    // 0 users still gets one zero word: distinct from "all".
    mask_scratch_.assign(std::max<std::size_t>((num_users() + 63) / 64, 1), 0);
    for (std::size_t user : *participants) {
      if (user >= num_users()) {
        return Status::InvalidArgument(
            "AccountantBank: participant index " + std::to_string(user) +
            " out of range");
      }
      mask_scratch_[user >> 6] |= std::uint64_t{1} << (user & 63u);
    }
  } else {
    mask_scratch_.clear();
  }
  EnsureOffsets();
  std::size_t stepped = cohort_offsets_.back();
  if (participants != nullptr) {
    stepped = StepSparse(epsilon, *participants);
  } else {
    Sweep(epsilon, /*track=*/false);
    all_active_ = true;
  }
  if (obs::MetricsEnabled()) BankObs::Get().stepped_columns->Add(stepped);
  const auto t = static_cast<std::uint32_t>(horizon());
  if (participants != nullptr) {
    for (std::size_t user : *participants) {
      std::vector<std::uint32_t>& releases = user_releases_[user];
      // A duplicate participant is already listed at t.
      if (releases.empty() || releases.back() != t) releases.push_back(t);
    }
  } else {
    all_releases_.push_back(t);
  }
  schedule_.push_back(epsilon);
  return Status::OK();
}

Status AccountantBank::RecordRelease(double epsilon) {
  return Record(epsilon, nullptr);
}

Status AccountantBank::RecordRelease(
    double epsilon, const std::vector<std::size_t>& participants) {
  return Record(epsilon, &participants);
}

double AccountantBank::UserEpsSum(std::size_t user) const {
  assert(user < num_users());
  const Cohort& cohort = cohorts_[user_cohort_[user]];
  return cohort.eps_sum[user_slot_[user]];
}

std::vector<double> AccountantBank::EpsilonsFor(std::size_t user) const {
  assert(user < num_users());
  const std::uint32_t join = user_join_[user];
  std::vector<double> out(horizon() - join, 0.0);
  const auto scatter = [&](auto first, auto last) {
    for (; first != last; ++first) out[*first - join] = schedule_[*first];
  };
  scatter(std::lower_bound(all_releases_.begin(), all_releases_.end(), join),
          all_releases_.end());
  scatter(user_releases_[user].begin(), user_releases_[user].end());
  return out;
}

double AccountantBank::SeriesRunsFor(std::size_t user, RunSeries* epsilons,
                                     RunSeries* bpl_out, RunSeries* fpl_out,
                                     RunSeries* tpl_out) const {
  assert(user < num_users());
  const Cohort& cohort = cohorts_[user_cohort_[user]];
  const std::uint32_t join = user_join_[user];
  const std::size_t len = horizon() - join;

  // The user's participations as indices into its own series (a merge
  // of its dense releases and its explicit ones; a release is never
  // both), then len: the end of the last gap.
  SeriesScratch& scratch = SeriesScratchForThread();
  std::vector<std::uint32_t>& marks = scratch.marks;
  const std::vector<std::uint32_t>& own = user_releases_[user];
  const auto all =
      std::lower_bound(all_releases_.begin(), all_releases_.end(), join);
  marks.resize(static_cast<std::size_t>(all_releases_.end() - all) +
               own.size());
  std::merge(all, all_releases_.end(), own.begin(), own.end(), marks.begin());
  for (std::uint32_t& t : marks) t -= join;
  marks.push_back(static_cast<std::uint32_t>(len));

  TrajectoryMemo& memo = TrajectoryMemoForThread();
  const std::uint64_t key = cohort.serial << 1;  // bit 0: the direction
  const Recurrence backward{&memo, cohort.backward.get(), key,
                            /*positive_only=*/true};
  const Recurrence forward{&memo, cohort.forward.get(), key | 1u,
                           /*positive_only=*/false};

  // Equation 13 forward, appending eps and BPL runs. Gap m is
  // [marks[m - 1] + 1, marks[m]): the skips (eps = 0) before
  // participation m, or before the end of the series, which walk the
  // trajectory from the BPL before them; the participation adds its
  // eps to the walk's next step.
  RunSeries& eps = *epsilons;
  RunSeries& bpl = bpl_out != nullptr ? *bpl_out : scratch.bpl;
  eps.clear();
  bpl.clear();
  const auto emit_bpl = [&bpl](std::size_t length, double value) {
    AppendRun(&bpl, length, value);
  };
  double prev = 0.0;  // BPL at the last index formed
  std::size_t start = 0;
  for (const std::uint32_t end : marks) {
    const std::size_t gap = end - start;
    AppendRun(&eps, gap, 0.0);
    if (end < len) {
      const double e = schedule_[join + end];
      AppendRun(&eps, 1, e);
      prev = backward.Walk(prev, gap, gap + 1, emit_bpl) + e;
      AppendRun(&bpl, 1, prev);
    } else {
      prev = backward.Walk(prev, gap, gap, emit_bpl);
    }
    start = end + std::size_t{1};
  }
  // The recomputed tail must land exactly on the running column.
  assert(len == 0 || prev == cohort.bpl_last[user_slot_[user]]);

  // Equation 15 backward, the same way from the top: a gap walks the
  // trajectory from the FPL above it, and a participation adds its eps
  // to the step after the gap above. TPL = BPL + FPL - eps and its max
  // are formed as it goes, BPL read through a cursor over its runs; over
  // an FPL run with eps = 0 each BPL run gives one TPL value. TPL and
  // FPL runs are built back to front, then reversed.
  RunSeries& tpl = *tpl_out;
  RunSeries* const fpl = fpl_out;
  tpl.clear();
  if (fpl != nullptr) fpl->clear();
  ReverseRunCursor b(bpl);
  double max_tpl = 0.0;
  const auto emit_tpl = [&](std::size_t length, double value) {
    AppendRun(&tpl, length, value);
    max_tpl = std::max(max_tpl, value);
  };
  std::size_t below = len;  // FPL and TPL are formed on [below, len)
  const auto emit_fpl = [&](std::size_t length, double f) {
    if (fpl != nullptr) AppendRun(fpl, length, f);
    const std::size_t lo = below - length;
    for (std::size_t hi = below; hi > lo;) {
      const double value = b.At(hi - 1) + f - 0.0;
      const std::size_t run_lo = std::max(b.run_begin(), lo);
      emit_tpl(hi - run_lo, value);
      hi = run_lo;
    }
    below = lo;
  };
  // S(FPL above) for the next participation down; at the top no loss
  // applies, and 0.0 + eps is eps.
  double carry = 0.0;
  for (std::size_t m = marks.size(); m-- > 0;) {
    const std::size_t end = marks[m];
    std::size_t gap = end - (m > 0 ? marks[m - 1] + std::size_t{1} : 0);
    double x = 0.0;  // FPL at the index above the gap
    if (end < len) {
      const double e = schedule_[join + end];
      x = carry + e;
      if (fpl != nullptr) AppendRun(fpl, 1, x);
      emit_tpl(1, b.At(end) + x - e);
      below = end;
    } else if (gap > 0) {
      // The series' last index is a skip: FPL 0, with no loss above it.
      emit_fpl(1, x);
      --gap;
    } else {
      continue;
    }
    carry = forward.Walk(x, gap, m > 0 ? gap + 1 : gap, emit_fpl);
  }
  std::reverse(tpl.begin(), tpl.end());
  if (fpl != nullptr) std::reverse(fpl->begin(), fpl->end());
  return max_tpl;
}

void AccountantBank::SeriesFor(std::size_t user, UserSeries* out) const {
  SeriesScratch& scratch = SeriesScratchForThread();
  out->max_tpl = SeriesRunsFor(user, &scratch.view_eps, &scratch.view_bpl,
                               &scratch.view_fpl, &scratch.view_tpl);
  ExpandRuns(scratch.view_eps, &out->epsilons);
  ExpandRuns(scratch.view_bpl, &out->bpl);
  ExpandRuns(scratch.view_fpl, &out->fpl);
  ExpandRuns(scratch.view_tpl, &out->tpl);
}

double AccountantBank::TplSeriesFor(std::size_t user,
                                    std::vector<double>* epsilons,
                                    std::vector<double>* tpl) const {
  SeriesScratch& scratch = SeriesScratchForThread();
  const double max_tpl = SeriesRunsFor(user, &scratch.view_eps, nullptr,
                                       nullptr, &scratch.view_tpl);
  ExpandRuns(scratch.view_eps, epsilons);
  ExpandRuns(scratch.view_tpl, tpl);
  return max_tpl;
}

AccountantBank::UserSeries AccountantBank::SeriesFor(std::size_t user) const {
  UserSeries s;
  SeriesFor(user, &s);
  return s;
}

std::vector<double> AccountantBank::BplSeriesFor(std::size_t user) const {
  return SeriesFor(user).bpl;
}

std::vector<double> AccountantBank::FplSeriesFor(std::size_t user) const {
  return SeriesFor(user).fpl;
}

std::vector<double> AccountantBank::TplSeriesFor(std::size_t user) const {
  std::vector<double> eps, tpl;
  TplSeriesFor(user, &eps, &tpl);
  return tpl;
}

double AccountantBank::MaxTplFor(std::size_t user) const {
  SeriesScratch& scratch = SeriesScratchForThread();
  return SeriesRunsFor(user, &scratch.view_eps, nullptr, nullptr,
                       &scratch.view_tpl);
}

StatusOr<double> AccountantBank::MaxTplAt(std::size_t t) const {
  if (num_users() == 0) {
    return Status::FailedPrecondition("MaxTplAt: no users registered");
  }
  if (t < 1 || t > horizon()) {
    return Status::OutOfRange("MaxTplAt: t outside [1, horizon]");
  }
  std::vector<double> per_user(num_users(), 0.0);
  auto body = [this, t, &per_user](std::size_t lo, std::size_t hi) {
    RunSeries eps, tpl;  // reused across the chunk's users
    for (std::size_t u = lo; u < hi; ++u) {
      if (user_join_[u] >= t) continue;  // joined after t: no series there
      SeriesRunsFor(u, &eps, nullptr, nullptr, &tpl);
      std::size_t index = t - 1 - user_join_[u];
      auto run = tpl.begin();
      while (index >= run->length) index -= (run++)->length;
      per_user[u] = run->value;
    }
  };
  ForEachSlice(num_users(), body);
  // Deterministic serial reduction in user order.
  double best = 0.0;
  for (double v : per_user) best = std::max(best, v);
  return best;
}

std::vector<double> AccountantBank::PersonalizedAlphas() const {
  std::vector<double> alphas(num_users(), 0.0);
  auto body = [this, &alphas](std::size_t lo, std::size_t hi) {
    RunSeries eps, tpl;  // reused across the chunk's users
    for (std::size_t u = lo; u < hi; ++u) {
      alphas[u] = SeriesRunsFor(u, &eps, nullptr, nullptr, &tpl);
    }
  };
  ForEachSlice(num_users(), body);
  return alphas;
}

double AccountantBank::OverallAlpha() const {
  double best = 0.0;
  for (double v : PersonalizedAlphas()) best = std::max(best, v);
  return best;
}

TrajectoryMemoStats ThreadTrajectoryMemoStats() {
  return TrajectoryMemoForThread().stats();
}

TemporalLossCache::Stats AccountantBank::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : TemporalLossCache::Stats{};
}

const TemporalCorrelations& AccountantBank::user_correlations(
    std::size_t user) const {
  assert(user < num_users());
  return cohorts_[user_cohort_[user]].correlations;
}

double AccountantBank::UserBplLast(std::size_t user) const {
  assert(user < num_users());
  return cohorts_[user_cohort_[user]].bpl_last[user_slot_[user]];
}

std::string AccountantBank::SerializeUser(std::size_t user) const {
  assert(user < num_users());
  AccountantImage image;
  image.correlations = user_correlations(user);
  image.cache_alpha_resolution = cache_alpha_resolution();
  image.epsilons = EpsilonsFor(user);
  return SerializeAccountantImage(image);
}

std::size_t AccountantBank::ParticipationIndexEntries() const {
  std::size_t entries = all_releases_.size();
  for (const std::vector<std::uint32_t>& releases : user_releases_) {
    entries += releases.size();
  }
  return entries;
}

AccountantBank::Image AccountantBank::ExportImage() const {
  Image image;
  image.schedule = schedule_;
  // Counting sort of the sparse participations by release: members
  // [first[t], first[t + 1]) select release t, ascending by user.
  const std::size_t releases = horizon();
  std::vector<std::size_t> first(releases + 1, 0);
  for (const std::vector<std::uint32_t>& own : user_releases_) {
    for (const std::uint32_t t : own) ++first[t + 1];
  }
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<std::uint32_t> members(first.back());
  std::vector<std::size_t> next(first.begin(), first.end() - 1);
  for (std::size_t u = 0; u < num_users(); ++u) {
    for (const std::uint32_t t : user_releases_[u]) {
      members[next[t]++] = static_cast<std::uint32_t>(u);
    }
  }
  // Each sparse row as Record staged it: one bit per user enrolled at
  // t (a prefix, since joins never decrease), at least one word.
  image.participation.reserve(releases);
  std::vector<std::uint64_t> words(
      std::max<std::size_t>((num_users() + 63) / 64, 1), 0);
  auto all = all_releases_.begin();
  std::size_t enrolled = 0;
  for (std::size_t t = 0; t < releases; ++t) {
    if (all != all_releases_.end() && *all == t) {
      image.participation.push_back(PackedMask::All());
      ++all;
      continue;
    }
    while (enrolled < num_users() && user_join_[enrolled] <= t) ++enrolled;
    const std::size_t width = std::max<std::size_t>((enrolled + 63) / 64, 1);
    for (std::size_t i = first[t]; i < first[t + 1]; ++i) {
      words[members[i] >> 6] |= std::uint64_t{1} << (members[i] & 63u);
    }
    image.participation.push_back(
        PackedMask::FromWordSpan(words.data(), width));
    std::fill_n(words.begin(), width, 0);
  }
  image.users.reserve(num_users());
  for (std::size_t u = 0; u < num_users(); ++u) {
    UserImage user;
    user.correlations = user_correlations(u);
    user.join = user_join_[u];
    user.bpl_last = UserBplLast(u);
    user.eps_sum = UserEpsSum(u);
    image.users.push_back(std::move(user));
  }
  return image;
}

StatusOr<AccountantBank> AccountantBank::Restore(
    Image image, AccountantBankOptions options) {
  if (image.participation.size() != image.schedule.size()) {
    return Status::InvalidArgument(
        "AccountantBank::Restore: " +
        std::to_string(image.participation.size()) +
        " participation rows for " + std::to_string(image.schedule.size()) +
        " releases");
  }
  for (double eps : image.schedule) {
    if (!(eps > 0.0) || !std::isfinite(eps)) {
      return Status::InvalidArgument(
          "AccountantBank::Restore: schedule entry not finite and > 0");
    }
  }
  const std::size_t max_words = (image.users.size() + 63) / 64;
  for (const PackedMask& row : image.participation) {
    if (!row.is_all() &&
        row.num_words() > std::max<std::size_t>(max_words, 1)) {
      return Status::InvalidArgument(
          "AccountantBank::Restore: participation row wider than the fleet");
    }
  }
  AccountantBank bank(std::move(options));
  for (std::size_t u = 0; u < image.users.size(); ++u) {
    const UserImage& user = image.users[u];
    if (user.join > image.schedule.size()) {
      return Status::InvalidArgument(
          "AccountantBank::Restore: user join " + std::to_string(user.join) +
          " past horizon " + std::to_string(image.schedule.size()));
    }
    if (u > 0 && user.join < image.users[u - 1].join) {
      return Status::InvalidArgument(
          "AccountantBank::Restore: user " + std::to_string(u) +
          " joins before user " + std::to_string(u - 1));
    }
    if (!std::isfinite(user.bpl_last) || user.bpl_last < 0.0 ||
        !std::isfinite(user.eps_sum) || user.eps_sum < 0.0) {
      return Status::InvalidArgument(
          "AccountantBank::Restore: per-user state not finite and >= 0");
    }
    bank.AddUser(user.correlations);
  }
  bank.schedule_ = std::move(image.schedule);
  // The accrued sum is a pure function of (mask, schedule) and must
  // match bitwise, so it is replayed in the live bank's order: one pass
  // over the rows in release order, adding each row's budget to the
  // users it selects (a skip adds 0.0, which never changes the bits). A
  // mismatch means the image's columns, masks, and schedule disagree
  // (silent corruption that a per-field check cannot see).
  const std::size_t num_users = image.users.size();
  // The same pass rebuilds the participation index under the same
  // guard, so a stray bit (a user not yet joined, or past the fleet)
  // never enters a series.
  std::vector<double> eps_sums(num_users, 0.0);
  auto accrue = [&](std::size_t u, std::size_t t) {
    if (u >= num_users || image.users[u].join > t) return false;
    eps_sums[u] += bank.schedule_[t];
    return true;
  };
  for (std::size_t t = 0; t < bank.schedule_.size(); ++t) {
    const PackedMask& row = image.participation[t];
    const auto release = static_cast<std::uint32_t>(t);
    if (row.is_all()) {
      bank.all_releases_.push_back(release);
      for (std::size_t u = 0; u < num_users; ++u) accrue(u, t);
      continue;
    }
    row.ForEachSetBit([&](std::size_t u) {
      if (accrue(u, t)) bank.user_releases_[u].push_back(release);
    });
  }
  for (std::size_t u = 0; u < num_users; ++u) {
    const UserImage& user = image.users[u];
    if (eps_sums[u] != user.eps_sum) {
      return Status::InvalidArgument(
          "AccountantBank::Restore: user " + std::to_string(u) +
          " eps_sum does not match its mask-selected schedule sum");
    }
    Cohort& cohort = bank.cohorts_[bank.user_cohort_[u]];
    bank.user_join_[u] = user.join;
    cohort.bpl_last[bank.user_slot_[u]] = user.bpl_last;
    cohort.eps_sum[bank.user_slot_[u]] = user.eps_sum;
  }
  // Injected columns need not sit at their fixed points.
  bank.all_active_ = true;
  return bank;
}

}  // namespace tcdp
