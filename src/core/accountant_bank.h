#ifndef TCDP_CORE_ACCOUNTANT_BANK_H_
#define TCDP_CORE_ACCOUNTANT_BANK_H_

/// \file
/// Structure-of-arrays fleet accounting: the per-user recurrences
///
///   BPL_t = L^B(BPL_{t-1}) + eps_t          (Equation 13)
///   FPL_t = L^F(FPL_{t+1}) + eps_t          (Equation 15)
///
/// batched over contiguous per-user columns instead of one heap
/// accountant per user. Users are grouped into **cohorts** keyed by
/// their interned (P^B, P^F) transition-matrix pair; everyone in a
/// cohort shares one pair of loss evaluators, so each release costs one
/// Algorithm-1 solve per (cohort, distinct-alpha bucket).
///
/// Which columns a release steps:
///   * A dense release (`RecordRelease(epsilon)`) sweeps every column
///     with the fused column kernels, fanned out over the pool.
///   * A sparse release steps only its participants and each cohort's
///     **active slots** — the skippers whose eps-0 step x <- L^B(x) can
///     still change `bpl_last`. A skipper whose step returns the same
///     bits leaves the list: evaluators are pure, so every later skip
///     would return those bits again, and leaving it alone is bitwise
///     the eager result. Participants join the list; a dense release or
///     `Restore` marks every slot active in O(1). These inline steps
///     evaluate L^B through a per-cohort exact-bits memo kept across
///     releases.
///   * When participants plus active slots exceed a fixed share of the
///     slots (kSweepShare in the .cc), the sparse release runs the pooled
///     kernel sweep instead and rebuilds the lists from the columns whose
///     bits moved.
/// Columns therefore always hold the eagerly stepped values; nothing is
/// caught up on read.
///
/// Heterogeneous schedules: `RecordRelease(epsilon, participants)`
/// charges eps only to the listed users; everyone else records a skip
/// (eps 0) whose backward loss still propagates and whose FPL horizon
/// still advances. A user added after releases started joins at the
/// current horizon and accrues only the sub-schedule from then on.
///
/// Equivalence contract (property-tested): every per-user series the
/// bank produces is **bitwise identical** to a standalone TplAccountant
/// driven with the same sub-schedule through equivalently configured
/// evaluators (same cache quantization, or both direct), at any thread
/// count. TplAccountant remains the single-user reference
/// implementation.
///
/// Population view (Section III-D, Definition 5): `MaxTplAt`,
/// `PersonalizedAlphas` and `OverallAlpha` take the max over users,
/// each user's series computed in runs by the one-pass `SeriesRunsFor`
/// into one reused pair of run series per pool chunk; no view builds a
/// horizon-length array.
/// Callers wanting fan-out own a ThreadPool and hand it to `set_pool`.
///
/// Thread-compatible: concurrent calls on one bank must be externally
/// serialized; internal fan-out is the bank's own.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/packed_mask.h"
#include "common/run_series.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/loss_cache.h"
#include "core/privacy_loss.h"
#include "core/temporal_correlations.h"

namespace tcdp {

struct AccountantBankOptions {
  /// When true, cohorts evaluate through a shared memoizing
  /// TemporalLossCache; when false each cohort owns a direct
  /// TemporalLossFunction (the uncached ablation baseline).
  bool share_loss_cache = true;
  TemporalLossCache::Options cache;
};

/// Bounds of each thread's trajectory memo, the series pass's record of
/// the gap trajectories it has walked (see SeriesRunsFor). A trajectory
/// keeps at most kTrajectoryMaxSteps values; the memo's entry table and
/// value arena together take kTrajectoryMemoBytes, allocated at the
/// thread's first probe, and it is emptied whenever either is full.
inline constexpr std::size_t kTrajectoryMaxSteps = 64;
inline constexpr std::size_t kTrajectoryMemoBytes = std::size_t{1} << 20;

/// Occupancy and traffic of the calling thread's trajectory memo.
struct TrajectoryMemoStats {
  std::size_t entries = 0;  ///< trajectories held
  std::size_t values = 0;   ///< arena values reserved, moved-from room too
  std::size_t bytes = 0;    ///< allocated, 0 or kTrajectoryMemoBytes
  std::uint64_t hits = 0;   ///< probes that found their trajectory
  std::uint64_t misses = 0;
  std::uint64_t clears = 0;  ///< times a full memo was emptied
};
TrajectoryMemoStats ThreadTrajectoryMemoStats();

/// \brief Cohort-batched, SoA multi-user TPL accounting.
class AccountantBank {
 public:
  explicit AccountantBank(AccountantBankOptions options = {});

  /// Enrolls a user and returns its index. The user joins at the
  /// current horizon: earlier releases are not replayed, and the user's
  /// series covers only global releases [join_release, horizon).
  std::size_t AddUser(TemporalCorrelations correlations);

  /// Optional fan-out pool (not owned); null runs every loop inline.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  /// Records one release of budget \p epsilon > 0 in which every
  /// enrolled user participates.
  Status RecordRelease(double epsilon);

  /// Heterogeneous-schedule release: only \p participants (global user
  /// indices) accrue \p epsilon; every other enrolled user records a
  /// skip. Rejects out-of-range indices.
  Status RecordRelease(double epsilon,
                       const std::vector<std::size_t>& participants);

  std::size_t num_users() const { return user_join_.size(); }
  std::size_t num_cohorts() const { return cohorts_.size(); }
  std::size_t horizon() const { return schedule_.size(); }
  const std::vector<double>& schedule() const { return schedule_; }

  /// \name Per-user accessors. \p user must be < num_users().
  /// @{
  /// Global release index (0-based) at which the user joined.
  std::size_t join_release(std::size_t user) const {
    return user_join_[user];
  }
  /// Length of the user's own series: horizon() - join_release(user).
  std::size_t user_horizon(std::size_t user) const {
    return horizon() - user_join_[user];
  }
  /// Lifetime accrued budget — the user-level TPL (Corollary 1).
  double UserEpsSum(std::size_t user) const;
  /// The user's effective spend sequence (0 entries are skips), index 0
  /// = the user's join release.
  std::vector<double> EpsilonsFor(std::size_t user) const;

  /// Everything a budget check reads about one user, index 0 = the
  /// user's join release.
  struct UserSeries {
    std::vector<double> epsilons;
    std::vector<double> bpl;  ///< Equation 13
    std::vector<double> fpl;  ///< Equation 15
    std::vector<double> tpl;  ///< BPL + FPL - eps
    double max_tpl = 0.0;     ///< max_t TPL_t (0 when empty)
  };
  /// The one series pass: the user's spend sequence, Equation 13 BPL,
  /// Equation 15 FPL and TPL = BPL + FPL - eps over its sub-schedule,
  /// as maximal runs of bitwise-equal values (common/run_series.h),
  /// refilled in place (capacity reused). \p bpl and \p fpl may be
  /// null. Returns max_t TPL_t (0 when empty). Every expanded value is
  /// bitwise the reference TplAccountant's.
  ///
  /// The pass walks the user's participations from the participation
  /// index. Between two participations eps = 0, so each gap is a stretch
  /// of one recurrence's trajectory y_1 = S(y_0), y_2 = S(y_1), ...
  /// from the value y_0 after the participation (Equation 13 forward,
  /// Equation 15 backward), and the next participation adds its eps to
  /// the step after the gap. Trajectories are read from the calling
  /// thread's trajectory memo (kTrajectoryMemoBytes above): keyed by the
  /// cohort's serial, the direction and y_0's bits, each holds its values
  /// up to the first step that returns its argument's bits (it has
  /// settled: the rest of any gap is one run of that value) or
  /// kTrajectoryMaxSteps values, after which the walk continues from the
  /// last one. Evaluators are pure, so a memoized value is exactly what
  /// the evaluator would return. The backward sweep reads BPL from its
  /// runs and forms TPL and its max as it goes; where FPL and eps are
  /// settled, each BPL run gives one TPL run. Cost: one memo probe per
  /// gap and O(runs) appends; the evaluator runs only for trajectory
  /// steps no earlier series on this thread has walked.
  double SeriesRunsFor(std::size_t user, RunSeries* epsilons, RunSeries* bpl,
                       RunSeries* fpl, RunSeries* tpl) const;
  /// Dense views: expansions of SeriesRunsFor's runs, refilled in
  /// place: \p out keeps its capacity, so a series at a horizon
  /// already seen allocates nothing.
  void SeriesFor(std::size_t user, UserSeries* out) const;
  /// Only what a budget check returns: the user's spend sequence and
  /// TPL series into caller-owned vectors (capacity reused). Returns
  /// max_t TPL_t.
  double TplSeriesFor(std::size_t user, std::vector<double>* epsilons,
                      std::vector<double>* tpl) const;
  /// By-value dense views.
  UserSeries SeriesFor(std::size_t user) const;
  std::vector<double> BplSeriesFor(std::size_t user) const;
  std::vector<double> FplSeriesFor(std::size_t user) const;
  std::vector<double> TplSeriesFor(std::size_t user) const;
  double MaxTplFor(std::size_t user) const;
  /// @}

  /// Definition 5's outer max at global time \p t (1-based): max over
  /// users whose series covers t. OutOfRange for t outside
  /// [1, horizon]; FailedPrecondition with no users.
  StatusOr<double> MaxTplAt(std::size_t t) const;

  /// Per-user event-level alpha, fanned out over the pool.
  std::vector<double> PersonalizedAlphas() const;

  /// Max over users and t; 0 with no users or releases.
  double OverallAlpha() const;

  /// Zeroed when share_loss_cache is false.
  TemporalLossCache::Stats cache_stats() const;

  /// \name Durable-state hooks (the snapshot layer in src/server/ is
  /// built on these).
  /// @{
  /// The grid the bank's evaluators quantize to; negative when running
  /// direct (uncached) evaluators.
  double cache_alpha_resolution() const {
    return cache_ != nullptr ? options_.cache.alpha_resolution : -1.0;
  }
  /// The user's cohort exemplar correlations.
  const TemporalCorrelations& user_correlations(std::size_t user) const;
  /// Running Equation-13 state (the value the next release's backward
  /// loss is evaluated at).
  double UserBplLast(std::size_t user) const;
  /// Exports one user as a standalone "tcdp-accountant-v2" blob;
  /// TplAccountant::Deserialize on it reproduces the user's series
  /// bitwise (given the bank's quantization).
  std::string SerializeUser(std::size_t user) const;
  /// Participation-index entries, 4 B each: one per dense release
  /// (shared by every user) plus one per explicit participation.
  std::size_t ParticipationIndexEntries() const;

  /// Everything needed to rebuild a bank without replaying releases.
  struct UserImage {
    TemporalCorrelations correlations = TemporalCorrelations::None();
    std::uint32_t join = 0;   ///< global release index at join
    double bpl_last = 0.0;    ///< Equation 13 running state
    double eps_sum = 0.0;     ///< lifetime accrued budget
  };
  struct Image {
    std::vector<double> schedule;
    std::vector<PackedMask> participation;  ///< aligned with schedule
    std::vector<UserImage> users;           ///< in user-index order
  };
  /// Rebuilds the participation rows from the index in one counting
  /// pass: All for a dense release, else one bit per user enrolled at
  /// the release (at least one word), as Record staged its mask.
  Image ExportImage() const;

  /// Rebuilds a bank from \p image in one pass over its rows (linear in
  /// users, stored mask runs and participations) with **no** loss
  /// evaluations: cohorts are re-interned, columns injected directly,
  /// and the rows are folded into the participation index, then
  /// dropped. Hardened restore path: malformed images (non-finite or
  /// non-positive schedule entries, row/schedule length mismatch,
  /// out-of-range or decreasing joins, mask rows wider than the fleet,
  /// or an eps_sum that does not equal the mask-selected schedule sum
  /// bitwise) return InvalidArgument. Series queried from the restored
  /// bank are bitwise identical to the originals.
  static StatusOr<AccountantBank> Restore(Image image,
                                          AccountantBankOptions options = {});
  /// @}

 private:
  /// An active-list entry. The global user index rides along so a
  /// sparse step reads the release mask without a users[slot] load.
  struct ActiveSlot {
    std::uint32_t slot;
    std::uint32_t user;
  };
  /// A cohort's L^B memo for its inline steps, exact-bits and kept
  /// across releases (direct-mapped; allocated on first use).
  class StepMemo {
   public:
    double Evaluate(const LossEvaluator& loss, double alpha);

   private:
    /// (alpha bits, loss); bits 0 marks an empty entry (alpha > 0).
    std::vector<std::pair<std::uint64_t, double>> entries_;
  };
  /// One cohort: all users sharing a bit-identical (P^B, P^F) pair.
  struct Cohort {
    /// Process-unique and never reused: keys the cohort's trajectories
    /// in the series pass's per-thread memo.
    std::uint64_t serial = 0;
    TemporalCorrelations correlations =
        TemporalCorrelations::None();  ///< exemplar matrices
    std::shared_ptr<const LossEvaluator> backward;  ///< null = zero loss
    std::shared_ptr<const LossEvaluator> forward;   ///< null = zero loss
    // SoA columns, one slot per member, in join order.
    std::vector<std::uint32_t> users;  ///< global user index per slot
    std::vector<double> bpl_last;      ///< Equation 13 running state
    std::vector<double> eps_sum;       ///< lifetime accrued budget
    /// Slots a sparse release steps besides its participants (ignored
    /// while the bank's all_active_ is set); listed[slot] marks
    /// membership, so each slot is queued at most once.
    std::vector<ActiveSlot> active;
    std::vector<std::uint8_t> listed;
    StepMemo step_memo;  ///< backward losses for StepActive
  };

  std::size_t FindOrCreateCohort(const TemporalCorrelations& correlations);
  /// Advances bpl_last/eps_sum for flat slots [lo, hi) (the
  /// cohort-slice update loop; deterministic for any chunking). Runs on
  /// the fused column kernels (src/kernels/), staging losses and
  /// mask-selected budget adds in per-thread scratch buffers. With
  /// \p track set (masked releases only) it also writes each slot's
  /// `listed` flag — participated, or its bits moved — and returns how
  /// many are set.
  std::size_t StepSlots(std::size_t lo, std::size_t hi, double epsilon,
                        const std::vector<std::uint64_t>& mask, bool track);
  /// body(lo, hi) over [0, n): the pool's chunks when there is one,
  /// else one inline call (none when n == 0).
  void ForEachSlice(std::size_t n, const ThreadPool::RangeBody& body) const;
  /// Runs StepSlots over every slot, on the pool when there is one.
  std::size_t Sweep(double epsilon, bool track);
  /// Steps the cohort's active slots inline against mask_scratch_ and
  /// drops the skippers whose bits did not move; returns slots stepped.
  std::size_t StepActive(Cohort* cohort, double epsilon);
  /// Sparse release: participants plus active slots inline, or a
  /// tracked Sweep past the crossover. Returns columns stepped.
  std::size_t StepSparse(double epsilon,
                         const std::vector<std::size_t>& participants);
  Status Record(double epsilon, const std::vector<std::size_t>* participants);
  /// Rebuilds cohort_offsets_ from the cohort sizes when AddUser has
  /// invalidated it (prefix sum, O(cohorts) — enrollment itself is O(1)
  /// per user instead of O(cohorts)).
  void EnsureOffsets() const;

  AccountantBankOptions options_;
  std::unique_ptr<TemporalLossCache> cache_;  // null when not sharing
  ThreadPool* pool_ = nullptr;                // not owned

  std::vector<Cohort> cohorts_;
  /// fingerprint of the (P^B, P^F) pair -> cohort indices (bucket list
  /// guards against hash collision; membership is exact-bits).
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>
      cohort_index_;
  /// Flat slot space: cohort c owns [cohort_offsets_[c],
  /// cohort_offsets_[c+1]); rebuilt lazily (EnsureOffsets) after
  /// enrollment marks it dirty, so bulk AddUser stays linear.
  mutable std::vector<std::size_t> cohort_offsets_;
  mutable bool offsets_dirty_ = false;

  /// The step kernels' participation bitmask for the release in
  /// progress, rebuilt (not reallocated) per masked release.
  std::vector<std::uint64_t> mask_scratch_;
  /// Every slot may still move (after a dense release or Restore): the
  /// cohorts' active lists are stale and the next sparse release sweeps.
  bool all_active_ = false;

  // Per-user global state (SoA).
  std::vector<std::uint32_t> user_join_;    ///< release at join, ascending
  std::vector<std::uint32_t> user_cohort_;  ///< owning cohort
  std::vector<std::uint32_t> user_slot_;    ///< slot within the cohort

  std::vector<double> schedule_;  ///< global per-release budgets
  /// Participation index, the bank's only record of who took part in
  /// which release. Dense releases are listed once for everyone (a
  /// user's are those at or after its join); each user lists the sparse
  /// releases that select it. Both are ascending release indices.
  std::vector<std::uint32_t> all_releases_;
  std::vector<std::vector<std::uint32_t>> user_releases_;
};

}  // namespace tcdp

#endif  // TCDP_CORE_ACCOUNTANT_BANK_H_
