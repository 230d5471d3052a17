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
/// Algorithm-1 solve per (cohort, distinct-alpha bucket) followed by a
/// tight update loop over the cohort's column slices — a parallel grain
/// that stays profitable even when the loss cache is warm (the open
/// item the per-user TplAccountant layout could not fix).
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
/// `PersonalizedAlphas` and `OverallAlpha` take the max over users.
/// Callers wanting fan-out own a ThreadPool and hand it to `set_pool`.
///
/// Thread-compatible: concurrent calls on one bank must be externally
/// serialized; internal fan-out is the bank's own.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/packed_mask.h"
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
  /// Whether the user accrued budget at global release \p t (0-based).
  bool Participated(std::size_t user, std::size_t t) const;
  /// Lifetime accrued budget — the user-level TPL (Corollary 1).
  double UserEpsSum(std::size_t user) const;
  /// The user's effective spend sequence (0 entries are skips), index 0
  /// = the user's join release.
  std::vector<double> EpsilonsFor(std::size_t user) const;
  /// Lazily recomputed full series over the user's sub-schedule,
  /// bitwise equal to the reference TplAccountant's.
  std::vector<double> BplSeriesFor(std::size_t user) const;
  std::vector<double> FplSeriesFor(std::size_t user) const;
  std::vector<double> TplSeriesFor(std::size_t user) const;
  /// max_t TPL_t over the user's series (0 when empty).
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
  /// Stored participation row of global release \p t (0-based).
  const PackedMask& participation_row(std::size_t t) const {
    return participation_[t];
  }
  /// Heap bytes held by stored participation rows (the RLE metric).
  std::size_t ParticipationBytes() const;

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
  Image ExportImage() const;

  /// Rebuilds a bank from \p image in O(users + horizon) with **no**
  /// loss evaluations: cohorts are re-interned, columns injected
  /// directly. Hardened restore path: malformed images (non-finite or
  /// non-positive schedule entries, row/schedule length mismatch,
  /// out-of-range joins, mask rows wider than the fleet, or an eps_sum
  /// that does not equal the mask-selected schedule sum bitwise) return
  /// InvalidArgument. Series queried from the restored bank are bitwise
  /// identical to the originals.
  static StatusOr<AccountantBank> Restore(Image image,
                                          AccountantBankOptions options = {});
  /// @}

 private:
  /// One cohort: all users sharing a bit-identical (P^B, P^F) pair.
  struct Cohort {
    TemporalCorrelations correlations =
        TemporalCorrelations::None();  ///< exemplar matrices
    std::shared_ptr<const LossEvaluator> backward;  ///< null = zero loss
    std::shared_ptr<const LossEvaluator> forward;   ///< null = zero loss
    // SoA columns, one slot per member, in join order.
    std::vector<std::uint32_t> users;  ///< global user index per slot
    std::vector<double> bpl_last;      ///< Equation 13 running state
    std::vector<double> eps_sum;       ///< lifetime accrued budget
  };

  std::size_t FindOrCreateCohort(const TemporalCorrelations& correlations);
  /// Advances bpl_last/eps_sum for flat slots [lo, hi) (the
  /// cohort-slice update loop; deterministic for any chunking). Runs on
  /// the dispatched vector kernels (src/kernels/), staging losses and
  /// mask-selected budget adds in per-thread scratch buffers.
  void StepSlots(std::size_t lo, std::size_t hi, double epsilon,
                 const std::vector<std::uint64_t>& mask);
  Status Record(double epsilon, const std::vector<std::size_t>* participants);
  bool ParticipatedRaw(std::size_t user, std::size_t t) const;
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

  /// Reusable staging for Record's participation bitmask — rebuilt (not
  /// reallocated) per masked release, packed via PackedMask::FromWordSpan.
  std::vector<std::uint64_t> mask_scratch_;

  // Per-user global state (SoA).
  std::vector<std::uint32_t> user_join_;    ///< global release at join
  std::vector<std::uint32_t> user_cohort_;  ///< owning cohort
  std::vector<std::uint32_t> user_slot_;    ///< slot within the cohort

  std::vector<double> schedule_;  ///< global per-release budgets
  /// Participation row per release over global user indices; an All row
  /// means "every user enrolled at that time participated". Rows beyond
  /// a few words store word-level RLE (see common/packed_mask.h) so
  /// 10^5-release histories — and the snapshots/logs derived from them —
  /// stay small.
  std::vector<PackedMask> participation_;
};

}  // namespace tcdp

#endif  // TCDP_CORE_ACCOUNTANT_BANK_H_
