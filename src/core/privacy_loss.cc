#include "core/privacy_loss.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>

#include "common/math_util.h"
#include "kernels/kernels.h"

namespace tcdp {

namespace {

/// The one exponential LogLinearInExpAlpha needs for a given alpha:
/// expm1(alpha) below the alpha = 30 switch, exp(-alpha) at or above.
/// Hoisting it lets the aggregate table evaluate many c per alpha with
/// exactly the operations of the per-call form.
struct ExpAlpha {
  explicit ExpAlpha(double a)
      : alpha(a), e(a < 30.0 ? std::expm1(a) : std::exp(-a)) {}
  double alpha;
  double e;
};

/// LogLinearInExpAlpha for c > 0 and alpha > 0.
inline double LogLinearAt(double c, const ExpAlpha& x) {
  if (x.alpha < 30.0) {
    return std::log1p(c * x.e);
  }
  // c(e^a - 1) + 1 = c e^a (1 + (1-c) e^-a / c):
  //   log = a + log(c) + log1p((1-c) e^-a / c).
  return x.alpha + std::log(c) + std::log1p((1.0 - c) * x.e / c);
}

}  // namespace

double LogLinearInExpAlpha(double c, double alpha) {
  assert(c >= 0.0 && c <= 1.0 + 1e-12 && alpha >= 0.0);
  if (c <= 0.0 || alpha == 0.0) return 0.0;
  return LogLinearAt(c, ExpAlpha(alpha));
}

namespace {

/// log-ratio of the objective for aggregates (q_sum, d_sum) at alpha.
double PairLogRatio(double q_sum, double d_sum, double alpha) {
  return LogLinearInExpAlpha(q_sum, alpha) - LogLinearInExpAlpha(d_sum, alpha);
}

/// Reusable per-thread working set for the pair scans. One candidate
/// index buffer plus one parallel payload buffer (log-ratios for the
/// refinement filter, unused by the sorted scan) replace the per-call
/// `subset`/`kept`/`order` vectors: after the first few pairs of a
/// matrix sweep these never reallocate.
struct PairScanScratch {
  std::vector<std::uint32_t> idx;
  std::vector<double> logr;

  void Reserve(std::size_t n) {
    if (idx.size() < n) idx.resize(n);
    if (logr.size() < n) logr.resize(n);
  }
};

PairScanScratch& Scratch() {
  thread_local PairScanScratch scratch;
  return scratch;
}

/// Algorithm 1 refinement on raw rows. Fills loss/q_sum/d_sum/
/// update_rounds of *result; materializes result->subset only when
/// want_subset is set (the matrix sweep skips it).
void PairLossIterativeCore(const double* q, const double* d, std::size_t n,
                           double alpha, bool want_subset,
                           PairLossResult* result) {
  PairScanScratch& scratch = Scratch();
  scratch.Reserve(n);
  std::uint32_t* idx = scratch.idx.data();
  double* logr = scratch.logr.data();

  // Corollary 2 seed: candidates are exactly the coordinates with
  // q_j > d_j.
  std::size_t m = kernels::SelectGreater(q, d, n, idx);

  // The per-candidate log ratio log(q_j) - log(d_j) is loop-invariant
  // across refinement rounds; compute it once. d_j = 0 candidates have
  // infinite ratio and survive every filter (q_j > d_j = 0 in the
  // seed, so log(q_j) is finite).
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint32_t j = idx[i];
    logr[i] = d[j] == 0.0 ? std::numeric_limits<double>::infinity()
                          : std::log(q[j]) - std::log(d[j]);
  }

  // Theorem 4 refinement (Algorithm 1 Lines 6–11): drop every candidate
  // whose individual ratio fails Inequality (21) against the aggregate
  // ratio; repeat until a full pass removes nothing. All comparisons in
  // log space.
  while (m > 0) {
    ++result->update_rounds;
    double q_sum = 0.0, d_sum = 0.0;
    kernels::GatherPairSums(q, d, idx, m, &q_sum, &d_sum);
    const double log_ratio = PairLogRatio(q_sum, d_sum, alpha);
    const std::size_t kept = kernels::FilterGt(logr, idx, m, log_ratio);
    if (kept == m) {
      result->q_sum = q_sum;
      result->d_sum = d_sum;
      result->loss = log_ratio;
      if (want_subset) result->subset.assign(idx, idx + m);
      return;
    }
    m = kept;
  }
  // Empty subset: identical rows (or alpha-independent tie) -> loss 0.
  result->q_sum = 0.0;
  result->d_sum = 0.0;
  result->loss = 0.0;
}

/// The alpha-independent half of the threshold-set scan: sorts the
/// Corollary-2 candidates of the row pair (q, d) into order[0, m) by
/// ratio q_j/d_j descending (d_j = 0, infinite ratio, first) and calls
/// emit(len, q_hat, d_hat) for every prefix length 1..m. Both PairLossSortedCore and the aggregate table read prefix sums
/// only from here, so they see the same bits.
template <typename Emit>
void EmitSortedPrefixes(const double* q, const double* d, std::size_t n,
                        std::uint32_t* order, Emit&& emit) {
  const std::size_t m = kernels::SelectGreater(q, d, n, order);
  std::sort(order, order + m, [&](std::uint32_t a, std::uint32_t b) {
    const bool a_inf = d[a] == 0.0;
    const bool b_inf = d[b] == 0.0;
    if (a_inf != b_inf) return a_inf;
    if (a_inf) return q[a] > q[b];  // both infinite: any stable order
    return q[a] * d[b] > q[b] * d[a];
  });
  double q_acc = 0.0, d_acc = 0.0;
  for (std::size_t len = 1; len <= m; ++len) {
    q_acc += q[order[len - 1]];
    d_acc += d[order[len - 1]];
    emit(len, q_acc, d_acc);
  }
}

/// Threshold-set prefix scan on raw rows (see ComputePairLossSorted).
void PairLossSortedCore(const double* q, const double* d, std::size_t n,
                        double alpha, bool want_subset,
                        PairLossResult* result) {
  PairScanScratch& scratch = Scratch();
  scratch.Reserve(n);
  std::uint32_t* order = scratch.idx.data();

  double best_q = 0.0, best_d = 0.0;
  std::size_t best_len = 0;
  EmitSortedPrefixes(q, d, n, order,
                     [&](std::size_t len, double q_acc, double d_acc) {
                       const double value =
                           LogLinearInExpAlpha(q_acc, alpha) -
                           LogLinearInExpAlpha(d_acc, alpha);
                       if (value > result->loss) {
                         result->loss = value;
                         best_q = q_acc;
                         best_d = d_acc;
                         best_len = len;
                       }
                     });
  result->q_sum = best_q;
  result->d_sum = best_d;
  result->update_rounds = 1;  // single scan
  if (want_subset) {
    result->subset.assign(order, order + best_len);
    std::sort(result->subset.begin(), result->subset.end());
  }
}

Status ValidatePairInputs(const char* fn, const std::vector<double>& q,
                          const std::vector<double>& d, double alpha) {
  if (q.size() != d.size()) {
    return Status::InvalidArgument(std::string(fn) + ": |q| != |d|");
  }
  if (q.empty()) {
    return Status::InvalidArgument(std::string(fn) + ": empty rows");
  }
  if (!(alpha >= 0.0) || !std::isfinite(alpha)) {
    return Status::InvalidArgument(
        std::string(fn) + ": alpha must be finite and >= 0, got " +
        std::to_string(alpha));
  }
  return Status::OK();
}

}  // namespace

StatusOr<PairLossResult> ComputePairLoss(const std::vector<double>& q,
                                         const std::vector<double>& d,
                                         double alpha) {
  Status status = ValidatePairInputs("ComputePairLoss", q, d, alpha);
  if (!status.ok()) return status;
  PairLossResult result;
  PairLossIterativeCore(q.data(), d.data(), q.size(), alpha,
                        /*want_subset=*/true, &result);
  return result;
}

StatusOr<PairLossResult> ComputePairLossSorted(const std::vector<double>& q,
                                               const std::vector<double>& d,
                                               double alpha) {
  Status status = ValidatePairInputs("ComputePairLossSorted", q, d, alpha);
  if (!status.ok()) return status;
  PairLossResult result;
  PairLossSortedCore(q.data(), d.data(), q.size(), alpha,
                     /*want_subset=*/true, &result);
  return result;
}

/// Algorithm 1's prefix aggregates for one matrix, deduped and split
/// into the Pareto frontier and the dominated rest. The frontier is
/// sorted ascending in d_hat, hence (being a frontier) strictly
/// ascending in q_hat too. A dominated point (q, d) is filed under its
/// staircase corner (lo, hi): lo is the first frontier index with
/// front_q[lo] >= q, hi the last with front_d[hi] <= d. Some frontier
/// point dominates it, so lo <= hi, and (front_q[lo], front_d[hi])
/// bounds its loss from above.
struct TemporalLossFunction::Table {
  struct Corner {
    std::uint32_t lo = 0;   ///< index of the corner's q_hat in front_q
    std::uint32_t hi = 0;   ///< index of the corner's d_hat in front_d
    std::uint32_t end = 0;  ///< its points: dom_q/dom_d [previous end, end)
  };
  std::vector<double> front_q, front_d;
  std::vector<Corner> corners;
  std::vector<double> dom_q, dom_d;

  /// Collects every ordered pair's prefix aggregates of the n x n
  /// row-major matrix \p base and files them.
  void Build(const double* base, std::size_t n);
  /// max(0, g(q) - g(d)) over every aggregate, g(c) =
  /// LogLinearInExpAlpha(c, alpha), for alpha > 0.
  double Evaluate(double alpha) const;

  std::size_t bytes() const {
    return sizeof(Table) +
           (front_q.capacity() + front_d.capacity() + dom_q.capacity() +
            dom_d.capacity()) * sizeof(double) +
           corners.capacity() * sizeof(Corner);
  }
};

struct TemporalLossFunction::LazyTable {
  std::once_flag once;
  std::unique_ptr<const Table> table;  // null: this matrix keeps the scan
  std::atomic<std::size_t> bytes{0};
};

namespace {

struct Aggregate {
  double q;
  double d;
};

bool HasSubnormalEntry(const StochasticMatrix& matrix) {
  for (double v : matrix.matrix().data()) {
    if (v > 0.0 && v < std::numeric_limits<double>::min()) {
      return true;
    }
  }
  return false;
}

}  // namespace

void TemporalLossFunction::Table::Build(const double* base, std::size_t n) {
  PairScanScratch& scratch = Scratch();
  scratch.Reserve(n);
  std::vector<Aggregate> points;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      EmitSortedPrefixes(base + a * n, base + b * n, n, scratch.idx.data(),
                         [&](std::size_t, double q_acc, double d_acc) {
                           points.push_back({q_acc, d_acc});
                         });
    }
  }
  // q_hat descending, ties by d_hat ascending: a point is on the
  // frontier iff its d_hat is below that of every point before it.
  std::sort(points.begin(), points.end(),
            [](const Aggregate& x, const Aggregate& y) {
              return x.q != y.q ? x.q > y.q : x.d < y.d;
            });
  points.erase(std::unique(points.begin(), points.end(),
                           [](const Aggregate& x, const Aggregate& y) {
                             return x.q == y.q && x.d == y.d;
                           }),
               points.end());
  std::vector<Aggregate> dominated;
  double min_d = std::numeric_limits<double>::infinity();
  for (const Aggregate& p : points) {
    if (p.d < min_d) {
      front_q.push_back(p.q);
      front_d.push_back(p.d);
      min_d = p.d;
    } else {
      dominated.push_back(p);
    }
  }
  std::reverse(front_q.begin(), front_q.end());
  std::reverse(front_d.begin(), front_d.end());

  struct Filed {
    std::uint32_t lo, hi;
    Aggregate p;
  };
  std::vector<Filed> filed;
  filed.reserve(dominated.size());
  for (const Aggregate& p : dominated) {
    const auto lo =
        std::lower_bound(front_q.begin(), front_q.end(), p.q) -
        front_q.begin();
    const auto hi =
        std::upper_bound(front_d.begin(), front_d.end(), p.d) -
        front_d.begin() - 1;
    assert(lo <= hi);
    filed.push_back({static_cast<std::uint32_t>(lo),
                     static_cast<std::uint32_t>(hi), p});
  }
  std::sort(filed.begin(), filed.end(), [](const Filed& x, const Filed& y) {
    return x.lo != y.lo ? x.lo < y.lo : x.hi < y.hi;
  });
  dom_q.reserve(filed.size());
  dom_d.reserve(filed.size());
  for (const Filed& f : filed) {
    if (corners.empty() || corners.back().lo != f.lo ||
        corners.back().hi != f.hi) {
      corners.push_back({f.lo, f.hi, 0});
    }
    dom_q.push_back(f.p.q);
    dom_d.push_back(f.p.d);
    corners.back().end = static_cast<std::uint32_t>(dom_q.size());
  }
  front_q.shrink_to_fit();
  front_d.shrink_to_fit();
  corners.shrink_to_fit();
}

double TemporalLossFunction::Table::Evaluate(double alpha) const {
  const ExpAlpha x(alpha);
  const auto g = [&x](double c) {
    return c <= 0.0 ? 0.0 : LogLinearAt(c, x);
  };
  thread_local std::vector<double> gq, gd;
  const std::size_t k = front_q.size();
  if (gq.size() < k) {
    gq.resize(k);
    gd.resize(k);
  }
  double best = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    gq[i] = g(front_q[i]);
    gd[i] = g(front_d[i]);
    const double value = gq[i] - gd[i];
    if (value > best) best = value;
  }
  // Why skipping a corner's points is exact. Let u = 2^-53 and let S
  // bound the magnitude of every intermediate of LogLinearAt: S = 2a
  // below the a = 30 switch (aggregates are <= 1 + n u, so g < 2a),
  // S = a + 1500 at or above it (|log c| <= 745 and the log1p term
  // stays below 746 for normal c; matrices with a subnormal entry keep
  // the scan). Assuming each libm call within 2 ulps (glibc documents
  // at most 1 for log, log1p, exp and expm1), the computed g~ is within
  // e = 6 u S + 2^-1073 of a nondecreasing function of c: log1p of the
  // monotone product fl(c e) below the switch, the exact
  // log(c (e^a - 1) + 1) above it. Hence g~(c) <= g~(c') + 2e for
  // c <= c'. A point (q, d) filed under corner (lo, hi) has q <=
  // front_q[lo] and d >= front_d[hi], so g~(q) - g~(d) <= g~(front_q
  // [lo]) - g~(front_d[hi]) + 4e, and rounding the two differences and
  // `bound + margin` adds at most 6 u S + u margin. Skipping is exact
  // whenever margin >= 30 u S + 2^-1071; the margin below is 2^-32 S +
  // 2^-1022, about 70,000 times that. A non-finite bound or margin
  // (alpha = +inf) never skips, so every point is then evaluated.
  const double scale = alpha < 30.0 ? 2.0 * alpha : alpha + 1500.0;
  const double margin = std::ldexp(scale, -32) + std::ldexp(1.0, -1022);
  std::uint32_t begin = 0;
  for (const auto& corner : corners) {
    const double bound = gq[corner.lo] - gd[corner.hi];
    if (!(bound + margin < best)) {
      for (std::uint32_t j = begin; j < corner.end; ++j) {
        const double value = g(dom_q[j]) - g(dom_d[j]);
        if (value > best) best = value;
      }
    }
    begin = corner.end;
  }
  return best;
}

TemporalLossFunction::TemporalLossFunction(StochasticMatrix transition)
    : transition_(std::move(transition)),
      lazy_(std::make_shared<LazyTable>()) {
  assert(!transition_.empty());
}

double TemporalLossFunction::Evaluate(double alpha) const {
  assert(alpha >= 0.0);
  if (!(alpha > 0.0)) return 0.0;  // every g(c) is 0 at alpha = 0
  const std::size_t n = transition_.size();
  if (n < 2) return 0.0;
  std::call_once(lazy_->once, [&] {
    if (n > kMaxTableStates || HasSubnormalEntry(transition_)) return;
    auto table = std::make_unique<Table>();
    table->Build(transition_.matrix().data().data(), n);
    lazy_->bytes.store(table->bytes(), std::memory_order_relaxed);
    lazy_->table = std::move(table);
  });
  if (lazy_->table == nullptr) return EvaluateDetailed(alpha).loss;
  return lazy_->table->Evaluate(alpha);
}

std::size_t TemporalLossFunction::table_bytes() const {
  return lazy_->bytes.load(std::memory_order_relaxed);
}

TemporalLossFunction::Detail TemporalLossFunction::EvaluateDetailed(
    double alpha, const EvalOptions& options) const {
  assert(alpha >= 0.0);
  if (alpha < 0.0) alpha = 0.0;
  const std::size_t n = transition_.size();
  Detail best;
  if (n < 2) return best;  // single state: rows identical, loss 0
  // Rows are contiguous slices of the row-major storage; the pair cores
  // take raw pointers, so the sweep does no per-pair copies or
  // allocations (the scratch buffers warm up on the first pair).
  const double* base = transition_.matrix().data().data();
  for (std::size_t a = 0; a < n; ++a) {
    const double* q = base + a * n;
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      ++best.pairs_examined;
      const double* d = base + b * n;
      PairLossResult pair;
      if (options.method == PairLossMethod::kSortedPrefix) {
        PairLossSortedCore(q, d, n, alpha, /*want_subset=*/false, &pair);
      } else {
        PairLossIterativeCore(q, d, n, alpha, /*want_subset=*/false, &pair);
      }
      if (pair.loss > best.loss ||
          (best.loss == 0.0 && best.q_sum == 0.0 && pair.q_sum > 0.0)) {
        best.loss = pair.loss;
        best.q_sum = pair.q_sum;
        best.d_sum = pair.d_sum;
        best.row_q = a;
        best.row_d = b;
      }
    }
  }
  return best;
}

}  // namespace tcdp
