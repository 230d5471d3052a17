#ifndef TCDP_COMMON_RUN_SERIES_H_
#define TCDP_COMMON_RUN_SERIES_H_

/// \file
/// A series of doubles as runs of bitwise-equal values.
///
/// Between a user's participations eps = 0, and the Equation 13/15
/// recurrences settle on a fixed point within a few steps, so a TPL
/// series is piecewise constant: its run form costs O(participations +
/// settling steps) where the dense form costs O(horizon). The bank's
/// series pass emits this form, the network Report carries it, and a
/// dense series is its expansion.
///
/// Equality is bitwise (0.0 and -0.0 are different values), so
/// expanding runs reproduces every bit of the series they were built
/// from. AppendRun keeps runs maximal: adjacent runs hold different
/// bits, which makes the run form of a series unique.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace tcdp {

/// `length` consecutive entries, each `value`.
struct Run {
  std::size_t length = 0;
  double value = 0.0;
};

using RunSeries = std::vector<Run>;

/// Appends \p length entries of \p value, extending the last run when
/// it holds the same bits. A zero length appends nothing.
inline void AppendRun(RunSeries* runs, std::size_t length, double value) {
  if (length == 0) return;
  if (!runs->empty()) {
    Run& last = runs->back();
    if (std::memcmp(&last.value, &value, sizeof(double)) == 0) {
      last.length += length;
      return;
    }
  }
  runs->push_back({length, value});
}

/// Total entries: the length of the dense series.
std::size_t RunsLength(const RunSeries& runs);

/// Refills \p out with the dense series (capacity reused).
void ExpandRuns(const RunSeries& runs, std::vector<double>* out);

/// Refills \p runs with the maximal runs of \p dense (capacity reused).
void ToRuns(const std::vector<double>& dense, RunSeries* runs);

/// Reads a run series at non-increasing indices, from its end:
/// amortized O(1) per read, O(runs) for a whole backward walk.
class ReverseRunCursor {
 public:
  explicit ReverseRunCursor(const RunSeries& runs)
      : runs_(runs), run_(runs.size()), begin_(RunsLength(runs)) {}

  /// The value at index \p i. PRECONDITION: i is below the series
  /// length and not above the index of the previous call.
  double At(std::size_t i) {
    while (i < begin_) begin_ -= runs_[--run_].length;
    return runs_[run_].value;
  }
  /// First index of the run the last At() read.
  std::size_t run_begin() const { return begin_; }

 private:
  const RunSeries& runs_;
  std::size_t run_;
  std::size_t begin_;
};

}  // namespace tcdp

#endif  // TCDP_COMMON_RUN_SERIES_H_
