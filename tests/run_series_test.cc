// Unit tests for common/run_series.h: maximal runs under bitwise
// equality, their expansion, and the reverse cursor the bank's
// backward sweep reads BPL through.

#include "common/run_series.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

namespace tcdp {
namespace {

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(RunSeries, AppendRunMergesOnlyEqualBits) {
  RunSeries runs;
  AppendRun(&runs, 2, 0.5);
  AppendRun(&runs, 0, 0.75);  // appends nothing
  AppendRun(&runs, 3, 0.5);
  AppendRun(&runs, 1, 0.0);
  AppendRun(&runs, 1, -0.0);  // equal as doubles, not as bits
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].length, 5u);
  EXPECT_EQ(runs[1].length, 1u);
  EXPECT_TRUE(std::signbit(runs[2].value));
  EXPECT_EQ(RunsLength(runs), 7u);
}

TEST(RunSeries, ToRunsAndExpandRunsRoundTripBitwise) {
  const std::vector<double> dense = {0.1, 0.1, 0.2, -0.0, 0.0, 0.0, 0.1};
  RunSeries runs;
  ToRuns(dense, &runs);
  EXPECT_EQ(runs.size(), 5u);
  std::vector<double> expanded = {9.0};  // refilled, not appended to
  ExpandRuns(runs, &expanded);
  EXPECT_TRUE(SameBits(expanded, dense));
  ToRuns({}, &runs);
  EXPECT_TRUE(runs.empty());
  ExpandRuns(runs, &expanded);
  EXPECT_TRUE(expanded.empty());
}

TEST(RunSeries, ReverseCursorReadsEveryIndexBackward) {
  const std::vector<double> dense = {1, 1, 1, 2, 3, 3, 4, 4, 4, 4};
  RunSeries runs;
  ToRuns(dense, &runs);
  ReverseRunCursor cursor(runs);
  for (std::size_t i = dense.size(); i-- > 0;) {
    EXPECT_EQ(cursor.At(i), dense[i]) << "index " << i;
    EXPECT_LE(cursor.run_begin(), i);
    EXPECT_EQ(dense[cursor.run_begin()], dense[i]);
  }
  // Skipping runs lands on the right one.
  ReverseRunCursor skipping(runs);
  EXPECT_EQ(skipping.At(9), 4);
  EXPECT_EQ(skipping.At(2), 1);
  EXPECT_EQ(skipping.run_begin(), 0u);
}

}  // namespace
}  // namespace tcdp
