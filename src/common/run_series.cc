#include "common/run_series.h"

#include <algorithm>

namespace tcdp {

std::size_t RunsLength(const RunSeries& runs) {
  std::size_t length = 0;
  for (const Run& run : runs) length += run.length;
  return length;
}

void ExpandRuns(const RunSeries& runs, std::vector<double>* out) {
  out->resize(RunsLength(runs));
  double* at = out->data();
  for (const Run& run : runs) at = std::fill_n(at, run.length, run.value);
}

void ToRuns(const std::vector<double>& dense, RunSeries* runs) {
  runs->clear();
  for (double value : dense) AppendRun(runs, 1, value);
}

}  // namespace tcdp
