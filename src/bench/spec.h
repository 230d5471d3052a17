#ifndef TCDP_BENCH_SPEC_H_
#define TCDP_BENCH_SPEC_H_

/// \file
/// Declarative benchmark workload specs (docs/BENCHMARKING.md).
///
/// A suite declares its name, default repetitions, per-metric
/// comparison policies, and acceptance gates; the harness owns running
/// it, evaluating the gates, writing the unified BENCH.json, and
/// diffing against a committed baseline. Host requirements (min cores)
/// live in the spec so the harness can skip-with-reason instead of a
/// gate silently passing (or noisily failing) on an undersized host.

#include <cstddef>
#include <map>
#include <string>

namespace tcdp {
namespace bench {

/// How the comparator treats one metric when diffing a run against a
/// baseline (docs/BENCHMARKING.md "Gate semantics and noise bands").
struct MetricPolicy {
  enum class Direction {
    kExact,           ///< two-sided: |cur - base| must stay inside the band
    kHigherIsBetter,  ///< regression = cur below base by more than the band
    kLowerIsBetter,   ///< regression = cur above base by more than the band
  };
  Direction direction = Direction::kExact;
  /// Relative noise band (0.15 = +-15%). For kExact metrics near zero
  /// the band is also used as an absolute tolerance.
  double noise_frac = 0.15;
  /// Informational metrics (host-dependent absolute timings) are
  /// diffed and reported but never fail the comparison; regression
  /// gating for them only means something when the baseline was
  /// produced on the same reference host — see docs/BENCHMARKING.md.
  bool informational = false;

  static MetricPolicy Exact(double noise = 1e-6) {
    MetricPolicy p;
    p.direction = Direction::kExact;
    p.noise_frac = noise;
    return p;
  }
  static MetricPolicy Throughput() {
    MetricPolicy p;
    p.direction = Direction::kHigherIsBetter;
    p.informational = true;
    return p;
  }
  static MetricPolicy Latency() {
    MetricPolicy p;
    p.direction = Direction::kLowerIsBetter;
    p.informational = true;
    return p;
  }
};

/// One acceptance gate: a boolean expression (bench/gate_expr.h) over
/// the suite's derived values and `case.metric` variables.
struct GateSpec {
  std::string name;
  std::string expression;
  /// Enforced only when the host has at least this many hardware
  /// threads; otherwise the harness records a skip with this reason
  /// (e.g. multi-thread-beats-serial on a 1-core box is meaningless).
  std::size_t min_cores = 0;
  /// Enforced only on full (non --smoke) runs; seconds-scale smoke
  /// grids are too small for timing-based acceptance bars.
  bool full_only = false;
};

/// The declarative part of a suite.
struct SuiteSpec {
  std::string name;
  std::string description;
  /// Default repetitions for timing loops (CLI --reps overrides).
  std::size_t repetitions = 1;
  std::map<std::string, MetricPolicy> metric_policies;
  std::vector<GateSpec> gates;
};

/// Options for one harness invocation.
struct RunOptions {
  bool smoke = false;
  std::size_t cores = 0;        ///< 0 = probe the host
  std::size_t repetitions = 0;  ///< 0 = per-suite default
};

}  // namespace bench
}  // namespace tcdp

#endif  // TCDP_BENCH_SPEC_H_
