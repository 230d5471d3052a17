// Kernel-layer microbenchmarks (src/kernels/): the scalar reference vs
// the best backend the host supports, timed through the same Backend
// function-pointer table the production call sites use (so nothing
// here can be constant-folded away), plus a bitwise scalar/vector
// equivalence sweep over tail-heavy sizes, and CRC-32's table path
// against the path Crc32 dispatches to (the carry-less-multiply fold
// on x86-64 CPUs with PCLMULQDQ) over one 400 KB buffer.
//
// The speedup gates carry `min_simd_width = 4`: on hosts whose best
// backend is narrower (NEON = 2 doubles, scalar-only = 1) the harness
// skips them with a reason instead of failing — a vector-vs-scalar bar
// is meaningless where the vector backend IS scalar. The bitwise gate
// is enforced everywhere, in every mode.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench/suites/suites.h"
#include "common/binary_io.h"
#include "common/random.h"
#include "kernels/kernels.h"

namespace tcdp {
namespace bench {
namespace {

using kernels::Backend;

/// Deterministic inputs shaped like the production hot paths: q/d are
/// stochastic-matrix-row-like positives, `add` is a sparse mask
/// expansion (zeros and one epsilon value), x/out are dense row data.
struct KernelInputs {
  std::vector<double> q, d, loss, add, x, out;
  explicit KernelInputs(std::size_t n, std::uint64_t seed)
      : q(n), d(n), loss(n), add(n), x(n), out(n) {
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
      q[i] = rng.Uniform() + 1e-3;
      d[i] = rng.Uniform() + 1e-3;
      loss[i] = rng.Uniform();
      add[i] = rng.Uniform() < 0.4 ? 0.0 : 0.1;
      x[i] = rng.Uniform() * 2.0 - 1.0;
      out[i] = rng.Uniform();
    }
  }
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Runs every dispatched kernel once under both backends on the same
/// inputs and demands bitwise-equal outputs. One size, one seed.
bool BackendsMatchAt(const Backend& s, const Backend& v, std::size_t n,
                     std::uint64_t seed) {
  const KernelInputs in(n, seed);

  std::vector<double> bpl_s(n, -1.0), bpl_v(n, -1.0);
  std::vector<double> es_s = in.out, es_v = in.out;
  s.fused_loss_add(in.loss.data(), in.add.data(), bpl_s.data(), es_s.data(),
                   n);
  v.fused_loss_add(in.loss.data(), in.add.data(), bpl_v.data(), es_v.data(),
                   n);
  if (!SameBits(bpl_s, bpl_v) || !SameBits(es_s, es_v)) return false;

  es_s = in.out;
  es_v = in.out;
  s.fused_loss_add_uniform(in.loss.data(), 0.1, bpl_s.data(), es_s.data(), n);
  v.fused_loss_add_uniform(in.loss.data(), 0.1, bpl_v.data(), es_v.data(), n);
  if (!SameBits(bpl_s, bpl_v) || !SameBits(es_s, es_v)) return false;

  es_s = in.out;
  es_v = in.out;
  s.fused_fill_add(in.add.data(), bpl_s.data(), es_s.data(), n);
  v.fused_fill_add(in.add.data(), bpl_v.data(), es_v.data(), n);
  if (!SameBits(bpl_s, bpl_v) || !SameBits(es_s, es_v)) return false;

  es_s = in.out;
  es_v = in.out;
  s.fused_fill_uniform(0.1, bpl_s.data(), es_s.data(), n);
  v.fused_fill_uniform(0.1, bpl_v.data(), es_v.data(), n);
  if (!SameBits(bpl_s, bpl_v) || !SameBits(es_s, es_v)) return false;

  std::vector<double> out_s = in.out, out_v = in.out;
  s.axpy(0.7, in.x.data(), out_s.data(), n);
  v.axpy(0.7, in.x.data(), out_v.data(), n);
  if (!SameBits(out_s, out_v)) return false;

  if (!SameBits(s.dot(in.q.data(), in.d.data(), n),
                v.dot(in.q.data(), in.d.data(), n))) {
    return false;
  }

  std::vector<std::uint32_t> idx_s(n), idx_v(n);
  const std::size_t m_s =
      s.select_greater(in.q.data(), in.d.data(), n, idx_s.data());
  const std::size_t m_v =
      v.select_greater(in.q.data(), in.d.data(), n, idx_v.data());
  if (m_s != m_v ||
      std::memcmp(idx_s.data(), idx_v.data(),
                  m_s * sizeof(std::uint32_t)) != 0) {
    return false;
  }

  double qs_s = 0.0, ds_s = 0.0, qs_v = 0.0, ds_v = 0.0;
  s.gather_pair_sums(in.q.data(), in.d.data(), idx_s.data(), m_s, &qs_s,
                     &ds_s);
  v.gather_pair_sums(in.q.data(), in.d.data(), idx_v.data(), m_v, &qs_v,
                     &ds_v);
  if (!SameBits(qs_s, qs_v) || !SameBits(ds_s, ds_v)) return false;

  std::vector<double> val_s(in.x.begin(), in.x.begin() + m_s);
  std::vector<double> val_v = val_s;
  std::vector<std::uint32_t> fidx_s(idx_s.begin(), idx_s.begin() + m_s);
  std::vector<std::uint32_t> fidx_v = fidx_s;
  const std::size_t k_s = s.filter_gt(val_s.data(), fidx_s.data(), m_s, 0.1);
  const std::size_t k_v = v.filter_gt(val_v.data(), fidx_v.data(), m_s, 0.1);
  if (k_s != k_v ||
      std::memcmp(val_s.data(), val_v.data(), k_s * sizeof(double)) != 0 ||
      std::memcmp(fidx_s.data(), fidx_v.data(),
                  k_s * sizeof(std::uint32_t)) != 0) {
    return false;
  }
  return true;
}

bool BackendsMatch(const Backend& s, const Backend& v) {
  // Tail-heavy sweep: everything below one vector register, the lane
  // widths themselves, odd sizes just past them, and larger blocks.
  const std::size_t sizes[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 67, 1000};
  std::uint64_t seed = 20260808;
  for (const std::size_t n : sizes) {
    if (!BackendsMatchAt(s, v, n, seed++)) return false;
  }
  return true;
}

/// Crc32 (the dispatched path) against the table path over \p bytes
/// at a few offsets and lengths around the fold's 16-byte blocks.
bool Crc32PathsMatch(const std::string& bytes) {
  for (std::size_t offset : {0u, 1u, 3u, 7u}) {
    for (std::size_t trim : {0u, 1u, 15u, 16u, 17u, 63u}) {
      const std::size_t size = bytes.size() - offset - trim;
      if (Crc32(bytes.data() + offset, size) !=
          Crc32Table(bytes.data() + offset, size)) {
        return false;
      }
    }
  }
  return true;
}

struct TimedCase {
  double scalar_seconds = 0.0;
  double vector_seconds = 0.0;
  double speedup = 0.0;
};

/// Times `fn(backend)` for the scalar reference and the best backend.
template <typename Fn>
TimedCase TimeBoth(SuiteContext* ctx, const Fn& fn) {
  const Backend& s = kernels::ScalarBackend();
  const Backend& v = kernels::BestBackend();
  TimedCase timed;
  timed.scalar_seconds = ctx->TimeBestOf([&] { fn(s); });
  timed.vector_seconds =
      &v == &s ? timed.scalar_seconds : ctx->TimeBestOf([&] { fn(v); });
  timed.speedup = timed.vector_seconds > 0.0
                      ? timed.scalar_seconds / timed.vector_seconds
                      : 1.0;
  return timed;
}

Status RunSuite(SuiteContext* ctx) {
  // One slot column's worth of doubles: big enough to amortize the
  // dispatch call, small enough that every working set stays
  // L1-resident so the gates measure ALU width, not memory bandwidth.
  const std::size_t n = ctx->smoke() ? 512 : 512;
  const std::size_t iters = ctx->smoke() ? 800 : 8000;
  KernelInputs in(n, 20260808);

  auto params = [&] {
    return std::map<std::string, double>{
        {"n", static_cast<double>(n)},
        {"iters", static_cast<double>(iters)},
        {"simd_width", static_cast<double>(kernels::HostSimdWidth())}};
  };
  auto metrics = [](const TimedCase& timed) {
    return std::map<std::string, double>{
        {"scalar_seconds", timed.scalar_seconds},
        {"vector_seconds", timed.vector_seconds},
        {"speedup", timed.speedup}};
  };

  // (a) the bank's fused BPL column update, dense (everyone
  // participates, uniform epsilon) and masked (per-slot adds staged by
  // ExpandMaskEpsilon) flavors.
  std::vector<double> bpl(n, 0.0), eps_sum(n, 0.0);
  const TimedCase fused_dense = TimeBoth(ctx, [&](const Backend& k) {
    for (std::size_t it = 0; it < iters; ++it) {
      k.fused_loss_add_uniform(in.loss.data(), 0.1, bpl.data(),
                               eps_sum.data(), n);
    }
  });
  ctx->Record("fused_bpl_dense", params(),
              metrics(fused_dense));

  const TimedCase fused_masked = TimeBoth(ctx, [&](const Backend& k) {
    for (std::size_t it = 0; it < iters; ++it) {
      k.fused_loss_add(in.loss.data(), in.add.data(), bpl.data(),
                       eps_sum.data(), n);
    }
  });
  ctx->Record("fused_bpl_masked", params(),
              metrics(fused_masked));

  // (c) dense row ops behind Markov propagation.
  std::vector<double> out = in.out;
  const TimedCase axpy = TimeBoth(ctx, [&](const Backend& k) {
    for (std::size_t it = 0; it < iters; ++it) {
      k.axpy(0.7, in.x.data(), out.data(), n);
    }
  });
  ctx->Record("axpy", params(), metrics(axpy));

  double dot_sink = 0.0;
  const TimedCase dot = TimeBoth(ctx, [&](const Backend& k) {
    for (std::size_t it = 0; it < iters; ++it) {
      dot_sink += k.dot(in.q.data(), in.d.data(), n);
    }
  });
  ctx->Record("dot", params(), metrics(dot));

  // (b) one Algorithm-1 pair-scan round: candidate selection, subset
  // sums, log-ratio filter — chained the way PairLossIterativeCore
  // chains them.
  std::vector<std::uint32_t> idx(n);
  std::vector<double> logr(n);
  const TimedCase pair_scan = TimeBoth(ctx, [&](const Backend& k) {
    for (std::size_t it = 0; it < iters; ++it) {
      const std::size_t m =
          k.select_greater(in.q.data(), in.d.data(), n, idx.data());
      double q_sum = 0.0, d_sum = 0.0;
      k.gather_pair_sums(in.q.data(), in.d.data(), idx.data(), m, &q_sum,
                         &d_sum);
      for (std::size_t i = 0; i < m; ++i) logr[i] = in.x[idx[i]];
      const double threshold =
          q_sum > 0.0 && d_sum > 0.0 ? std::log(q_sum / d_sum) : 0.0;
      dot_sink +=
          static_cast<double>(k.filter_gt(logr.data(), idx.data(), m,
                                          threshold));
    }
  });
  ctx->Record("pair_scan", params(), metrics(pair_scan));
  ctx->Derived("dot_checksum_finite", std::isfinite(dot_sink) ? 1.0 : 0.0);

  // (d) CRC-32 over a report-sized frame (a Query answer at T ~ 25k is
  // about 400 KB): the slice-by-8 table vs what Crc32 dispatches to.
  std::string frame(400 * 1024, '\0');
  Rng crc_rng(20261019);
  for (char& c : frame) {
    c = static_cast<char>(crc_rng.UniformInt(0, 255));
  }
  const std::size_t crc_passes = ctx->smoke() ? 4 : 32;
  std::uint32_t crc_sink = 0;
  const auto time_crc = [&](auto crc32) {
    return ctx->TimeBestOf([&] {
             for (std::size_t it = 0; it < crc_passes; ++it) {
               crc_sink ^= crc32(frame.data(), frame.size(), crc_sink);
             }
           }) /
           static_cast<double>(crc_passes);
  };
  ctx->Derived("crc32_table_seconds",
               time_crc([](const void* p, std::size_t n, std::uint32_t seed) {
                 return Crc32Table(p, n, seed);
               }));
  ctx->Derived("crc32_fold_seconds",
               time_crc([](const void* p, std::size_t n, std::uint32_t seed) {
                 return Crc32(p, n, seed);
               }));
  ctx->Derived("crc32_uses_fold", Crc32UsesFold() ? 1.0 : 0.0);
  ctx->Derived("crc32_bitwise", Crc32PathsMatch(frame) ? 1.0 : 0.0);

  ctx->Derived("simd_width", static_cast<double>(kernels::HostSimdWidth()));
  ctx->Derived("bitwise_match",
               BackendsMatch(kernels::ScalarBackend(), kernels::BestBackend())
                   ? 1.0
                   : 0.0);
  ctx->Derived("fused_dense_speedup", fused_dense.speedup);
  ctx->Derived("fused_masked_speedup", fused_masked.speedup);
  ctx->Derived("axpy_speedup", axpy.speedup);
  ctx->Derived("dot_speedup", dot.speedup);
  ctx->Derived("pair_scan_speedup", pair_scan.speedup);
  return Status::OK();
}

}  // namespace

void RegisterKernelsSuite(Harness* harness) {
  SuiteSpec spec;
  spec.name = "kernels";
  spec.description =
      "dispatched kernel microbenchmarks: scalar reference vs best "
      "backend (fused BPL update, axpy/dot, pair scan) + bitwise sweep; "
      "CRC-32 table vs dispatched path over 400 KB";
  spec.repetitions = 5;
  spec.metric_policies = {
      {"scalar_seconds", MetricPolicy::Latency()},
      {"vector_seconds", MetricPolicy::Latency()},
      {"speedup", MetricPolicy::Throughput()},
  };
  spec.gates = {
      // The determinism contract (kernels.h): every backend bitwise
      // equal to the scalar reference. Enforced everywhere, always.
      {"scalar_vector_bitwise",
       "bitwise_match == 1 && dot_checksum_finite == 1"},
      // Crc32's carry-less-multiply fold (where the CPU has one) gives
      // the table path's value at every offset and tail length tried.
      {"crc32_fold_matches_table", "crc32_bitwise == 1"},
      // ISSUE 7 acceptance: vector >= 2x scalar on >= 4-wide hosts for
      // the fused BPL column update, the tentpole hot path;
      // skip-with-reason on narrower hosts. Timing bars, full only.
      {"vector_fused_speedup",
       "fused_dense_speedup >= 2 && fused_masked_speedup >= 2",
       /*min_cores=*/0, /*full_only=*/true, /*min_simd_width=*/4},
      // axpy/dot/scan cap out near 2x under the blocked-4 contract:
      // the scalar reference already carries 4-way ILP, and all three
      // are load/store-port bound at ~1 element/cycle either way, so
      // the honest bar is 1.5x (measured 1.7-1.95 on the ref host).
      {"vector_row_op_speedup", "axpy_speedup >= 1.5 && dot_speedup >= 1.5",
       /*min_cores=*/0, /*full_only=*/true, /*min_simd_width=*/4},
      {"vector_pair_scan_speedup", "pair_scan_speedup >= 1.5",
       /*min_cores=*/0, /*full_only=*/true, /*min_simd_width=*/4},
  };
  harness->Register(std::move(spec), RunSuite);
}

}  // namespace bench
}  // namespace tcdp
