// CRC-32's table path against the path Crc32 dispatches to (the
// carry-less-multiply fold on x86-64 CPUs with PCLMULQDQ) over one
// 400 KB buffer: both timed, and gated to agree at every offset and
// tail length tried.

#include <cstdint>
#include <string>

#include "bench/suites/suites.h"
#include "common/binary_io.h"
#include "common/random.h"

namespace tcdp {
namespace bench {
namespace {

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

Status RunSuite(SuiteContext* ctx) {
  // A report-sized frame (a Query answer at T ~ 25k is about 400 KB):
  // the slice-by-8 table vs what Crc32 dispatches to.
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
  return Status::OK();
}

}  // namespace

void RegisterKernelsSuite(Harness* harness) {
  SuiteSpec spec;
  spec.name = "kernels";
  spec.description = "CRC-32 table vs dispatched path over 400 KB";
  spec.repetitions = 5;
  spec.gates = {
      // Crc32's carry-less-multiply fold (where the CPU has one) gives
      // the table path's value at every offset and tail length tried.
      {"crc32_fold_matches_table", "crc32_bitwise == 1"},
  };
  harness->Register(std::move(spec), RunSuite);
}

}  // namespace bench
}  // namespace tcdp
