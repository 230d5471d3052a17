#include "core/temporal_correlations.h"

#include "common/hash.h"

namespace tcdp {

TemporalCorrelations TemporalCorrelations::BackwardOnly(
    StochasticMatrix backward) {
  TemporalCorrelations c;
  c.backward_ = std::move(backward);
  return c;
}

TemporalCorrelations TemporalCorrelations::ForwardOnly(
    StochasticMatrix forward) {
  TemporalCorrelations c;
  c.forward_ = std::move(forward);
  return c;
}

StatusOr<TemporalCorrelations> TemporalCorrelations::Both(
    StochasticMatrix backward, StochasticMatrix forward) {
  if (backward.size() != forward.size()) {
    return Status::InvalidArgument(
        "TemporalCorrelations: P^B is " + std::to_string(backward.size()) +
        "x" + std::to_string(backward.size()) + " but P^F is " +
        std::to_string(forward.size()) + "x" +
        std::to_string(forward.size()));
  }
  TemporalCorrelations c;
  c.backward_ = std::move(backward);
  c.forward_ = std::move(forward);
  return c;
}

std::size_t TemporalCorrelations::domain_size() const {
  if (has_backward()) return backward_->size();
  if (has_forward()) return forward_->size();
  return 0;
}

std::string TemporalCorrelations::ToString() const {
  if (empty()) return "TemporalCorrelations{none}";
  std::string out = "TemporalCorrelations{";
  if (has_backward()) out += "P^B:\n" + backward_->ToString();
  if (has_forward()) {
    if (has_backward()) out += "\n";
    out += "P^F:\n" + forward_->ToString();
  }
  out += "}";
  return out;
}

std::uint64_t FingerprintCorrelations(const TemporalCorrelations& corr,
                                      std::uint64_t seed) {
  const std::uint64_t words[3] = {
      corr.has_backward() ? FingerprintStochasticMatrix(corr.backward()) : 0,
      corr.has_forward() ? FingerprintStochasticMatrix(corr.forward()) : 0,
      (corr.has_backward() ? 1u : 0u) | (corr.has_forward() ? 2u : 0u)};
  return HashBytes(words, sizeof(words), seed);
}

bool SameCorrelations(const TemporalCorrelations& a,
                      const TemporalCorrelations& b) {
  return a.has_backward() == b.has_backward() &&
         a.has_forward() == b.has_forward() &&
         (!a.has_backward() || ExactlyEquals(a.backward(), b.backward())) &&
         (!a.has_forward() || ExactlyEquals(a.forward(), b.forward()));
}

}  // namespace tcdp
