#include "core/tpl_accountant.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "core/loss_cache.h"
#include "markov/io.h"

namespace tcdp {

TplAccountant::TplAccountant(TemporalCorrelations correlations)
    : correlations_(std::move(correlations)) {
  if (correlations_.has_backward()) {
    backward_loss_ =
        std::make_shared<TemporalLossFunction>(correlations_.backward());
  }
  if (correlations_.has_forward()) {
    forward_loss_ =
        std::make_shared<TemporalLossFunction>(correlations_.forward());
  }
}

TplAccountant::TplAccountant(TemporalCorrelations correlations,
                             std::shared_ptr<const LossEvaluator> backward_loss,
                             std::shared_ptr<const LossEvaluator> forward_loss,
                             double cache_alpha_resolution)
    : correlations_(std::move(correlations)),
      backward_loss_(std::move(backward_loss)),
      forward_loss_(std::move(forward_loss)),
      cache_alpha_resolution_(cache_alpha_resolution) {}

void TplAccountant::AppendStep(double epsilon) {
  double bpl = epsilon;
  if (!bpl_.empty() && backward_loss_ != nullptr) {
    bpl += backward_loss_->Evaluate(bpl_.back());
  }
  epsilons_.push_back(epsilon);
  bpl_.push_back(bpl);
  fpl_dirty_ = true;
}

Status TplAccountant::RecordRelease(double epsilon) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument(
        "TplAccountant: epsilon must be finite and > 0");
  }
  AppendStep(epsilon);
  return Status::OK();
}

Status TplAccountant::RecordSkip() {
  AppendStep(0.0);
  return Status::OK();
}

Status TplAccountant::RecordUniformReleases(double epsilon,
                                            std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    TCDP_RETURN_IF_ERROR(RecordRelease(epsilon));
  }
  return Status::OK();
}

void TplAccountant::EnsureFplCache() const {
  if (!fpl_dirty_) return;
  const std::size_t t_len = epsilons_.size();
  fpl_.assign(t_len, 0.0);
  for (std::size_t idx = t_len; idx-- > 0;) {
    double fpl = epsilons_[idx];
    if (idx + 1 < t_len && forward_loss_ != nullptr) {
      fpl += forward_loss_->Evaluate(fpl_[idx + 1]);
    }
    fpl_[idx] = fpl;
  }
  fpl_dirty_ = false;
}

StatusOr<double> TplAccountant::Bpl(std::size_t t) const {
  if (t < 1 || t > horizon()) {
    return Status::OutOfRange("Bpl: t outside [1, horizon]");
  }
  return bpl_[t - 1];
}

StatusOr<double> TplAccountant::Fpl(std::size_t t) const {
  if (t < 1 || t > horizon()) {
    return Status::OutOfRange("Fpl: t outside [1, horizon]");
  }
  EnsureFplCache();
  return fpl_[t - 1];
}

StatusOr<double> TplAccountant::Tpl(std::size_t t) const {
  TCDP_ASSIGN_OR_RETURN(double bpl, Bpl(t));
  TCDP_ASSIGN_OR_RETURN(double fpl, Fpl(t));
  return bpl + fpl - epsilons_[t - 1];
}

std::vector<double> TplAccountant::BplSeries() const { return bpl_; }

std::vector<double> TplAccountant::FplSeries() const {
  EnsureFplCache();
  return fpl_;
}

std::vector<double> TplAccountant::TplSeries() const {
  EnsureFplCache();
  std::vector<double> out(horizon());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = bpl_[i] + fpl_[i] - epsilons_[i];
  }
  return out;
}

double TplAccountant::MaxTpl() const {
  double best = 0.0;
  for (double v : TplSeries()) best = std::max(best, v);
  return best;
}

StatusOr<double> TplAccountant::SequenceTpl(std::size_t t,
                                            std::size_t j) const {
  if (t < 1 || t + j > horizon()) {
    return Status::OutOfRange("SequenceTpl: [t, t+j] outside horizon");
  }
  if (j == 0) return Tpl(t);
  EnsureFplCache();
  const double bpl_t = bpl_[t - 1];
  const double fpl_tj = fpl_[t + j - 1];
  double middle = 0.0;
  for (std::size_t k = 1; k + 1 <= j; ++k) middle += epsilons_[t + k - 1];
  return bpl_t + fpl_tj + middle;
}

double TplAccountant::UserLevelTpl() const {
  return std::accumulate(epsilons_.begin(), epsilons_.end(), 0.0);
}

StatusOr<double> TplAccountant::MaxWindowTpl(std::size_t w) const {
  if (w == 0) {
    return Status::InvalidArgument("MaxWindowTpl: w must be >= 1");
  }
  double best = 0.0;
  for (std::size_t t = 1; t <= horizon(); ++t) {
    const std::size_t j = std::min(w - 1, horizon() - t);
    TCDP_ASSIGN_OR_RETURN(double v, SequenceTpl(t, j));
    best = std::max(best, v);
  }
  return best;
}

std::string SerializeAccountantImage(const AccountantImage& image) {
  const TemporalCorrelations& corr = image.correlations;
  std::ostringstream out;
  out << "tcdp-accountant-v2\n";
  out.precision(17);
  out << "quantization " << image.cache_alpha_resolution << "\n";
  out << "backward " << (corr.has_backward() ? corr.backward().size() : 0)
      << "\n";
  if (corr.has_backward()) {
    out << SerializeStochasticMatrix(corr.backward());
  }
  out << "forward " << (corr.has_forward() ? corr.forward().size() : 0)
      << "\n";
  if (corr.has_forward()) {
    out << SerializeStochasticMatrix(corr.forward());
  }
  out << "epsilons " << image.epsilons.size() << "\n";
  out.precision(17);
  for (double e : image.epsilons) out << e << "\n";
  return out.str();
}

StatusOr<AccountantImage> ParseAccountantImage(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  if (!std::getline(in, header) ||
      (header != "tcdp-accountant-v1" && header != "tcdp-accountant-v2")) {
    return Status::InvalidArgument(
        "ParseAccountantImage: bad header (expected tcdp-accountant-v1 or "
        "tcdp-accountant-v2)");
  }
  AccountantImage image;
  // v1 predates cached accounting: always restores direct evaluators.
  if (header == "tcdp-accountant-v2") {
    std::string word;
    if (!(in >> word >> image.cache_alpha_resolution) ||
        word != "quantization" ||
        !std::isfinite(image.cache_alpha_resolution)) {
      return Status::InvalidArgument(
          "ParseAccountantImage: expected 'quantization <step>'");
    }
    in.ignore();  // trailing newline
  }
  using OptionalMatrix = std::optional<StochasticMatrix>;
  auto read_matrix =
      [&](const std::string& keyword) -> StatusOr<OptionalMatrix> {
    std::string word;
    std::size_t n = 0;
    if (!(in >> word >> n) || word != keyword) {
      return Status::InvalidArgument(
          "ParseAccountantImage: expected '" + keyword + " <n>'");
    }
    // A corrupted count cannot exceed the bytes available to hold the
    // rows (>= 2 chars per row): bound it before any allocation.
    if (n > text.size()) {
      return Status::InvalidArgument(
          "ParseAccountantImage: declared " + keyword + " size " +
          std::to_string(n) + " exceeds the input");
    }
    in.ignore();  // trailing newline
    if (n == 0) return std::optional<StochasticMatrix>{};
    std::string block;
    std::string line;
    for (std::size_t r = 0; r < n; ++r) {
      if (!std::getline(in, line)) {
        return Status::InvalidArgument(
            "ParseAccountantImage: truncated " + keyword + " matrix");
      }
      block += line;
      block += '\n';
    }
    // Exact parse: blobs are machine-written, and a forgiving
    // renormalization would shift entries by ULPs — the restored
    // series would drift off the live one.
    TCDP_ASSIGN_OR_RETURN(StochasticMatrix m,
                          ParseStochasticMatrixExact(block));
    if (m.size() != n) {
      return Status::InvalidArgument(
          "ParseAccountantImage: " + keyword + " matrix size " +
          std::to_string(m.size()) + " != declared " + std::to_string(n));
    }
    return std::optional<StochasticMatrix>{std::move(m)};
  };

  TCDP_ASSIGN_OR_RETURN(auto backward, read_matrix("backward"));
  TCDP_ASSIGN_OR_RETURN(auto forward, read_matrix("forward"));

  std::string word;
  std::size_t count = 0;
  if (!(in >> word >> count) || word != "epsilons") {
    return Status::InvalidArgument(
        "ParseAccountantImage: expected 'epsilons <count>'");
  }
  // Same bound as the matrices: a count that cannot fit in the input
  // (every entry needs at least "0\n") is corruption, not data. This
  // keeps a flipped digit from requesting an exabyte vector.
  if (count > text.size()) {
    return Status::InvalidArgument(
        "ParseAccountantImage: declared epsilon count " +
        std::to_string(count) + " exceeds the input");
  }
  image.epsilons.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!(in >> image.epsilons[i])) {
      return Status::InvalidArgument(
          "ParseAccountantImage: truncated epsilon list");
    }
    if (!std::isfinite(image.epsilons[i]) || image.epsilons[i] < 0.0) {
      return Status::InvalidArgument(
          "ParseAccountantImage: epsilon " + std::to_string(i) +
          " is not finite and >= 0");
    }
  }

  if (backward.has_value() && forward.has_value()) {
    TCDP_ASSIGN_OR_RETURN(
        image.correlations,
        TemporalCorrelations::Both(std::move(*backward), std::move(*forward)));
  } else if (backward.has_value()) {
    image.correlations =
        TemporalCorrelations::BackwardOnly(std::move(*backward));
  } else if (forward.has_value()) {
    image.correlations = TemporalCorrelations::ForwardOnly(std::move(*forward));
  }
  return image;
}

std::string TplAccountant::Serialize() const {
  AccountantImage image;
  image.correlations = correlations_;
  image.cache_alpha_resolution = cache_alpha_resolution_;
  image.epsilons = epsilons_;
  return SerializeAccountantImage(image);
}

StatusOr<TplAccountant> TplAccountant::Deserialize(const std::string& text) {
  TCDP_ASSIGN_OR_RETURN(AccountantImage image, ParseAccountantImage(text));
  TemporalCorrelations corr = image.correlations;
  auto make_accountant = [&]() -> TplAccountant {
    if (image.cache_alpha_resolution < 0.0) {
      return TplAccountant(std::move(corr));
    }
    // Rebuild an identically quantized cache; the interned evaluators
    // keep its internals alive past this scope, and replaying below
    // reproduces the live series bitwise.
    TemporalLossCache::Options options;
    options.alpha_resolution = image.cache_alpha_resolution;
    TemporalLossCache cache(options);
    std::shared_ptr<const LossEvaluator> b;
    std::shared_ptr<const LossEvaluator> f;
    if (corr.has_backward()) b = cache.Intern(corr.backward());
    if (corr.has_forward()) f = cache.Intern(corr.forward());
    return TplAccountant(std::move(corr), std::move(b), std::move(f),
                         image.cache_alpha_resolution);
  };
  TplAccountant accountant = make_accountant();
  for (double e : image.epsilons) {
    if (e == 0.0) {
      TCDP_RETURN_IF_ERROR(accountant.RecordSkip());
    } else {
      TCDP_RETURN_IF_ERROR(accountant.RecordRelease(e));
    }
  }
  return accountant;
}

}  // namespace tcdp
