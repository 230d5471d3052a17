#include "core/tpl_accountant.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string_view>

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

namespace {

constexpr std::string_view kImageV1 = "tcdp-accountant-v1";
constexpr std::string_view kImageV2 = "tcdp-accountant-v2";

/// Reads an image token by token with the semantics of the
/// `std::istream` extractions it replaced (C locale), so the accepted
/// grammar is unchanged: Word, Size and Double first skip isspace bytes
/// (space, \t, \n, \v, \f, \r) and fail if nothing is left; Skip drops
/// one byte, whatever it is (`istream::ignore()`).
class ImageScanner {
 public:
  explicit ImageScanner(std::string_view text) : text_(text) {}

  /// `std::getline`: the bytes up to the next '\n', which is consumed.
  bool Line(std::string_view* line) {
    if (pos_ == text_.size()) return false;
    const std::size_t eol = std::min(text_.find('\n', pos_), text_.size());
    *line = text_.substr(pos_, eol - pos_);
    pos_ = std::min(eol + 1, text_.size());
    return true;
  }

  /// \p count Line()s, returned as the one span of text they cover.
  bool Lines(std::size_t count, std::string_view* block) {
    const std::size_t begin = pos_;
    std::string_view line;
    for (std::size_t i = 0; i < count; ++i) {
      if (!Line(&line)) return false;
    }
    *block = text_.substr(begin, pos_ - begin);
    return true;
  }

  /// `in >> std::string`: a run of non-space bytes.
  bool Word(std::string_view* word) {
    if (!SkipSpace()) return false;
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
    *word = text_.substr(begin, pos_ - begin);
    return true;
  }

  /// `in >> std::size_t`: an optional sign and decimal digits. A value
  /// past SIZE_MAX fails; a '-' wraps modulo 2^64, as num_get does.
  bool Size(std::size_t* value) {
    if (!SkipSpace()) return false;
    const bool negative = text_[pos_] == '-';
    if (negative || text_[pos_] == '+') ++pos_;
    const std::size_t digits = pos_;
    std::size_t result = 0;
    bool overflow = false;
    for (; pos_ < text_.size() && IsDigit(text_[pos_]); ++pos_) {
      const std::size_t digit = static_cast<std::size_t>(text_[pos_] - '0');
      overflow = overflow || result > (SIZE_MAX - digit) / 10;
      result = result * 10 + digit;
    }
    if (pos_ == digits || overflow) return false;
    *value = negative ? 0 - result : result;
    return true;
  }

  /// `in >> double`: num_get's token — sign, digits with at most one
  /// '.', then 'e'/'E' (after a digit), a sign and digits — converted
  /// as strtod does. Overflow fails; underflow reads as strtod's
  /// result (0 or a subnormal).
  bool Double(double* value) {
    if (!SkipSpace()) return false;
    const std::size_t begin = pos_;
    if (text_[pos_] == '+' || text_[pos_] == '-') ++pos_;
    bool mantissa = false;
    bool point = false;
    bool exponent = false;
    while (pos_ < text_.size()) {
      const char ch = text_[pos_];
      if (IsDigit(ch)) {
        mantissa = true;
      } else if (ch == '.' && !point && !exponent) {
        point = true;
      } else if ((ch == 'e' || ch == 'E') && mantissa && !exponent) {
        exponent = true;
        if (pos_ + 1 < text_.size() &&
            (text_[pos_ + 1] == '+' || text_[pos_ + 1] == '-')) {
          ++pos_;
        }
      } else {
        break;
      }
      ++pos_;
    }
    const std::string_view token = text_.substr(begin, pos_ - begin);
    const char* last = token.data() + token.size();
    const std::from_chars_result fast =
        std::from_chars(token.data(), last, *value);
    if (fast.ec == std::errc() && fast.ptr == last) return true;
    // Out of range, or not a whole number ("1e", "."): strtod decides.
    const std::string copy(token);
    char* end = nullptr;
    *value = std::strtod(copy.c_str(), &end);
    return !copy.empty() && *end == '\0' && !std::isinf(*value);
  }

  /// `in.ignore()`.
  void Skip() { pos_ = std::min(pos_ + 1, text_.size()); }

 private:
  static bool IsSpace(char ch) {
    return ch == ' ' || (ch >= '\t' && ch <= '\r');
  }
  static bool IsDigit(char ch) { return ch >= '0' && ch <= '9'; }

  /// The istream sentry: skip spaces; fail if nothing is left.
  bool SkipSpace() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
    return pos_ < text_.size();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string SerializeAccountantImage(const AccountantImage& image) {
  const TemporalCorrelations& corr = image.correlations;
  const std::size_t nb = corr.has_backward() ? corr.backward().size() : 0;
  const std::size_t nf = corr.has_forward() ? corr.forward().size() : 0;
  std::string out;
  out.reserve(96 + 25 * (nb * nb + nf * nf + image.epsilons.size()));
  out += kImageV2;
  out += "\nquantization ";
  AppendDouble(&out, image.cache_alpha_resolution);
  out += "\nbackward ";
  out += std::to_string(nb);
  out += '\n';
  if (corr.has_backward()) AppendStochasticMatrix(&out, corr.backward());
  out += "forward ";
  out += std::to_string(nf);
  out += '\n';
  if (corr.has_forward()) AppendStochasticMatrix(&out, corr.forward());
  out += "epsilons ";
  out += std::to_string(image.epsilons.size());
  out += '\n';
  for (double e : image.epsilons) {
    AppendDouble(&out, e);
    out += '\n';
  }
  return out;
}

StatusOr<AccountantImage> ParseAccountantImage(std::string_view text) {
  ImageScanner in(text);
  std::string_view header;
  if (!in.Line(&header) || (header != kImageV1 && header != kImageV2)) {
    return Status::InvalidArgument(
        "ParseAccountantImage: bad header (expected tcdp-accountant-v1 or "
        "tcdp-accountant-v2)");
  }
  AccountantImage image;
  // v1 predates cached accounting: always restores direct evaluators.
  if (header == kImageV2) {
    std::string_view word;
    if (!in.Word(&word) || !in.Double(&image.cache_alpha_resolution) ||
        word != "quantization" ||
        !std::isfinite(image.cache_alpha_resolution)) {
      return Status::InvalidArgument(
          "ParseAccountantImage: expected 'quantization <step>'");
    }
    in.Skip();  // trailing newline
  }
  using OptionalMatrix = std::optional<StochasticMatrix>;
  auto read_matrix =
      [&](std::string_view keyword) -> StatusOr<OptionalMatrix> {
    std::string_view word;
    std::size_t n = 0;
    if (!in.Word(&word) || !in.Size(&n) || word != keyword) {
      return Status::InvalidArgument("ParseAccountantImage: expected '" +
                                     std::string(keyword) + " <n>'");
    }
    // A corrupted count cannot exceed the bytes available to hold the
    // rows (>= 2 chars per row): bound it before any allocation.
    if (n > text.size()) {
      return Status::InvalidArgument(
          "ParseAccountantImage: declared " + std::string(keyword) +
          " size " + std::to_string(n) + " exceeds the input");
    }
    in.Skip();  // trailing newline
    if (n == 0) return OptionalMatrix{};
    std::string_view rows;
    if (!in.Lines(n, &rows)) {
      return Status::InvalidArgument("ParseAccountantImage: truncated " +
                                     std::string(keyword) + " matrix");
    }
    // Exact parse: blobs are machine-written, and a forgiving
    // renormalization would shift entries by ULPs — the restored
    // series would drift off the live one.
    TCDP_ASSIGN_OR_RETURN(StochasticMatrix m, ParseStochasticMatrixExact(rows));
    if (m.size() != n) {
      return Status::InvalidArgument(
          "ParseAccountantImage: " + std::string(keyword) + " matrix size " +
          std::to_string(m.size()) + " != declared " + std::to_string(n));
    }
    return OptionalMatrix{std::move(m)};
  };

  TCDP_ASSIGN_OR_RETURN(auto backward, read_matrix("backward"));
  TCDP_ASSIGN_OR_RETURN(auto forward, read_matrix("forward"));

  std::string_view word;
  std::size_t count = 0;
  if (!in.Word(&word) || !in.Size(&count) || word != "epsilons") {
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
    if (!in.Double(&image.epsilons[i])) {
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
