// Differential test of the accountant-image text codec against the
// std::istream / strtod / ostream implementation it replaced, which is
// kept below verbatim as the reference. Blobs are mutated under a fixed
// seed — truncations, byte flips, inserted signs, blanks, separators,
// comment lines, hex, inf/nan, out-of-range and subnormal numbers,
// ragged rows, wrong declared sizes — and both parsers must agree on
// accept/refuse and, on accept, on every bit of the image.
//
// The one intended difference: a matrix entry that strtod reads with
// ERANGE but as a finite nonzero value (a subnormal) was refused by the
// old parser even though the old printer wrote it; it is now accepted.
// The reference carries that rule (marked below) so that everything
// else must match exactly.

#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/tpl_accountant.h"
#include "markov/io.h"
#include "markov/stochastic_matrix.h"

namespace tcdp {
namespace {

// ------------------------------------------------------------ reference

std::vector<std::string> RefSplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char ch : line) {
    if (ch == ',' || ch == ' ' || ch == '\t' || ch == '\r') {
      if (!current.empty()) {
        fields.push_back(current);
        current.clear();
      }
    } else {
      current.push_back(ch);
    }
  }
  if (!current.empty()) fields.push_back(current);
  return fields;
}

bool RefIsCommentOrBlank(const std::string& line) {
  for (char ch : line) {
    if (ch == '#') return true;
    if (ch != ' ' && ch != '\t' && ch != '\r') return false;
  }
  return true;
}

StatusOr<double> RefParseDouble(const std::string& field) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  // The subnormal rule: the old check was `errno == ERANGE` alone.
  const bool out_of_range =
      errno == ERANGE && (value == 0.0 || std::isinf(value));
  if (end == field.c_str() || *end != '\0' || out_of_range) {
    return Status::InvalidArgument("cannot parse number '" + field + "'");
  }
  return value;
}

StatusOr<Matrix> RefParseMatrixRows(const std::string& text) {
  std::vector<std::vector<double>> rows;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (RefIsCommentOrBlank(line)) continue;
    std::vector<double> row;
    for (const std::string& field : RefSplitFields(line)) {
      TCDP_ASSIGN_OR_RETURN(double v, RefParseDouble(field));
      row.push_back(v);
    }
    if (!rows.empty() && row.size() != rows.front().size()) {
      return Status::InvalidArgument("ragged row");
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    return Status::InvalidArgument("matrix text contains no data rows");
  }
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) m.SetRow(r, rows[r]);
  return m;
}

StatusOr<StochasticMatrix> RefParseStochasticMatrix(const std::string& text) {
  TCDP_ASSIGN_OR_RETURN(Matrix m, RefParseMatrixRows(text));
  return StochasticMatrix::Create(std::move(m));
}

StatusOr<StochasticMatrix> RefParseStochasticMatrixExact(
    const std::string& text) {
  TCDP_ASSIGN_OR_RETURN(Matrix m, RefParseMatrixRows(text));
  return StochasticMatrix::CreateExact(std::move(m));
}

std::string RefSerializeStochasticMatrix(const StochasticMatrix& matrix) {
  std::ostringstream out;
  out.precision(17);
  for (std::size_t r = 0; r < matrix.size(); ++r) {
    for (std::size_t c = 0; c < matrix.size(); ++c) {
      if (c > 0) out << ',';
      out << matrix.At(r, c);
    }
    out << '\n';
  }
  return out.str();
}

std::string RefSerializeAccountantImage(const AccountantImage& image) {
  const TemporalCorrelations& corr = image.correlations;
  std::ostringstream out;
  out << "tcdp-accountant-v2\n";
  out.precision(17);
  out << "quantization " << image.cache_alpha_resolution << "\n";
  out << "backward " << (corr.has_backward() ? corr.backward().size() : 0)
      << "\n";
  if (corr.has_backward()) out << RefSerializeStochasticMatrix(corr.backward());
  out << "forward " << (corr.has_forward() ? corr.forward().size() : 0)
      << "\n";
  if (corr.has_forward()) out << RefSerializeStochasticMatrix(corr.forward());
  out << "epsilons " << image.epsilons.size() << "\n";
  for (double e : image.epsilons) out << e << "\n";
  return out.str();
}

StatusOr<AccountantImage> RefParseAccountantImage(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  if (!std::getline(in, header) ||
      (header != "tcdp-accountant-v1" && header != "tcdp-accountant-v2")) {
    return Status::InvalidArgument("bad header");
  }
  AccountantImage image;
  if (header == "tcdp-accountant-v2") {
    std::string word;
    if (!(in >> word >> image.cache_alpha_resolution) ||
        word != "quantization" ||
        !std::isfinite(image.cache_alpha_resolution)) {
      return Status::InvalidArgument("expected 'quantization <step>'");
    }
    in.ignore();
  }
  using OptionalMatrix = std::optional<StochasticMatrix>;
  auto read_matrix =
      [&](const std::string& keyword) -> StatusOr<OptionalMatrix> {
    std::string word;
    std::size_t n = 0;
    if (!(in >> word >> n) || word != keyword) {
      return Status::InvalidArgument("expected '" + keyword + " <n>'");
    }
    if (n > text.size()) {
      return Status::InvalidArgument("declared size exceeds the input");
    }
    in.ignore();
    if (n == 0) return std::optional<StochasticMatrix>{};
    std::string block;
    std::string line;
    for (std::size_t r = 0; r < n; ++r) {
      if (!std::getline(in, line)) {
        return Status::InvalidArgument("truncated matrix");
      }
      block += line;
      block += '\n';
    }
    TCDP_ASSIGN_OR_RETURN(StochasticMatrix m,
                          RefParseStochasticMatrixExact(block));
    if (m.size() != n) {
      return Status::InvalidArgument("matrix size != declared");
    }
    return std::optional<StochasticMatrix>{std::move(m)};
  };
  TCDP_ASSIGN_OR_RETURN(auto backward, read_matrix("backward"));
  TCDP_ASSIGN_OR_RETURN(auto forward, read_matrix("forward"));
  std::string word;
  std::size_t count = 0;
  if (!(in >> word >> count) || word != "epsilons") {
    return Status::InvalidArgument("expected 'epsilons <count>'");
  }
  if (count > text.size()) {
    return Status::InvalidArgument("declared count exceeds the input");
  }
  image.epsilons.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!(in >> image.epsilons[i])) {
      return Status::InvalidArgument("truncated epsilon list");
    }
    if (!std::isfinite(image.epsilons[i]) || image.epsilons[i] < 0.0) {
      return Status::InvalidArgument("epsilon not finite and >= 0");
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

// ------------------------------------------------------------- helpers

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

bool SameMatrix(const StochasticMatrix& a, const StochasticMatrix& b) {
  return a.size() == b.size() && SameBits(a.matrix().data(), b.matrix().data());
}

bool SameImage(const AccountantImage& a, const AccountantImage& b) {
  const TemporalCorrelations& ca = a.correlations;
  const TemporalCorrelations& cb = b.correlations;
  if (ca.has_backward() != cb.has_backward() ||
      ca.has_forward() != cb.has_forward()) {
    return false;
  }
  if (ca.has_backward() && !SameMatrix(ca.backward(), cb.backward())) {
    return false;
  }
  if (ca.has_forward() && !SameMatrix(ca.forward(), cb.forward())) {
    return false;
  }
  return SameBits(a.cache_alpha_resolution, b.cache_alpha_resolution) &&
         SameBits(a.epsilons, b.epsilons);
}

std::string Printable(const std::string& bytes) {
  std::string out;
  for (unsigned char c : bytes) {
    if (c >= 32 && c < 127 && c != '\\') {
      out.push_back(static_cast<char>(c));
    } else {
      static const char kHex[] = "0123456789abcdef";
      out += "\\x";
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 15]);
    }
  }
  return out;
}

/// Both parsers on \p blob: same verdict, and on accept the same bits.
/// Returns whether the blob was accepted.
bool ExpectSameImageVerdict(const std::string& blob) {
  const auto got = ParseAccountantImage(blob);
  const auto want = RefParseAccountantImage(blob);
  EXPECT_EQ(got.ok(), want.ok())
      << "blob: " << Printable(blob) << "\nnew: " << got.status()
      << "\nreference: " << want.status();
  if (got.ok() && want.ok()) {
    EXPECT_TRUE(SameImage(*got, *want)) << "blob: " << Printable(blob);
  }
  return got.ok() && want.ok();
}

void ExpectSameMatrixVerdict(const std::string& text) {
  const auto got = ParseStochasticMatrix(text);
  const auto want = RefParseStochasticMatrix(text);
  EXPECT_EQ(got.ok(), want.ok())
      << "text: " << Printable(text) << "\nnew: " << got.status()
      << "\nreference: " << want.status();
  if (got.ok() && want.ok()) {
    EXPECT_TRUE(SameMatrix(*got, *want)) << "text: " << Printable(text);
  }
  const auto got_exact = ParseStochasticMatrixExact(text);
  const auto want_exact = RefParseStochasticMatrixExact(text);
  EXPECT_EQ(got_exact.ok(), want_exact.ok())
      << "exact, text: " << Printable(text) << "\nnew: "
      << got_exact.status() << "\nreference: " << want_exact.status();
  if (got_exact.ok() && want_exact.ok()) {
    EXPECT_TRUE(SameMatrix(*got_exact, *want_exact))
        << "exact, text: " << Printable(text);
  }
}

StochasticMatrix RandomMatrix(std::size_t n, Rng* rng) {
  Matrix m(n, n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    double rest = 1.0;
    for (std::size_t c = 0; c + 1 < n; ++c) {
      // Mostly ordinary weights, sometimes exact zeros and tiny ones.
      const double pick = rng->Uniform();
      double v = rest * rng->Uniform();
      if (pick < 0.1) v = 0.0;
      if (pick >= 0.1 && pick < 0.2) v *= 1e-300;
      m.At(r, c) = v;
      rest -= v;
    }
    m.At(r, n - 1) = rest;
  }
  return StochasticMatrix::CreateExact(std::move(m)).value();
}

AccountantImage RandomImage(Rng* rng) {
  AccountantImage image;
  const std::size_t n = static_cast<std::size_t>(rng->UniformInt(1, 5));
  const StochasticMatrix backward = RandomMatrix(n, rng);
  const StochasticMatrix forward = RandomMatrix(n, rng);
  const double shape = rng->Uniform();
  if (shape < 0.6) {
    image.correlations = TemporalCorrelations::Both(backward, forward).value();
  } else if (shape < 0.75) {
    image.correlations = TemporalCorrelations::BackwardOnly(backward);
  } else if (shape < 0.9) {
    image.correlations = TemporalCorrelations::ForwardOnly(forward);
  }
  const double q = rng->Uniform();
  image.cache_alpha_resolution = q < 0.4 ? -1.0 : q < 0.8 ? 1e-6 : q;
  const std::int64_t count = rng->UniformInt(0, 4);
  for (std::int64_t i = 0; i < count; ++i) {
    image.epsilons.push_back(rng->Uniform() < 0.3 ? 0.0 : rng->Uniform());
  }
  return image;
}

/// Byte sequences that sit on the edges of the grammar.
const std::vector<std::string>& Splices() {
  static const std::vector<std::string> splices = {
      "+",
      "-",
      "\t",
      "\r",
      ",",
      ",,",
      " ",
      "\v",
      "\f",
      "\n",
      "#",
      "\n# comment\n",
      "\n\n",
      "0x1p-3",
      "0X1P+2",
      "inf",
      "-inf",
      "nan",
      "NaN",
      "infinity",
      "1e-400",
      "1e999",
      "-1e999",
      "4.9406564584124654e-324",
      "2.2250738585072014e-308",
      "1e-310",
      "-0",
      ".",
      "1.",
      ".5",
      "1e",
      "1e+",
      "e5",
      "00",
      "007",
      "0.5",
      "1",
      "0",
      "18446744073709551615",
      "18446744073709551616",
      "-1",
      std::string(1, '\0'),
      "\xff",
      "x",
      "E",
      "backward",
      "forward",
      "epsilons",
      "quantization",
      "tcdp-accountant-v1\n",
  };
  return splices;
}

std::string Mutate(const std::string& blob, Rng* rng) {
  std::string out = blob;
  const auto at = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng->UniformInt(0, static_cast<std::int64_t>(size)));
  };
  const int rounds = static_cast<int>(rng->UniformInt(1, 3));
  for (int round = 0; round < rounds; ++round) {
    const std::int64_t kind = rng->UniformInt(0, 7);
    const std::size_t pos = at(out.size());
    const std::vector<std::string>& splices = Splices();
    const std::string& splice = splices[static_cast<std::size_t>(
        rng->UniformInt(0, static_cast<std::int64_t>(splices.size()) - 1))];
    switch (kind) {
      case 0:  // truncate
        out.resize(pos);
        break;
      case 1:  // flip one byte to anything
        if (!out.empty()) {
          out[std::min(pos, out.size() - 1)] =
              static_cast<char>(rng->UniformInt(0, 255));
        }
        break;
      case 2:  // insert an edge sequence
        out.insert(pos, splice);
        break;
      case 3:  // replace one byte with an edge sequence
        if (!out.empty()) out.replace(std::min(pos, out.size() - 1), 1, splice);
        break;
      case 4:  // delete a run of bytes
        out.erase(pos, static_cast<std::size_t>(rng->UniformInt(1, 4)));
        break;
      case 5: {  // change a declared size or count by one
        const std::size_t digit = out.find_first_of("0123456789", pos);
        if (digit != std::string::npos && digit > 0 && out[digit - 1] == ' ') {
          char& d = out[digit];
          d = d == '9' ? '8' : static_cast<char>(d + 1);
        }
        break;
      }
      case 6: {  // duplicate or drop a whole line
        const std::size_t begin = out.rfind('\n', pos);
        const std::size_t from = begin == std::string::npos ? 0 : begin + 1;
        const std::size_t end = out.find('\n', from);
        const std::size_t to = end == std::string::npos ? out.size() : end + 1;
        if (rng->Uniform() < 0.5) {
          out.insert(from, out.substr(from, to - from));
        } else {
          out.erase(from, to - from);
        }
        break;
      }
      default: {  // drop one field out of a row (ragged)
        const std::size_t comma = out.find(',', pos);
        if (comma != std::string::npos) {
          std::size_t end = out.find_first_of(",\n", comma + 1);
          if (end == std::string::npos) end = out.size();
          out.erase(comma, end - comma);
        }
        break;
      }
    }
  }
  return out;
}

// --------------------------------------------------------------- tests

TEST(ImageCodecDiff, PrinterIsByteIdenticalToTheStreamPrinter) {
  Rng rng(20);
  for (int i = 0; i < 300; ++i) {
    const AccountantImage image = RandomImage(&rng);
    ASSERT_EQ(SerializeAccountantImage(image),
              RefSerializeAccountantImage(image));
    if (image.correlations.has_backward()) {
      ASSERT_EQ(SerializeStochasticMatrix(image.correlations.backward()),
                RefSerializeStochasticMatrix(image.correlations.backward()));
    }
  }
  // Values whose %.17g form takes every branch: exponents, -0, integers,
  // the extremes.
  AccountantImage edges;
  edges.cache_alpha_resolution = -0.0;
  for (double e : {0.0, 1.0, 1e-5, 123456789.0, 1e16, 1e17, 1e21, 0.1}) {
    edges.epsilons.push_back(e);
  }
  for (double e : {DBL_MIN, DBL_MAX, 5e-324, 1.0 / 3, 2.5e-7, 9.5e-5}) {
    edges.epsilons.push_back(e);
  }
  EXPECT_EQ(SerializeAccountantImage(edges),
            RefSerializeAccountantImage(edges));
}

TEST(ImageCodecDiff, ParsersAgreeOnWellFormedImages) {
  Rng rng(21);
  for (int i = 0; i < 300; ++i) {
    const std::string blob = SerializeAccountantImage(RandomImage(&rng));
    EXPECT_TRUE(ExpectSameImageVerdict(blob)) << Printable(blob);
  }
}

TEST(ImageCodecDiff, ParsersAgreeOnMutatedImages) {
  Rng rng(22);
  std::size_t accepted = 0;
  std::size_t total = 0;
  for (int i = 0; i < 400; ++i) {
    const AccountantImage image = RandomImage(&rng);
    std::string blob = SerializeAccountantImage(image);
    if (rng.Uniform() < 0.2) {
      // The v1 form: no quantization line.
      const std::size_t line = blob.find("quantization");
      blob.erase(line, blob.find('\n', line) + 1 - line);
      blob[line - 2] = '1';  // "tcdp-accountant-v2\n" -> "...-v1\n"
    }
    for (int m = 0; m < 40; ++m) {
      accepted += ExpectSameImageVerdict(Mutate(blob, &rng)) ? 1 : 0;
      ++total;
    }
    if (::testing::Test::HasFailure()) break;
  }
  // The sweep must exercise both verdicts, not just refusals.
  EXPECT_GT(accepted, total / 50);
  EXPECT_LT(accepted, total);
}

TEST(ImageCodecDiff, EveryTruncationGetsTheSameVerdict) {
  Rng rng(23);
  for (int i = 0; i < 20; ++i) {
    const std::string blob = SerializeAccountantImage(RandomImage(&rng));
    for (std::size_t cut = 0; cut <= blob.size(); ++cut) {
      ExpectSameImageVerdict(blob.substr(0, cut));
    }
  }
}

TEST(ImageCodecDiff, MatrixParsersAgreeOnMutatedText) {
  Rng rng(24);
  for (int i = 0; i < 300; ++i) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 4));
    std::string text = SerializeStochasticMatrix(RandomMatrix(n, &rng));
    if (rng.Uniform() < 0.3) text = "# a hand-written model\n\n" + text;
    if (rng.Uniform() < 0.3) text.pop_back();  // no final newline
    ExpectSameMatrixVerdict(text);
    for (int m = 0; m < 20; ++m) ExpectSameMatrixVerdict(Mutate(text, &rng));
    if (::testing::Test::HasFailure()) break;
  }
}

/// A v2 image: \p backward is everything before the "forward 0" line,
/// \p tail everything after it.
std::string Image(const std::string& backward, const std::string& tail) {
  return "tcdp-accountant-v2\nquantization -1\n" + backward + "forward 0\n" +
         tail;
}

TEST(ImageCodecDiff, HandPickedEdgeCases) {
  const std::string v2 = "tcdp-accountant-v2\n";
  const std::string q = "quantization -1\n";
  const std::string rows = "backward 2\n0.5,0.5\n0.25,0.75\n";
  const std::string signed_subnormal =
      "backward 2\n1,+4.9406564584124654e-324\n\v1e-310,1\n";
  const std::vector<std::string> blobs = {
      // Whitespace the stream skips between tokens.
      Image(rows, "epsilons 2\n0.5\n\n\t 0.25"),
      v2 + "\v quantization\f+1e-6\n" + rows + "forward 0\nepsilons 0\n",
      // The byte after a size is dropped, whatever it is.
      Image("backward 0x", "epsilons 0\n"),
      Image("backward 0", "epsilons 0\n"),
      // Signs and leading zeros on counts; wrapped negatives; overflow.
      Image("backward +2\n0.5,0.5\n0.25,0.75\n", "epsilons 0"),
      v2 + q + "backward 00\nforward +0\nepsilons 0",
      Image(rows, "epsilons -1\n"),
      Image(rows, "epsilons 18446744073709551616\n"),
      // Number tokens the stream cuts short or reads whole.
      Image(rows, "epsilons 1\n0x10\n"),
      Image(rows, "epsilons 1\n1e-400\n"),
      Image(rows, "epsilons 1\n1e999\n"),
      Image(rows, "epsilons 1\n5e-324\n"),
      Image(rows, "epsilons 1\ninf\n"),
      Image(rows, "epsilons 1\n1e\n"),
      Image(rows, "epsilons 1\n.5e+1trailing"),
      Image(rows, "epsilons 2\n1.2.3\n"),
      Image(rows, "epsilons 2\n1e5e6\n"),
      // Matrix rows through strtod's wider grammar.
      Image("backward 2\n+0.5,0x1p-1\n 0.25,\v0.75\n", "epsilons 0\n"),
      Image("backward 2\n0.5,0.5\r\n0.25\t0.75,\n", "epsilons 0\n"),
      Image("backward 2\n# c\n0.5,0.5\n", "epsilons 0\n"),
      Image("backward 2\n1,4.9406564584124654e-324\n0,1\n", "epsilons 0\n"),
      Image("backward 2\n1,1e-400\n0,1\n", "epsilons 0\n"),
      Image(signed_subnormal, "epsilons 0\n"),
      // Truncated images.
      v2 + q + rows,
      v2 + q + "backward 2\n0.5,0.5\n0.25,0.75",
      v2 + q + "backward 2\n0.5,0.5",
      "tcdp-accountant-v2",
      "tcdp-accountant-v2\r\nquantization 1\n",
  };
  for (const std::string& blob : blobs) ExpectSameImageVerdict(blob);
}

}  // namespace
}  // namespace tcdp
