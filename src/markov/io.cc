#include "markov/io.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "common/atomic_file.h"
#include "linalg/matrix.h"

namespace tcdp {
namespace {

bool IsFieldSeparator(char ch) {
  return ch == ',' || ch == ' ' || ch == '\t' || ch == '\r';
}

bool IsCommentOrBlank(std::string_view line) {
  for (char ch : line) {
    if (ch == '#') return true;
    if (ch != ' ' && ch != '\t' && ch != '\r') return false;
  }
  return true;
}

/// Cuts the next line (without its '\n') off the front of \p rest.
/// False once \p rest is empty; a last line without '\n' still counts.
bool NextLine(std::string_view* rest, std::string_view* line) {
  if (rest->empty()) return false;
  const std::size_t eol = rest->find('\n');
  *line = rest->substr(0, eol);
  rest->remove_prefix(eol == std::string_view::npos ? rest->size() : eol + 1);
  return true;
}

/// Cuts the next field off the front of \p rest, skipping separators.
/// False when only separators are left.
bool NextField(std::string_view* rest, std::string_view* field) {
  std::size_t begin = 0;
  while (begin < rest->size() && IsFieldSeparator((*rest)[begin])) ++begin;
  if (begin == rest->size()) return false;
  std::size_t end = begin;
  while (end < rest->size() && !IsFieldSeparator((*rest)[end])) ++end;
  *field = rest->substr(begin, end - begin);
  rest->remove_prefix(end);
  return true;
}

/// The matrix entry that starts at \p line[*at]; moves \p *at past it.
/// The whole field must be a number that strtod reads, finite after
/// rounding: overflow and underflow to 0 are refused, subnormals are
/// kept (they round-trip through %.17g).
StatusOr<double> ParseEntry(std::string_view line, std::size_t* at,
                            std::size_t line_no) {
  const char* first = line.data() + *at;
  const char* last = line.data() + line.size();
  double value = 0.0;
  // from_chars consumes no separator, so stopping at one (or at the end
  // of the line) means it read the whole field.
  const std::from_chars_result fast = std::from_chars(first, last, value);
  if (fast.ec == std::errc() &&
      (fast.ptr == last || IsFieldSeparator(*fast.ptr))) {
    *at = static_cast<std::size_t>(fast.ptr - line.data());
    return value;
  }
  // What from_chars leaves over is strtod's wider grammar (a leading
  // '+' or blank, hex floats) and out-of-range input: decide those as
  // strtod does, on a NUL-terminated copy of the field.
  std::size_t end = *at;
  while (end < line.size() && !IsFieldSeparator(line[end])) ++end;
  const std::string field(line.substr(*at, end - *at));
  *at = end;
  errno = 0;
  char* stop = nullptr;
  value = std::strtod(field.c_str(), &stop);
  if (stop == field.c_str() || *stop != '\0' ||
      (errno == ERANGE && (value == 0.0 || std::isinf(value)))) {
    return Status::InvalidArgument("line " + std::to_string(line_no) +
                                   ": cannot parse number '" + field + "'");
  }
  return value;
}

/// One state index: decimal digits only (no sign), within size_t.
StatusOr<std::size_t> ParseIndex(std::string_view field, std::size_t line_no) {
  std::size_t value = 0;
  const char* last = field.data() + field.size();
  const std::from_chars_result parsed =
      std::from_chars(field.data(), last, value);
  if (parsed.ec != std::errc() || parsed.ptr != last) {
    return Status::InvalidArgument("line " + std::to_string(line_no) +
                                   ": cannot parse state index '" +
                                   std::string(field) + "'");
  }
  return value;
}

StatusOr<Matrix> ParseMatrixRows(std::string_view text) {
  std::vector<double> values;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t line_no = 0;
  std::string_view line;
  while (NextLine(&text, &line)) {
    ++line_no;
    if (IsCommentOrBlank(line)) continue;
    const std::size_t row_begin = values.size();
    std::size_t at = 0;
    while (true) {
      while (at < line.size() && IsFieldSeparator(line[at])) ++at;
      if (at == line.size()) break;
      TCDP_ASSIGN_OR_RETURN(double v, ParseEntry(line, &at, line_no));
      values.push_back(v);
    }
    const std::size_t width = values.size() - row_begin;
    if (rows > 0 && width != cols) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": ragged row (got " +
          std::to_string(width) + " fields, expected " +
          std::to_string(cols) + ")");
    }
    if (rows == 0) {
      cols = width;
      // Square is the common shape; the rest of the text bounds what a
      // hostile first row can make this reserve.
      values.reserve(std::min(width * width, width + text.size() / 2));
    }
    ++rows;
  }
  if (rows == 0) {
    return Status::InvalidArgument("matrix text contains no data rows");
  }
  return Matrix::FromFlat(rows, cols, std::move(values));
}

}  // namespace

StatusOr<StochasticMatrix> ParseStochasticMatrix(std::string_view text) {
  TCDP_ASSIGN_OR_RETURN(Matrix m, ParseMatrixRows(text));
  return StochasticMatrix::Create(std::move(m));
}

StatusOr<StochasticMatrix> ParseStochasticMatrixExact(std::string_view text) {
  TCDP_ASSIGN_OR_RETURN(Matrix m, ParseMatrixRows(text));
  return StochasticMatrix::CreateExact(std::move(m));
}

void AppendDouble(std::string* out, double value) {
  char buffer[32];  // "%.17g" needs at most 24
  const std::to_chars_result printed =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, 17);
  out->append(buffer, printed.ptr);
}

void AppendStochasticMatrix(std::string* out, const StochasticMatrix& matrix,
                            char separator) {
  for (std::size_t r = 0; r < matrix.size(); ++r) {
    for (std::size_t c = 0; c < matrix.size(); ++c) {
      if (c > 0) out->push_back(separator);
      AppendDouble(out, matrix.At(r, c));
    }
    out->push_back('\n');
  }
}

std::string SerializeStochasticMatrix(const StochasticMatrix& matrix,
                                      char separator) {
  std::string out;
  out.reserve(matrix.size() * matrix.size() * 25);
  AppendStochasticMatrix(&out, matrix, separator);
  return out;
}

StatusOr<StochasticMatrix> LoadStochasticMatrix(const std::string& path) {
  TCDP_ASSIGN_OR_RETURN(std::string text, ReadFileWhole(path));
  return ParseStochasticMatrix(text);
}

Status SaveStochasticMatrix(const StochasticMatrix& matrix,
                            const std::string& path) {
  return WriteFileAtomic(path, SerializeStochasticMatrix(matrix));
}

StatusOr<std::vector<Trajectory>> ParseTrajectories(std::string_view text,
                                                    std::size_t num_states) {
  std::vector<Trajectory> trajectories;
  std::size_t line_no = 0;
  std::string_view line;
  while (NextLine(&text, &line)) {
    ++line_no;
    if (IsCommentOrBlank(line)) continue;
    Trajectory traj;
    std::string_view field;
    while (NextField(&line, &field)) {
      TCDP_ASSIGN_OR_RETURN(std::size_t s, ParseIndex(field, line_no));
      if (num_states > 0 && s >= num_states) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) + ": state " +
            std::to_string(s) + " outside domain of size " +
            std::to_string(num_states));
      }
      traj.push_back(s);
    }
    if (traj.empty()) continue;
    trajectories.push_back(std::move(traj));
  }
  if (trajectories.empty()) {
    return Status::InvalidArgument("trajectory text contains no data rows");
  }
  return trajectories;
}

std::string SerializeTrajectories(const std::vector<Trajectory>& trajectories,
                                  char separator) {
  std::ostringstream out;
  for (const Trajectory& traj : trajectories) {
    for (std::size_t i = 0; i < traj.size(); ++i) {
      if (i > 0) out << separator;
      out << traj[i];
    }
    out << '\n';
  }
  return out.str();
}

StatusOr<std::vector<Trajectory>> LoadTrajectories(const std::string& path,
                                                   std::size_t num_states) {
  TCDP_ASSIGN_OR_RETURN(std::string text, ReadFileWhole(path));
  return ParseTrajectories(text, num_states);
}

Status SaveTrajectories(const std::vector<Trajectory>& trajectories,
                        const std::string& path) {
  return WriteFileAtomic(path, SerializeTrajectories(trajectories));
}

}  // namespace tcdp
