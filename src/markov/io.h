#ifndef TCDP_MARKOV_IO_H_
#define TCDP_MARKOV_IO_H_

/// \file
/// Text I/O for correlation matrices and trajectories, so deployments can
/// plug in real traces and externally estimated models:
///
///  * matrices: one row per line, comma- or whitespace-separated
///    probabilities (a "#" prefix comments a line); every field must be
///    a number strtod reads in full, finite after rounding — overflow
///    and underflow to 0 are refused, subnormals kept;
///  * trajectories: one user per line, comma/whitespace-separated
///    0-based state indices.

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "markov/markov_chain.h"
#include "markov/stochastic_matrix.h"

namespace tcdp {

/// \brief Parses a stochastic matrix from text. Returns InvalidArgument
/// on ragged rows, non-numeric fields, or rows violating stochasticity.
/// Rows are forgivingly renormalized (Create semantics) — right for
/// hand-authored files, wrong for bitwise round-trips.
StatusOr<StochasticMatrix> ParseStochasticMatrix(std::string_view text);

/// \brief Parses with CreateExact semantics: entries keep their exact
/// bit patterns (no renormalization). The round-trip path for
/// machine-written matrices — accountant blobs and the release
/// service's WAL/snapshots parse through this so replayed accounting
/// stays bitwise identical.
StatusOr<StochasticMatrix> ParseStochasticMatrixExact(std::string_view text);

/// \brief Appends \p value as printf("%.17g") prints it in the C locale:
/// 17 significant digits, so every finite double reads back bitwise.
void AppendDouble(std::string* out, double value);

/// \brief Appends SerializeStochasticMatrix's text to \p out.
void AppendStochasticMatrix(std::string* out, const StochasticMatrix& matrix,
                            char separator = ',');

/// \brief Serializes with full double precision (%.17g), one row per
/// line.
std::string SerializeStochasticMatrix(const StochasticMatrix& matrix,
                                      char separator = ',');

/// \brief Reads a matrix from a file. NotFound if unreadable.
StatusOr<StochasticMatrix> LoadStochasticMatrix(const std::string& path);

/// \brief Writes a matrix to a file (overwrites).
Status SaveStochasticMatrix(const StochasticMatrix& matrix,
                            const std::string& path);

/// \brief Parses trajectories: one line per user, indices separated by
/// commas and/or whitespace. \p num_states = 0 infers the domain as
/// max index + 1; otherwise indices must be < num_states.
StatusOr<std::vector<Trajectory>> ParseTrajectories(
    std::string_view text, std::size_t num_states = 0);

/// \brief Serializes trajectories, one per line.
std::string SerializeTrajectories(const std::vector<Trajectory>& trajectories,
                                  char separator = ',');

/// \brief Reads trajectories from a file.
StatusOr<std::vector<Trajectory>> LoadTrajectories(
    const std::string& path, std::size_t num_states = 0);

/// \brief Writes trajectories to a file (overwrites).
Status SaveTrajectories(const std::vector<Trajectory>& trajectories,
                        const std::string& path);

}  // namespace tcdp

#endif  // TCDP_MARKOV_IO_H_
