#ifndef TCDP_TOOLS_CLI_H_
#define TCDP_TOOLS_CLI_H_

/// \file
/// The `tcdp` command-line tool, as a library so tests can drive it
/// in-process. `tcdp help` (HelpText below) lists every verb with its
/// flags, their defaults and which are required; all of it comes from
/// the one command table in cli.cc. Matrix and trajectory file
/// formats: see markov/io.h.

#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace tcdp {
namespace cli {

/// Executes one invocation. \p args excludes the program name.
/// Human-oriented results go to \p out; errors come back as Status.
Status Run(const std::vector<std::string>& args, std::ostream& out);

/// The help text (also printed by `tcdp help`).
std::string HelpText();

}  // namespace cli
}  // namespace tcdp

#endif  // TCDP_TOOLS_CLI_H_
