#include "tools/cli.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#endif

#include "bench/compare.h"
#include "bench/harness.h"
#include "bench/json.h"
#include "bench/report.h"
#include "common/atomic_file.h"
#include "common/random.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/accountant_bank.h"
#include "core/budget_allocation.h"
#include "core/supremum.h"
#include "core/tpl_accountant.h"
#include "markov/estimation.h"
#include "markov/higher_order.h"
#include "markov/io.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/diff.h"
#include "obs/dumper.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/process_metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "replication/follower.h"
#include "replication/log_stream.h"
#include "replication/router.h"
#include "server/sharded_service.h"
#include "workload/generators.h"

namespace tcdp {
namespace cli {
namespace {

/// How ParseFlags converts and range-checks one flag's value.
enum class Kind {
  kString,        ///< any text
  kChoice,        ///< one of the '|'-separated words of the metavar
  kSize,          ///< integer >= 0
  kCount,         ///< integer >= 1
  kPositive,      ///< finite number > 0
  kNonNegative,   ///< finite number >= 0
  kFraction,      ///< number in [0, 1)
  kPositiveList,  ///< comma/space separated finite numbers > 0
  kPort,          ///< TCP port 1-65535
  kPortOrZero,    ///< TCP port; 0 binds any free port
  kBool,          ///< 0 or 1, read as off or on
  kSwitch,        ///< takes no value; present means on
};

/// Marks a flag without a default that every invocation must give.
constexpr char kRequired[] = "(required)";

/// One flag of one verb. \p fallback is its default text, kRequired,
/// or nullptr (absent unless given). The default is converted like a
/// given value.
struct FlagDef {
  const char* name;
  Kind kind;
  const char* fallback;
  const char* metavar;
};

struct Command;

/// One verb's flags after ParseFlags: every flag that was given or has
/// a default, converted and range-checked.
class Flags {
 public:
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  /// The flag's text, or "" when it is absent.
  std::string Str(const std::string& name) const {
    return Has(name) ? values_.at(name).text : "";
  }
  double Double(const std::string& name) const {
    return values_.at(name).numbers.front();
  }
  std::size_t Size(const std::string& name) const {
    return static_cast<std::size_t>(Double(name));
  }
  std::uint16_t Port(const std::string& name) const {
    return static_cast<std::uint16_t>(Double(name));
  }
  /// A 0|1 flag or a switch; absent reads as off.
  bool On(const std::string& name) const {
    return Has(name) && Double(name) != 0.0;
  }
  const std::vector<double>& List(const std::string& name) const {
    return values_.at(name).numbers;
  }

 private:
  friend StatusOr<Flags> ParseFlags(const std::vector<std::string>& args,
                                    const Command& command);
  struct Value {
    std::string text;
    std::vector<double> numbers;  ///< empty for text kinds
  };
  std::map<std::string, Value> values_;
};

/// Splits \p text on any of \p separators, dropping empty fields.
std::vector<std::string> Split(const std::string& text,
                               const char* separators) {
  std::vector<std::string> fields(1);
  for (char ch : text) {
    if (std::strchr(separators, ch) == nullptr) {
      fields.back().push_back(ch);
    } else if (!fields.back().empty()) {
      fields.emplace_back();
    }
  }
  if (fields.back().empty()) fields.pop_back();
  return fields;
}

/// A whole-string finite number, or nullopt.
std::optional<double> ParseNumber(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

/// The accepted values of a numeric kind: [min, max), integers only
/// where \p integer.
struct Range {
  Kind kind;
  bool integer;
  double min;
  double max;
  const char* expected;
};

/// The first integer a size_t cannot hold, and the least double > 0.
constexpr double kSizeLimit =
    static_cast<double>(std::numeric_limits<std::size_t>::max()) + 1.0;
constexpr double kTiny = std::numeric_limits<double>::denorm_min();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Range kRanges[] = {
    {Kind::kSize, true, 0, kSizeLimit, "an integer >= 0"},
    {Kind::kCount, true, 1, kSizeLimit, "an integer >= 1"},
    {Kind::kPositive, false, kTiny, kInf, "a finite number > 0"},
    {Kind::kNonNegative, false, 0, kInf, "a finite number >= 0"},
    {Kind::kFraction, false, 0, 1, "a number in [0, 1)"},
    {Kind::kPositiveList, false, kTiny, kInf, "numbers > 0, like 0.1,0.2"},
    {Kind::kPort, true, 1, 65536, "a port (1-65535)"},
    {Kind::kPortOrZero, true, 0, 65536, "a port (0-65535)"},
};

/// The numbers \p text stands for under \p def's kind (none for text
/// kinds); the error says what the kind accepts.
StatusOr<std::vector<double>> Convert(const FlagDef& def,
                                      const std::string& text) {
  switch (def.kind) {
    case Kind::kString:
      return std::vector<double>{};
    case Kind::kChoice: {
      const auto choices = Split(def.metavar, "|");
      if (std::find(choices.begin(), choices.end(), text) == choices.end()) {
        return Status::InvalidArgument(std::string("one of ") + def.metavar);
      }
      return std::vector<double>{};
    }
    case Kind::kBool:
      if (text != "0" && text != "1") return Status::InvalidArgument("0 or 1");
      return std::vector<double>{text == "1" ? 1.0 : 0.0};
    case Kind::kSwitch:
      return std::vector<double>{1.0};
    default:
      break;
  }
  const Range& range =
      *std::find_if(std::begin(kRanges), std::end(kRanges),
                    [&def](const Range& r) { return r.kind == def.kind; });
  const std::vector<std::string> fields =
      def.kind == Kind::kPositiveList ? Split(text, ", ")
                                      : std::vector<std::string>{text};
  std::vector<double> numbers;
  for (const std::string& field : fields) {
    const std::optional<double> v = ParseNumber(field);
    if (!v || *v < range.min || *v >= range.max ||
        (range.integer && *v != std::floor(*v))) {
      return Status::InvalidArgument(range.expected);
    }
    numbers.push_back(*v);
  }
  if (numbers.empty()) return Status::InvalidArgument(range.expected);
  return numbers;
}

/// One CLI verb: its handler, the one-line summary `tcdp help` prints,
/// and every flag it accepts.
struct Command {
  const char* name;
  Status (*run)(const Flags&, std::ostream&);
  const char* summary;
  std::vector<FlagDef> flags;
};

/// Parses `args[1..]` against \p command's flags. An unknown or
/// repeated flag, a missing required one, or a value its kind refuses
/// is an error naming the flag and the verb, returned before the
/// handler runs: a typo must not fall back to a default, and a bad
/// late flag must not fail after an earlier one took effect.
StatusOr<Flags> ParseFlags(const std::vector<std::string>& args,
                           const Command& command) {
  const std::string verb = "'tcdp " + args[0] + "'";
  std::map<std::string, std::string> given;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("expected a --flag, got '" + arg + "'");
    }
    const std::string name = arg.substr(2);
    const auto def = std::find_if(
        command.flags.begin(), command.flags.end(),
        [&name](const FlagDef& flag) { return name == flag.name; });
    if (def == command.flags.end()) {
      return Status::InvalidArgument("unknown flag '" + arg + "' for " +
                                     verb + "; see `tcdp help`");
    }
    if (given.count(name) > 0) {
      return Status::InvalidArgument("flag '" + arg + "' given twice for " +
                                     verb);
    }
    if (def->kind == Kind::kSwitch) {
      given[name] = "";
      continue;
    }
    if (i + 1 >= args.size()) {
      return Status::InvalidArgument("flag '" + arg + "' is missing a value");
    }
    given[name] = args[++i];
  }
  Flags flags;
  for (const FlagDef& def : command.flags) {
    const auto it = given.find(def.name);
    if (it == given.end() && def.fallback == kRequired) {
      return Status::InvalidArgument("missing required flag --" +
                                     std::string(def.name) + " for " + verb);
    }
    if (it == given.end() && def.fallback == nullptr) continue;
    const std::string text = it != given.end() ? it->second : def.fallback;
    auto numbers = Convert(def, text);
    if (!numbers.ok()) {
      return Status::InvalidArgument(
          "flag --" + std::string(def.name) + " for " + verb + " must be " +
          numbers.status().message() + ", got '" + text + "'");
    }
    flags.values_[def.name] = {text, std::move(*numbers)};
  }
  return flags;
}

/// Writes \p port to the file flag \p port_file names, if given, and
/// prints "<what> on <--host>:<port>" unless \p quiet. Callers run it
/// before Serve blocks: pollers treat the file's presence as "the port
/// is bound".
Status AnnouncePort(const Flags& flags, const char* port_file,
                    std::uint16_t port, const std::string& what, bool quiet,
                    std::ostream& out) {
  if (flags.Has(port_file)) {
    TCDP_RETURN_IF_ERROR(
        WriteFileAtomic(flags.Str(port_file), std::to_string(port) + "\n"));
  }
  if (!quiet) {
    out << what << " on " << flags.Str("host") << ":" << port << "\n";
    out.flush();
  }
  return Status::OK();
}

/// \p count per second of \p seconds; 0 for an empty interval.
double PerSecond(std::uint64_t count, double seconds) {
  return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

/// An insertion-ordered JSON object from (key, value) pairs.
bench::Json Object(
    std::initializer_list<std::pair<const char*, bench::Json>> items) {
  bench::JsonObject object;
  for (const auto& [key, value] : items) object.Set(key, value);
  return object;
}

/// Loads the correlation pair from --matrix (both directions) or the
/// explicit --backward and/or --forward flags.
StatusOr<TemporalCorrelations> LoadCorrelations(const Flags& flags) {
  const bool matrix = flags.Has("matrix");
  if (matrix == (flags.Has("backward") || flags.Has("forward"))) {
    return Status::InvalidArgument(
        "provide either --matrix, or --backward and/or --forward");
  }
  if (matrix) {
    TCDP_ASSIGN_OR_RETURN(auto m, LoadStochasticMatrix(flags.Str("matrix")));
    return TemporalCorrelations::Both(m, m);
  }
  if (!flags.Has("forward")) {
    TCDP_ASSIGN_OR_RETURN(auto b, LoadStochasticMatrix(flags.Str("backward")));
    return TemporalCorrelations::BackwardOnly(std::move(b));
  }
  TCDP_ASSIGN_OR_RETURN(auto f, LoadStochasticMatrix(flags.Str("forward")));
  if (!flags.Has("backward")) {
    return TemporalCorrelations::ForwardOnly(std::move(f));
  }
  TCDP_ASSIGN_OR_RETURN(auto b, LoadStochasticMatrix(flags.Str("backward")));
  return TemporalCorrelations::Both(std::move(b), std::move(f));
}

Status CmdQuantify(const Flags& flags, std::ostream& out) {
  TCDP_ASSIGN_OR_RETURN(auto corr, LoadCorrelations(flags));
  std::vector<double> schedule;
  if (flags.Has("schedule")) {
    schedule = flags.List("schedule");
  } else if (flags.Has("epsilon") && flags.Has("horizon")) {
    schedule.assign(flags.Size("horizon"), flags.Double("epsilon"));
  } else {
    return Status::InvalidArgument(
        "provide --epsilon and --horizon, or --schedule");
  }
  TplAccountant acc(corr);
  for (double eps : schedule) {
    TCDP_RETURN_IF_ERROR(acc.RecordRelease(eps));
  }
  Table table({"t", "epsilon", "BPL", "FPL", "TPL"});
  for (std::size_t t = 1; t <= acc.horizon(); ++t) {
    table.AddRow();
    table.AddInt(static_cast<long long>(t));
    table.AddNumber(schedule[t - 1], 6);
    TCDP_ASSIGN_OR_RETURN(double bpl, acc.Bpl(t));
    TCDP_ASSIGN_OR_RETURN(double fpl, acc.Fpl(t));
    TCDP_ASSIGN_OR_RETURN(double tpl, acc.Tpl(t));
    table.AddNumber(bpl, 6);
    table.AddNumber(fpl, 6);
    table.AddNumber(tpl, 6);
  }
  out << table.ToAlignedString();
  out << "max TPL (event-level alpha): " << FormatNumber(acc.MaxTpl(), 6)
      << "\nuser-level TPL (Corollary 1): "
      << FormatNumber(acc.UserLevelTpl(), 6) << "\n";
  return Status::OK();
}

Status CmdSupremum(const Flags& flags, std::ostream& out) {
  TCDP_ASSIGN_OR_RETURN(auto corr, LoadCorrelations(flags));
  const double eps = flags.Double("epsilon");
  auto report = [&](const char* label,
                    const StochasticMatrix& m) -> Status {
    TemporalLossFunction loss(m);
    TCDP_ASSIGN_OR_RETURN(auto sup, ComputeSupremum(loss, eps));
    out << label << ": ";
    if (sup.exists) {
      out << "supremum = " << FormatNumber(sup.value, 6)
          << "  (maximizing pair q=" << FormatNumber(sup.q_sum, 4)
          << ", d=" << FormatNumber(sup.d_sum, 4) << ")\n";
    } else {
      out << "supremum does not exist (leakage grows without bound)\n";
    }
    return Status::OK();
  };
  if (corr.has_backward()) {
    TCDP_RETURN_IF_ERROR(report("BPL", corr.backward()));
  }
  if (corr.has_forward()) {
    TCDP_RETURN_IF_ERROR(report("FPL", corr.forward()));
  }
  return Status::OK();
}

Status CmdAllocate(const Flags& flags, std::ostream& out) {
  TCDP_ASSIGN_OR_RETURN(auto corr, LoadCorrelations(flags));
  const double alpha = flags.Double("alpha");
  const std::size_t horizon = flags.Size("horizon");
  const std::string strategy = flags.Str("strategy");

  TCDP_ASSIGN_OR_RETURN(auto alloc, BudgetAllocator::Create(corr, alpha));
  std::vector<double> schedule;
  if (strategy == "quantified") {
    TCDP_ASSIGN_OR_RETURN(schedule, alloc.QuantifiedSchedule(horizon));
  } else if (strategy == "upper-bound") {
    schedule = alloc.UpperBoundSchedule(horizon);
  } else {
    schedule = GroupDpSchedule(alpha, horizon);
  }

  out << "strategy: " << strategy
      << "\nbalanced split: alpha_b=" << FormatNumber(alloc.budget().alpha_b, 6)
      << " alpha_f=" << FormatNumber(alloc.budget().alpha_f, 6)
      << " eps*=" << FormatNumber(alloc.budget().eps_steady, 6) << "\n";

  TplAccountant acc(corr);
  Table table({"t", "epsilon_t", "TPL_t"});
  for (double eps : schedule) {
    TCDP_RETURN_IF_ERROR(acc.RecordRelease(eps));
  }
  for (std::size_t t = 1; t <= horizon; ++t) {
    table.AddRow();
    table.AddInt(static_cast<long long>(t));
    table.AddNumber(schedule[t - 1], 6);
    TCDP_ASSIGN_OR_RETURN(double tpl, acc.Tpl(t));
    table.AddNumber(tpl, 6);
  }
  out << table.ToAlignedString();
  out << "audited max TPL: " << FormatNumber(acc.MaxTpl(), 6)
      << " (target alpha " << FormatNumber(alpha, 6) << ")\n";
  return Status::OK();
}

Status CmdEstimate(const Flags& flags, std::ostream& out) {
  std::size_t states = flags.Size("states");
  TCDP_ASSIGN_OR_RETURN(auto trajectories,
                        LoadTrajectories(flags.Str("trajectories"), states));
  if (states == 0) {
    for (const auto& traj : trajectories) {
      for (std::size_t s : traj) states = std::max(states, s + 1);
    }
  }
  const std::size_t order = flags.Size("order");
  EstimationOptions options;
  if (flags.Has("smoothing")) {
    options.additive_smoothing = flags.Double("smoothing");
  }

  StochasticMatrix forward;
  if (order == 1) {
    TCDP_ASSIGN_OR_RETURN(
        forward, EstimateForwardTransition(trajectories, states, options));
  } else {
    TCDP_ASSIGN_OR_RETURN(
        auto chain, HigherOrderChain::Estimate(trajectories, states, order,
                                               options.additive_smoothing));
    forward = chain.EmbedAsFirstOrder();
    out << "# order-" << order << " model embedded over "
        << forward.size() << " histories\n";
  }
  if (flags.Has("out")) {
    TCDP_RETURN_IF_ERROR(SaveStochasticMatrix(forward, flags.Str("out")));
    out << "forward matrix written to " << flags.Str("out") << "\n";
  } else {
    out << SerializeStochasticMatrix(forward);
  }
  if (flags.Has("backward-out")) {
    TCDP_ASSIGN_OR_RETURN(
        auto backward,
        EstimateBackwardTransition(trajectories, states, options));
    TCDP_RETURN_IF_ERROR(
        SaveStochasticMatrix(backward, flags.Str("backward-out")));
    out << "backward matrix written to " << flags.Str("backward-out")
        << "\n";
  }
  return Status::OK();
}

Status CmdFleet(const Flags& flags, std::ostream& out) {
  const std::size_t users = flags.Size("users");
  const std::size_t horizon = flags.Size("horizon");
  const std::size_t groups = flags.Size("groups");
  const std::size_t threads = flags.Size("threads");
  const double epsilon = flags.Double("epsilon");
  const double sparsity = flags.Double("sparsity");
  const bool use_cache = flags.Str("cache") == "on";

  // Synthetic multi-user clickstream fleet: `groups` browsing profiles
  // (increasingly home-page-bound), users assigned round-robin.
  std::vector<TemporalCorrelations> profiles;
  for (std::size_t g = 0; g < groups; ++g) {
    // Sweep home_prob over [0.15, 0.45); with link_prob = 0.5 the row
    // budget home_prob + link_prob stays within 1.
    const double home_prob =
        0.15 + 0.3 * static_cast<double>(g) / static_cast<double>(groups);
    TCDP_ASSIGN_OR_RETURN(auto matrix,
                          ClickstreamModel(flags.Size("pages"), home_prob));
    TCDP_ASSIGN_OR_RETURN(auto corr,
                          TemporalCorrelations::Both(matrix, matrix));
    profiles.push_back(std::move(corr));
  }

  AccountantBankOptions options;
  options.share_loss_cache = use_cache;
  AccountantBank bank(options);
  // 0 threads = hardware concurrency; 1 runs the per-user loop inline.
  std::unique_ptr<ThreadPool> pool;
  if (threads != 1) {
    pool = std::make_unique<ThreadPool>(threads);
    bank.set_pool(pool.get());
  }
  for (std::size_t u = 0; u < users; ++u) bank.AddUser(profiles[u % groups]);
  // Work denominator: every user steps on every release (a skip still
  // advances state), timed inside RecordRelease only.
  const std::uint64_t user_releases =
      static_cast<std::uint64_t>(users) * horizon;
  double record_seconds = 0.0;
  Rng rng(static_cast<std::uint64_t>(flags.Size("seed")));
  std::vector<std::size_t> participants;
  for (std::size_t t = 0; t < horizon; ++t) {
    if (sparsity > 0.0) {
      // Heterogeneous schedule: each user participates in each release
      // with probability 1 - sparsity (seeded, reproducible).
      participants.clear();
      for (std::size_t u = 0; u < users; ++u) {
        if (rng.Uniform() >= sparsity) participants.push_back(u);
      }
    }
    WallTimer timer;
    TCDP_RETURN_IF_ERROR(sparsity > 0.0
                             ? bank.RecordRelease(epsilon, participants)
                             : bank.RecordRelease(epsilon));
    record_seconds += timer.ElapsedSeconds();
  }
  const double user_releases_per_sec = PerSecond(user_releases, record_seconds);

  // One parallel fleet sweep yields both aggregates.
  const auto alphas = bank.PersonalizedAlphas();
  const auto [min_it, max_it] =
      std::minmax_element(alphas.begin(), alphas.end());
  const double min_alpha = *min_it;
  const double max_alpha = *max_it;

  const auto cache = bank.cache_stats();
  if (flags.Has("json")) {
    out << Object({{"users", users},
                   {"horizon", horizon},
                   {"groups", groups},
                   {"cohorts", bank.num_cohorts()},
                   {"threads", threads},
                   {"sparsity", sparsity},
                   {"epsilon", epsilon},
                   {"cache", use_cache},
                   {"user_releases", user_releases},
                   {"record_seconds", record_seconds},
                   {"user_releases_per_sec", user_releases_per_sec},
                   {"overall_alpha", max_alpha},
                   {"min_personalized_alpha", min_alpha},
                   {"cache_hits", cache.hits},
                   {"cache_misses", cache.misses},
                   {"distinct_matrices", cache.distinct_matrices},
                   {"cache_table_bytes", cache.table_bytes}})
               .Dump();
    return Status::OK();
  }
  Table table({"metric", "value"});
  table.AddRowCells({"users", std::to_string(users)});
  table.AddRowCells({"horizon", std::to_string(horizon)});
  table.AddRowCells({"correlation groups", std::to_string(groups)});
  table.AddRowCells({"cohorts", std::to_string(bank.num_cohorts())});
  table.AddRowCells({"sparsity", FormatNumber(sparsity, 2)});
  table.AddRowCells(
      {"user-steps driven (incl. skips)", std::to_string(user_releases)});
  table.AddRowCells({"record wall time (s)", FormatNumber(record_seconds, 4)});
  table.AddRowCells({"releases/sec", FormatNumber(user_releases_per_sec, 0)});
  table.AddRowCells({"overall alpha (max TPL)", FormatNumber(max_alpha, 6)});
  table.AddRowCells({"min personalized alpha", FormatNumber(min_alpha, 6)});
  if (use_cache) {
    table.AddRowCells({"loss cache hits", std::to_string(cache.hits)});
    table.AddRowCells({"loss cache misses", std::to_string(cache.misses)});
    table.AddRowCells(
        {"loss cache hit rate", FormatNumber(cache.HitRate(), 4)});
    table.AddRowCells(
        {"distinct matrices", std::to_string(cache.distinct_matrices)});
  } else {
    table.AddRowCells({"loss cache", "off"});
  }
  out << table.ToAlignedString();
  return Status::OK();
}

struct ServeOutcome {
  std::uint64_t script_lines = 0;
  double elapsed_seconds = 0.0;
  std::vector<server::UserReport> queries;
};

/// Drives the script file at \p path into \p backend — either the
/// in-process ShardedReleaseService or a NetClient; both expose the
/// same verbs, and sharing one parser keeps the two replay paths'
/// grammar identical, so their query results compare bitwise.
/// Grammar (one command per line, '#' comments):
///   join <name> <pages> <home_prob>
///   release <eps> all | release <eps> <name[,name...]>
///   flush | snapshot | compact | query <name>
template <typename Target>
Status RunScript(const std::string& path, Target* backend,
                 ServeOutcome* outcome) {
  std::ifstream script(path);
  if (!script) return Status::NotFound("cannot open script " + path);
  std::string line;
  std::size_t line_no = 0;
  WallTimer timer;
  while (std::getline(script, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string command;
    if (!(fields >> command) || command[0] == '#') continue;
    ++outcome->script_lines;
    auto syntax_error = [&](const std::string& why) {
      return Status::InvalidArgument("script line " +
                                     std::to_string(line_no) + ": " + why);
    };
    if (command == "join") {
      std::string name;
      std::size_t pages = 0;
      double home_prob = 0.0;
      if (!(fields >> name >> pages >> home_prob)) {
        return syntax_error("expected 'join <name> <pages> <home_prob>'");
      }
      TCDP_ASSIGN_OR_RETURN(auto matrix, ClickstreamModel(pages, home_prob));
      TCDP_ASSIGN_OR_RETURN(auto corr,
                            TemporalCorrelations::Both(matrix, matrix));
      TCDP_RETURN_IF_ERROR(backend->Join(name, std::move(corr)));
    } else if (command == "release") {
      double eps = 0.0;
      std::string who;
      if (!(fields >> eps >> who)) {
        return syntax_error("expected 'release <eps> all|<names>'");
      }
      if (who == "all") {
        TCDP_RETURN_IF_ERROR(backend->ReleaseAll(eps));
      } else {
        for (const std::string& name : Split(who, ",")) {
          TCDP_RETURN_IF_ERROR(backend->Release(name, eps));
        }
      }
    } else if (command == "flush") {
      TCDP_RETURN_IF_ERROR(backend->Flush());
    } else if (command == "snapshot") {
      TCDP_RETURN_IF_ERROR(backend->Snapshot());
    } else if (command == "compact") {
      TCDP_RETURN_IF_ERROR(backend->Compact());
    } else if (command == "query") {
      std::string name;
      if (!(fields >> name)) return syntax_error("expected 'query <name>'");
      TCDP_ASSIGN_OR_RETURN(auto report, backend->Query(name));
      outcome->queries.push_back(std::move(report));
    } else {
      return syntax_error("unknown command '" + command + "'");
    }
  }
  TCDP_RETURN_IF_ERROR(backend->Flush());
  outcome->elapsed_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

/// `query` results, one JSON row each; serve and client print the same
/// rows so their query sections compare bitwise.
bench::Json QueriesJson(const std::vector<server::UserReport>& queries) {
  bench::JsonArray rows;
  for (const server::UserReport& report : queries) {
    rows.push_back(Object({{"name", report.name},
                           {"shard", report.shard},
                           {"horizon", report.horizon},
                           {"max_tpl", report.max_tpl},
                           {"user_level_tpl", report.user_level_tpl}}));
  }
  return rows;
}

void PrintQueries(const std::vector<server::UserReport>& queries,
                  std::ostream& out) {
  for (const server::UserReport& report : queries) {
    out << "query " << report.name << ": horizon " << report.horizon
        << "  max TPL " << FormatNumber(report.max_tpl, 6) << "  user-level "
        << FormatNumber(report.user_level_tpl, 6) << "\n";
  }
}

bench::Json ServiceJson(
    server::ShardedReleaseService* service, const ServeOutcome& outcome,
    double overall_alpha, double min_alpha,
    const std::optional<net::NetServerStats>& net,
    const std::optional<replication::LogStreamStats>& repl) {
  const auto& stats = service->stats();
  bench::Json json = Object(
      {{"shards", service->num_shards()},
       {"users", service->num_users()},
       {"horizon", service->horizon()},
       {"join_requests", stats.join_requests},
       {"release_requests", stats.release_requests},
       {"ticks", stats.ticks},
       {"global_releases", stats.global_releases},
       {"elapsed_seconds", outcome.elapsed_seconds},
       {"requests_per_sec",
        PerSecond(stats.join_requests + stats.release_requests,
                  outcome.elapsed_seconds)},
       {"overall_alpha", overall_alpha},
       {"min_personalized_alpha", min_alpha},
       {"cache", Object({{"hits", stats.cache_hits},
                         {"misses", stats.cache_misses},
                         {"entries", stats.cache_entries},
                         {"distinct_matrices",
                          stats.cache_distinct_matrices}})}});
  bench::JsonArray shards;
  for (std::size_t s = 0; s < service->num_shards(); ++s) {
    const server::ShardStats shard = service->shard_stats(s);
    shards.push_back(
        Object({{"shard", s},
                {"users", shard.users},
                {"horizon", shard.horizon},
                {"wal_records", shard.wal_records},
                {"wal_physical_records", shard.wal_physical_records},
                {"wal_bytes", shard.wal_bytes},
                {"snapshots", shard.snapshots_written},
                {"compactions", shard.compactions},
                {"replayed_records", shard.replayed_records},
                {"restored_from_snapshot", shard.restored_from_snapshot},
                {"queue_depth", shard.queue_depth},
                {"queue_depth_hwm", shard.queue_depth_hwm},
                {"enqueue_blocks", shard.enqueue_blocks}}));
  }
  json.as_object().Set("shard_stats", std::move(shards));
  if (net) {
    json.as_object().Set(
        "net", Object({{"connections_accepted", net->connections_accepted},
                       {"accept_failures", net->accept_failures},
                       {"connections_dropped", net->connections_dropped},
                       {"requests", net->requests},
                       {"responses", net->responses},
                       {"bytes_in", net->bytes_in},
                       {"bytes_out", net->bytes_out},
                       {"backpressure_pauses", net->backpressure_pauses}}));
  }
  if (repl) {
    json.as_object().Set(
        "replication",
        Object({{"role", "primary"},
                {"followers", repl->followers},
                {"primary_records", repl->primary_records},
                {"subscribes", repl->subscribes},
                {"batches_sent", repl->batches_sent},
                {"records_sent", repl->records_sent},
                {"bytes_sent", repl->bytes_sent},
                {"acks_received", repl->acks_received},
                {"divergences", repl->divergences},
                {"min_acked_release_horizon",
                 repl->min_acked_release_horizon},
                {"max_lag_records", repl->max_lag_records}}));
  }
  json.as_object().Set("queries", QueriesJson(outcome.queries));
  return json;
}

Status CmdServe(const Flags& flags, std::ostream& out) {
  const bool listen = flags.Has("listen");
  if (!flags.Has("script") && !listen) {
    return Status::InvalidArgument(
        "missing required flag --script (or --listen)");
  }
#if defined(__GLIBC__)
  // Some of the server's buffers grow with the horizon, a little each
  // time: snapshot images, compaction copies, a connection's output
  // buffer. glibc's mmap threshold otherwise rises only to the largest
  // block freed so far, so each such buffer would be mapped and
  // page-faulted anew. These are the ceilings its dynamic rule moves
  // toward (the trim threshold at twice the mmap one); fixed, they keep
  // such buffers in the heap, and the heap is not trimmed back between
  // them.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  server::ShardedServiceOptions options;
  options.num_shards = flags.Size("shards");
  options.batch_window = flags.Size("batch-window");
  options.snapshot_every = flags.Size("snapshot-every");
  options.sync_every = flags.Size("sync-every");
  options.threads_per_shard = flags.Size("threads-per-shard");
  options.compaction.after_snapshot = flags.On("auto-compact");
  options.compaction.max_wal_bytes = flags.Size("compact-bytes");
  options.compaction.max_wal_records = flags.Size("compact-records");
  const std::string log_dir = flags.Str("log-dir");
  if (log_dir.empty() &&
      (options.compaction.after_snapshot ||
       options.compaction.max_wal_bytes > 0 ||
       options.compaction.max_wal_records > 0)) {
    return Status::InvalidArgument(
        "--auto-compact/--compact-bytes/--compact-records require "
        "--log-dir (compaction needs a durable WAL)");
  }
  const bool json = flags.Has("json");
  const bool repl_listen = flags.Has("repl-listen");
  if (repl_listen && (log_dir.empty() || !listen)) {
    return Status::InvalidArgument(
        "--repl-listen requires --log-dir (the WAL is the stream) and "
        "--listen (a primary serves clients and followers together)");
  }
  // Observability knobs. --no-metrics 1 turns the registry's write
  // path off process-wide (the bench A/B switch); --trace-out arms the
  // span ring, dumped on kTraceDump requests and at exit.
  obs::SetMetricsEnabled(!flags.On("no-metrics"));
  const std::string metrics_json_path = flags.Str("metrics-json");
  const std::string metrics_prom_path = flags.Str("metrics-prom");
  const std::string trace_out = flags.Str("trace-out");
  if (!trace_out.empty()) {
    obs::DefaultTrace().Start(flags.Size("trace-capacity"));
  }
  auto dump_trace = [&trace_out]() -> StatusOr<std::string> {
    TCDP_RETURN_IF_ERROR(
        WriteFileAtomic(trace_out, obs::DefaultTrace().DumpJson()));
    return trace_out;
  };

  TCDP_ASSIGN_OR_RETURN(auto service,
                        server::ShardedReleaseService::Create(log_dir,
                                                              options));

  // Active diagnostics: the watchdog scans every heartbeat (shard
  // workers, net I/O loop, metrics dumper) and, with --diag-dir set,
  // stalls and crashes leave a flight-recorder bundle behind.
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (!flags.Str("diag-dir").empty()) {
    obs::FlightRecorderOptions recorder_options;
    recorder_options.dir = flags.Str("diag-dir");
    recorder_options.keep = flags.Size("diag-keep");
    recorder_options.state_text = [raw = service.get()] {
      return raw->DiagnosticStateText();
    };
    recorder = std::make_unique<obs::FlightRecorder>(recorder_options);
    TCDP_RETURN_IF_ERROR(recorder->InstallCrashHandler());
  }
  obs::WatchdogOptions watchdog_options;
  watchdog_options.interval_ms = flags.Size("watchdog-interval-ms");
  watchdog_options.stall_ticks = flags.Size("stall-ticks");
  watchdog_options.flight_recorder = recorder.get();
  obs::Watchdog watchdog(watchdog_options);
  if (watchdog_options.interval_ms > 0) {
    TCDP_RETURN_IF_ERROR(watchdog.Start());
  }

  ServeOutcome outcome;
  if (flags.Has("script")) {
    TCDP_RETURN_IF_ERROR(
        RunScript(flags.Str("script"), service.get(), &outcome));
  }
  // Create/Recover and the preload are done: the server is ready.
  watchdog.SetReady(true);

  std::optional<net::NetServerStats> net_stats;
  std::optional<replication::LogStreamStats> repl_stats;
  if (listen) {
    net::NetServerOptions net_options;
    net_options.port = flags.Port("listen");
    net_options.host = flags.Str("host");
    if (!trace_out.empty()) net_options.on_trace_dump = dump_trace;
    net_options.watchdog = &watchdog;
#if defined(__unix__) || defined(__APPLE__)
    if (!log_dir.empty()) {
      // Extra liveness probe: the WAL directory must stay writable, or
      // every durable request is doomed even if the threads look fine.
      net_options.health_probe = [log_dir]() -> Status {
        if (::access(log_dir.c_str(), W_OK) != 0) {
          return Status::Internal("WAL directory not writable: " + log_dir);
        }
        return Status::OK();
      };
    }
#endif
    TCDP_ASSIGN_OR_RETURN(auto net_server,
                          net::NetServer::Listen(service.get(),
                                                 net_options));
    // A primary tails its own shard WALs and streams them to
    // subscribed followers on a second port (docs/REPLICATION.md). The
    // stream server is a pure file reader, so it rides alongside the
    // service without touching the request path.
    std::unique_ptr<replication::LogStreamServer> repl_server;
    std::thread repl_thread;
    Status repl_status;
    if (repl_listen) {
      replication::LogStreamOptions repl_options;
      repl_options.log_dir = log_dir;
      repl_options.host = net_options.host;
      repl_options.port = flags.Port("repl-listen");
      TCDP_ASSIGN_OR_RETURN(
          repl_server, replication::LogStreamServer::Listen(repl_options));
      TCDP_RETURN_IF_ERROR(AnnouncePort(flags, "repl-port-file",
                                        repl_server->port(),
                                        "replication stream", json, out));
      repl_thread = std::thread(
          [&repl_server, &repl_status] { repl_status = repl_server->Serve(); });
    }
    TCDP_RETURN_IF_ERROR(AnnouncePort(flags, "port-file", net_server->port(),
                                      "listening", json, out));
    WallTimer timer;
    Status serve_status;
    {
      obs::MetricsDumper dumper(metrics_json_path, metrics_prom_path,
                                flags.Size("metrics-interval-ms"));
      serve_status = net_server->Serve();
    }
    if (repl_server != nullptr) {
      // Graceful drain: flush whatever the last client batch left in
      // the micro-batch queues, then give connected followers a
      // bounded window to pull and ack it before the stream closes.
      if (serve_status.ok()) {
        const Status flushed = service->Flush();
        if (!flushed.ok()) serve_status = flushed;
        std::uint64_t on_disk = 0;
        for (std::size_t s = 0; s < service->num_shards(); ++s) {
          on_disk += service->shard_stats(s).wal_physical_records;
        }
        for (int i = 0; serve_status.ok() && i < 100; ++i) {
          const replication::LogStreamStats drain = repl_server->stats();
          const bool tailer_caught_up = drain.primary_records >= on_disk;
          if (tailer_caught_up &&
              (drain.followers == 0 || drain.max_lag_records == 0)) {
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
      // Snapshot before Stop: Stop drops the connections, and the
      // final refresh would report an empty follower set.
      repl_stats = repl_server->stats();
      repl_server->Stop();
      if (repl_thread.joinable()) repl_thread.join();
    }
    TCDP_RETURN_IF_ERROR(serve_status);
    TCDP_RETURN_IF_ERROR(repl_status);
    outcome.elapsed_seconds += timer.ElapsedSeconds();
    net_stats = net_server->stats();
    TCDP_RETURN_IF_ERROR(service->Flush());
  }
  // Final publication so a script-only run (no --listen) still leaves
  // dumps behind, and a served run's files cover the whole lifetime.
  if (!metrics_json_path.empty() || !metrics_prom_path.empty()) {
    TCDP_RETURN_IF_ERROR(
        obs::DumpMetricsFiles(metrics_json_path, metrics_prom_path));
  }
  if (!trace_out.empty()) {
    TCDP_RETURN_IF_ERROR(dump_trace().status());
  }
  TCDP_ASSIGN_OR_RETURN(auto alphas, service->PersonalizedAlphas());
  double overall = 0.0;
  double min_alpha = alphas.empty() ? 0.0 : alphas.front().second;
  for (const auto& [name, alpha] : alphas) {
    (void)name;
    overall = std::max(overall, alpha);
    min_alpha = std::min(min_alpha, alpha);
  }
  if (json) {
    out << ServiceJson(service.get(), outcome, overall, min_alpha, net_stats,
                       repl_stats)
               .Dump();
    return service->Close();
  }
  Table table({"metric", "value"});
  const auto& stats = service->stats();
  table.AddRowCells({"shards", std::to_string(service->num_shards())});
  if (net_stats) {
    table.AddRowCells({"connections accepted",
                       std::to_string(net_stats->connections_accepted)});
    table.AddRowCells({"net requests", std::to_string(net_stats->requests)});
    table.AddRowCells({"net bytes in/out",
                       std::to_string(net_stats->bytes_in) + "/" +
                           std::to_string(net_stats->bytes_out)});
    table.AddRowCells({"backpressure pauses",
                       std::to_string(net_stats->backpressure_pauses)});
    table.AddRowCells({"connections dropped (protocol)",
                       std::to_string(net_stats->connections_dropped)});
  }
  if (repl_stats) {
    table.AddRowCells({"replication role", "primary"});
    table.AddRowCells({"followers", std::to_string(repl_stats->followers)});
    table.AddRowCells({"repl records streamed",
                       std::to_string(repl_stats->records_sent) + "/" +
                           std::to_string(repl_stats->primary_records)});
    table.AddRowCells(
        {"repl acked release horizon",
         std::to_string(repl_stats->min_acked_release_horizon)});
    table.AddRowCells({"repl max follower lag",
                       std::to_string(repl_stats->max_lag_records)});
    table.AddRowCells(
        {"repl divergences", std::to_string(repl_stats->divergences)});
  }
  table.AddRowCells({"users", std::to_string(service->num_users())});
  table.AddRowCells(
      {"requests",
       std::to_string(stats.join_requests + stats.release_requests)});
  table.AddRowCells({"micro-batch ticks", std::to_string(stats.ticks)});
  table.AddRowCells(
      {"global releases", std::to_string(stats.global_releases)});
  table.AddRowCells({"loss cache hits/misses",
                     std::to_string(stats.cache_hits) + "/" +
                         std::to_string(stats.cache_misses)});
  table.AddRowCells(
      {"loss cache entries", std::to_string(stats.cache_entries)});
  table.AddRowCells({"horizon", std::to_string(service->horizon())});
  table.AddRowCells({"overall alpha (max TPL)", FormatNumber(overall, 6)});
  table.AddRowCells({"min personalized alpha", FormatNumber(min_alpha, 6)});
  table.AddRowCells(
      {"elapsed (s)", FormatNumber(outcome.elapsed_seconds, 4)});
  if (!log_dir.empty()) {
    std::uint64_t wal_bytes = 0;
    std::uint64_t snapshots = 0;
    for (std::size_t s = 0; s < service->num_shards(); ++s) {
      wal_bytes += service->shard_stats(s).wal_bytes;
      snapshots += service->shard_stats(s).snapshots_written;
    }
    table.AddRowCells({"log dir", log_dir});
    table.AddRowCells({"WAL bytes (all shards)", std::to_string(wal_bytes)});
    table.AddRowCells({"snapshots written", std::to_string(snapshots)});
  }
  out << table.ToAlignedString();
  PrintQueries(outcome.queries, out);
  return service->Close();
}

Status CmdClient(const Flags& flags, std::ostream& out) {
  const std::uint16_t port = flags.Port("port");
  const std::string host = flags.Str("host");
  net::NetClientOptions client_options;
  client_options.pipeline_depth = flags.Size("pipeline");

  TCDP_ASSIGN_OR_RETURN(
      auto client, net::NetClient::Connect(host, port, client_options));
  ServeOutcome outcome;
  TCDP_RETURN_IF_ERROR(RunScript(flags.Str("script"), client.get(), &outcome));
  TCDP_ASSIGN_OR_RETURN(auto stats, client->Stats());
  if (flags.On("shutdown")) {
    TCDP_RETURN_IF_ERROR(client->Shutdown());
  }
  const std::uint64_t requests = client->requests_sent();
  const double rps = PerSecond(requests, outcome.elapsed_seconds);
  if (flags.Has("json")) {
    bench::JsonArray shards;
    for (std::size_t s = 0; s < stats.shards.size(); ++s) {
      const net::WireShardStats& shard = stats.shards[s];
      shards.push_back(Object({{"shard", s},
                               {"users", shard.users},
                               {"horizon", shard.horizon},
                               {"wal_records", shard.wal_records},
                               {"wal_bytes", shard.wal_bytes},
                               {"snapshots", shard.snapshots_written},
                               {"queue_depth", shard.queue_depth},
                               {"enqueue_blocks", shard.enqueue_blocks}}));
    }
    out << Object({{"host", host},
                   {"port", port},
                   {"pipeline", client_options.pipeline_depth},
                   {"script_lines", outcome.script_lines},
                   {"elapsed_seconds", outcome.elapsed_seconds},
                   {"requests_sent", requests},
                   {"responses_received", client->responses_received()},
                   {"requests_per_sec", rps},
                   {"server_stats",
                    Object({{"shards", stats.num_shards},
                            {"users", stats.num_users},
                            {"horizon", stats.horizon},
                            {"join_requests", stats.join_requests},
                            {"release_requests", stats.release_requests},
                            {"ticks", stats.ticks},
                            {"global_releases", stats.global_releases},
                            {"shard_stats", std::move(shards)}})},
                   {"queries", QueriesJson(outcome.queries)}})
               .Dump();
    return client->Close();
  }
  Table table({"metric", "value"});
  table.AddRowCells({"server", host + ":" + std::to_string(port)});
  table.AddRowCells(
      {"pipeline depth", std::to_string(client_options.pipeline_depth)});
  table.AddRowCells({"script lines", std::to_string(outcome.script_lines)});
  table.AddRowCells({"requests sent", std::to_string(requests)});
  table.AddRowCells(
      {"elapsed (s)", FormatNumber(outcome.elapsed_seconds, 4)});
  table.AddRowCells({"requests/sec", FormatNumber(rps, 0)});
  table.AddRowCells({"server shards", std::to_string(stats.num_shards)});
  table.AddRowCells({"server users", std::to_string(stats.num_users)});
  table.AddRowCells({"server horizon", std::to_string(stats.horizon)});
  out << table.ToAlignedString();
  PrintQueries(outcome.queries, out);
  return client->Close();
}

/// One rates table out of a snapshot diff: counters that moved (with
/// per-second rate) and histograms that saw samples (count rate plus
/// p50/p99 of the *interval's* distribution). Shared by
/// `tcdp stats --watch` and `tcdp top`.
void PrintRateTables(const obs::MetricsDelta& delta, std::ostream& out) {
  const double seconds =
      delta.interval_seconds > 0.0 ? delta.interval_seconds : 1.0;
  Table rates({"counter", "delta", "per-sec"});
  for (const auto& [name, value] : delta.counters) {
    if (value == 0) continue;
    rates.AddRowCells(
        {name, std::to_string(value),
         FormatNumber(static_cast<double>(value) / seconds, 1)});
  }
  out << rates.ToAlignedString();
  Table latency({"histogram", "count/s", "p50", "p99"});
  for (const auto& [name, snapshot] : delta.histograms) {
    if (snapshot.count() == 0) continue;
    latency.AddRowCells(
        {name,
         FormatNumber(static_cast<double>(snapshot.count()) / seconds, 1),
         FormatNumber(snapshot.Quantile(0.5), 6),
         FormatNumber(snapshot.Quantile(0.99), 6)});
  }
  if (latency.num_rows() > 0) out << latency.ToAlignedString();
}

/// `tcdp stats`: one-shot observability scrape of a live server over
/// the wire — the typed kMetrics snapshot (counters, gauges, latency
/// histograms) plus the kStats service counters. --json emits the
/// exact MetricsJson schema (same as `serve --metrics-json` dumps), so
/// scripts/check_metrics_schema.py validates either source. --watch N
/// re-scrapes every N seconds and prints per-interval rates instead of
/// cumulative totals (--count M stops after M rate tables).
Status CmdStats(const Flags& flags, std::ostream& out) {
  const std::uint16_t port = flags.Port("port");
  const std::string host = flags.Str("host");
  const bool json = flags.Has("json");
  const std::size_t watch_seconds = flags.Size("watch");
  const std::size_t watch_count = flags.Size("count");
  if (watch_seconds > 0 && json) {
    return Status::InvalidArgument("--watch and --json are exclusive");
  }

  TCDP_ASSIGN_OR_RETURN(auto client, net::NetClient::Connect(host, port));
  TCDP_ASSIGN_OR_RETURN(obs::MetricsSnapshot metrics, client->Metrics());
  if (flags.On("trace-dump")) {
    TCDP_ASSIGN_OR_RETURN(std::string trace_path, client->TraceDump());
    if (!json) out << "trace dumped to " << trace_path << "\n";
  }
  if (watch_seconds > 0) {
    obs::MetricsSnapshot prev = std::move(metrics);
    for (std::size_t i = 0; i < watch_count; ++i) {
      std::this_thread::sleep_for(std::chrono::seconds(watch_seconds));
      TCDP_ASSIGN_OR_RETURN(obs::MetricsSnapshot cur, client->Metrics());
      const obs::MetricsDelta delta = obs::DiffMetricsSnapshots(
          prev, cur, static_cast<double>(watch_seconds));
      out << "--- interval " << (i + 1) << "/" << watch_count << " ("
          << watch_seconds << "s)\n";
      PrintRateTables(delta, out);
      out.flush();
      prev = std::move(cur);
    }
    return client->Close();
  }
  if (json) {
    out << obs::MetricsJson(metrics);
    return client->Close();
  }
  TCDP_ASSIGN_OR_RETURN(auto stats, client->Stats());
  Table table({"metric", "value"});
  table.AddRowCells({"server", host + ":" + std::to_string(port)});
  table.AddRowCells({"shards", std::to_string(stats.num_shards)});
  table.AddRowCells({"users", std::to_string(stats.num_users)});
  table.AddRowCells({"horizon", std::to_string(stats.horizon)});
  table.AddRowCells({"join requests", std::to_string(stats.join_requests)});
  table.AddRowCells(
      {"release requests", std::to_string(stats.release_requests)});
  table.AddRowCells({"ticks", std::to_string(stats.ticks)});
  table.AddRowCells(
      {"global releases", std::to_string(stats.global_releases)});
  for (const auto& [name, value] : metrics.counters) {
    table.AddRowCells({name, std::to_string(value)});
  }
  for (const auto& [name, value] : metrics.gauges) {
    table.AddRowCells({name, std::to_string(value)});
  }
  out << table.ToAlignedString();

  Table latency({"histogram", "count", "p50", "p90", "p99", "max"});
  for (const auto& [name, snapshot] : metrics.histograms) {
    latency.AddRowCells({name, std::to_string(snapshot.count()),
                         FormatNumber(snapshot.Quantile(0.5), 6),
                         FormatNumber(snapshot.Quantile(0.9), 6),
                         FormatNumber(snapshot.Quantile(0.99), 6),
                         FormatNumber(snapshot.max_observed, 6)});
  }
  out << latency.ToAlignedString();
  return client->Close();
}

/// `tcdp health`: the kHealth/kReady probe as a CLI verb. Prints the
/// watchdog's verdict and exits nonzero when the probed bit is false,
/// so scripts/CI can gate on the exit code alone.
Status CmdHealth(const Flags& flags, std::ostream& out) {
  const bool probe_ready = flags.On("ready");
  TCDP_ASSIGN_OR_RETURN(
      auto client, net::NetClient::Connect(flags.Str("host"),
                                           flags.Port("port")));
  TCDP_ASSIGN_OR_RETURN(net::WireHealthReport report,
                        probe_ready ? client->Ready() : client->Health());
  if (flags.Has("json")) {
    bench::JsonArray components;
    for (const net::WireComponentHealth& comp : report.components) {
      components.push_back(Object(
          {{"name", comp.name},
           {"kind", obs::HeartbeatKindName(
                        static_cast<obs::HeartbeatKind>(comp.kind))},
           {"stalled", comp.stalled},
           {"progress", comp.progress},
           {"pending", comp.pending},
           {"age_ns", comp.age_ns},
           {"detail", comp.detail}}));
    }
    out << Object({{"healthy", report.healthy},
                   {"ready", report.ready},
                   {"scans", report.scans},
                   {"reason", report.reason},
                   {"components", std::move(components)}})
               .Dump();
  } else {
    out << (report.healthy ? "healthy" : "UNHEALTHY") << " / "
        << (report.ready ? "ready" : "NOT READY");
    if (!report.reason.empty()) out << " — " << report.reason;
    out << " (" << report.scans << " watchdog scans)\n";
    Table table({"component", "kind", "state", "progress", "pending",
                 "age (ms)"});
    for (const net::WireComponentHealth& comp : report.components) {
      table.AddRowCells(
          {comp.name,
           obs::HeartbeatKindName(static_cast<obs::HeartbeatKind>(comp.kind)),
           comp.stalled ? "STALLED" : "ok", std::to_string(comp.progress),
           std::to_string(comp.pending),
           FormatNumber(static_cast<double>(comp.age_ns) / 1e6, 1)});
    }
    if (table.num_rows() > 0) out << table.ToAlignedString();
  }
  TCDP_RETURN_IF_ERROR(client->Close());
  const bool probed_bit = probe_ready ? report.ready : report.healthy;
  if (!probed_bit) {
    return Status::Internal(
        std::string(probe_ready ? "server not ready" : "server unhealthy") +
        (report.reason.empty() ? "" : ": " + report.reason));
  }
  return Status::OK();
}

/// One `tcdp top` frame: rates diffed from the previous scrape.
struct TopFrame {
  obs::MetricsSnapshot metrics;
  net::WireServiceStats stats;
};

void PrintTopFrame(const std::string& server, const TopFrame& prev,
                   const TopFrame& cur, double interval_seconds,
                   std::ostream& out) {
  const obs::MetricsDelta delta =
      obs::DiffMetricsSnapshots(prev.metrics, cur.metrics, interval_seconds);
  // Request throughput comes from the per-type latency histograms (the
  // interval's count), WAL throughput and cache traffic from counter
  // deltas; everything degrades to 0 when the instrument is absent.
  std::uint64_t requests = 0;
  obs::HistogramSnapshot net_latency;
  bool have_latency = false;
  for (const auto& [name, snapshot] : delta.histograms) {
    if (name.rfind("tcdp_net_request_seconds", 0) != 0) continue;
    requests += snapshot.count();
    if (!have_latency) {
      net_latency = snapshot;
      have_latency = true;
    } else {
      net_latency.Merge(snapshot);
    }
  }
  const std::uint64_t wal_bytes =
      delta.CounterSum("tcdp_wal_appended_bytes_total");
  const std::uint64_t hits = delta.CounterSum("tcdp_loss_cache_hits_total");
  const std::uint64_t misses =
      delta.CounterSum("tcdp_loss_cache_misses_total");
  const double lookups = static_cast<double>(hits + misses);

  out << "tcdp top — " << server << "  users " << cur.stats.num_users
      << "  horizon " << cur.stats.horizon << "  interval "
      << FormatNumber(interval_seconds, 1) << "s\n";
  Table table({"rate", "value"});
  table.AddRowCells(
      {"requests/s",
       FormatNumber(static_cast<double>(requests) / interval_seconds, 1)});
  table.AddRowCells(
      {"WAL bytes/s",
       FormatNumber(static_cast<double>(wal_bytes) / interval_seconds, 1)});
  table.AddRowCells(
      {"cache hit ratio",
       lookups > 0 ? FormatNumber(static_cast<double>(hits) / lookups, 3)
                   : "-"});
  if (have_latency && net_latency.count() > 0) {
    table.AddRowCells(
        {"net p50 (s)", FormatNumber(net_latency.Quantile(0.5), 6)});
    table.AddRowCells(
        {"net p99 (s)", FormatNumber(net_latency.Quantile(0.99), 6)});
  }
  out << table.ToAlignedString();

  // Per-shard queue depth bars, scaled against the deepest shard (the
  // bar answers "who is backed up relative to whom").
  std::uint64_t max_depth = 1;
  for (const net::WireShardStats& shard : cur.stats.shards) {
    max_depth = std::max(max_depth, shard.queue_depth);
  }
  for (std::size_t s = 0; s < cur.stats.shards.size(); ++s) {
    const net::WireShardStats& shard = cur.stats.shards[s];
    const std::size_t width =
        static_cast<std::size_t>(shard.queue_depth * 20 / max_depth);
    out << "  shard " << s << " [" << std::string(width, '#')
        << std::string(20 - width, ' ') << "] depth "
        << shard.queue_depth << "\n";
  }

  // Replication lag bar (primaries only — the gauges exist once a
  // --repl-listen stream server has published them). Scaled against
  // the records the primary has, so a full bar means "follower has
  // seen nothing yet".
  auto gauge = [&cur](const std::string& name,
                      std::int64_t fallback) -> std::int64_t {
    for (const auto& entry : cur.metrics.gauges) {
      if (entry.first == name) return entry.second;
    }
    return fallback;
  };
  const std::int64_t followers = gauge("tcdp_repl_followers", -1);
  if (followers >= 0) {
    const std::int64_t lag = gauge("tcdp_repl_lag_records", 0);
    const std::int64_t acked = gauge("tcdp_repl_min_acked_horizon", 0);
    const std::int64_t streamed = gauge("tcdp_repl_primary_records", 0);
    std::uint64_t diverged = 0;
    for (const auto& entry : cur.metrics.counters) {
      if (entry.first == "tcdp_repl_divergences_total") {
        diverged = entry.second;
      }
    }
    const std::int64_t scale = std::max<std::int64_t>(
        std::int64_t{1}, std::max(streamed, lag));
    const std::size_t width = static_cast<std::size_t>(
        std::min<std::int64_t>(20, lag * 20 / scale));
    out << "  repl    [" << std::string(width, '#')
        << std::string(20 - width, ' ') << "] lag " << lag
        << " rec, " << followers << " follower"
        << (followers == 1 ? "" : "s") << ", acked horizon " << acked
        << (diverged != 0 ? "  DIVERGED" : "") << "\n";
  }
}

/// `tcdp top`: live terminal dashboard over kMetrics + kStats. On a
/// TTY it refreshes in place until interrupted (or --count frames);
/// piped/redirected it degrades to a single rate table so scripts and
/// tests get deterministic output.
Status CmdTop(const Flags& flags, std::ostream& out) {
  const std::uint16_t port = flags.Port("port");
  const std::string host = flags.Str("host");
  const std::size_t interval_ms = flags.Size("interval-ms");
  bool tty = false;
#if defined(__unix__) || defined(__APPLE__)
  tty = ::isatty(STDOUT_FILENO) != 0;
#endif
  // Without --count a TTY refreshes until interrupted; a pipe gets one
  // frame.
  const std::size_t count =
      flags.Has("count") ? flags.Size("count") : (tty ? 0 : 1);

  TCDP_ASSIGN_OR_RETURN(auto client, net::NetClient::Connect(host, port));
  const std::string server = host + ":" + std::to_string(port);
  TopFrame prev;
  TCDP_ASSIGN_OR_RETURN(prev.metrics, client->Metrics());
  TCDP_ASSIGN_OR_RETURN(prev.stats, client->Stats());
  const double interval_seconds =
      static_cast<double>(interval_ms) / 1000.0;
  for (std::size_t frame = 0; count == 0 || frame < count; ++frame) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    TopFrame cur;
    TCDP_ASSIGN_OR_RETURN(cur.metrics, client->Metrics());
    TCDP_ASSIGN_OR_RETURN(cur.stats, client->Stats());
    if (tty) out << "\x1b[H\x1b[2J";  // home + clear: refresh in place
    PrintTopFrame(server, prev, cur, interval_seconds, out);
    out.flush();
    prev = std::move(cur);
  }
  return client->Close();
}

Status CmdReplay(const Flags& flags, std::ostream& out) {
  const std::string log_dir = flags.Str("log-dir");
  const bool verify = flags.On("verify");
  WallTimer timer;
  TCDP_ASSIGN_OR_RETURN(auto service,
                        server::ShardedReleaseService::Recover(log_dir));
  const double recover_seconds = timer.ElapsedSeconds();

  std::size_t verified_users = 0;
  std::size_t verify_failures = 0;
  TCDP_ASSIGN_OR_RETURN(auto alphas, service->PersonalizedAlphas());
  if (verify) {
    // Every user's exported accountant blob, replayed standalone, must
    // reproduce the recovered series bitwise — the serialization hooks
    // are the contract the snapshots are built on.
    for (const auto& [name, alpha] : alphas) {
      TCDP_ASSIGN_OR_RETURN(auto report, service->Query(name));
      TCDP_ASSIGN_OR_RETURN(std::string blob, service->ExportUser(name));
      auto reference = TplAccountant::Deserialize(blob);
      if (!reference.ok()) {
        ++verify_failures;
        continue;
      }
      const bool ok = reference->TplSeries() == report.tpl_series &&
                      reference->MaxTpl() == alpha;
      verified_users += ok ? 1 : 0;
      verify_failures += ok ? 0 : 1;
    }
  }
  double overall = 0.0;
  for (const auto& [name, alpha] : alphas) {
    (void)name;
    overall = std::max(overall, alpha);
  }
  if (flags.Has("json")) {
    bench::JsonArray shards;
    for (std::size_t s = 0; s < service->num_shards(); ++s) {
      const server::ShardStats shard = service->shard_stats(s);
      shards.push_back(
          Object({{"shard", s},
                  {"users", shard.users},
                  {"horizon", shard.horizon},
                  {"replayed_records", shard.replayed_records},
                  {"restored_from_snapshot", shard.restored_from_snapshot}}));
    }
    out << Object({{"log_dir", log_dir},
                   {"shards", service->num_shards()},
                   {"users", service->num_users()},
                   {"horizon", service->horizon()},
                   {"recover_seconds", recover_seconds},
                   {"overall_alpha", overall},
                   {"verified", verify},
                   {"verified_users", verified_users},
                   {"verify_failures", verify_failures},
                   {"shard_stats", std::move(shards)}})
               .Dump();
  } else {
    out << "recovered " << service->num_users() << " users across "
        << service->num_shards() << " shards at horizon "
        << service->horizon() << " in "
        << FormatNumber(recover_seconds, 4) << "s\n";
    for (std::size_t s = 0; s < service->num_shards(); ++s) {
      const server::ShardStats shard = service->shard_stats(s);
      out << "  shard " << s << ": " << shard.users << " users, "
          << shard.replayed_records << " WAL records replayed"
          << (shard.restored_from_snapshot ? " after snapshot restore"
                                           : "")
          << "\n";
    }
    out << "overall alpha (max TPL): " << FormatNumber(overall, 6) << "\n";
    if (verify) {
      out << "verification: " << verified_users << " users bitwise-equal, "
          << verify_failures << " failures\n";
    }
  }
  const Status closed = service->Close();
  if (verify && verify_failures > 0) {
    return Status::Internal(
        "replay verification failed for " +
        std::to_string(verify_failures) + " users");
  }
  return closed;
}

Status CmdCompact(const Flags& flags, std::ostream& out) {
  const std::string log_dir = flags.Str("log-dir");
  TCDP_ASSIGN_OR_RETURN(auto service,
                        server::ShardedReleaseService::Recover(log_dir));
  auto measure = [&service] {
    std::vector<server::ShardStats> shards;
    for (std::size_t s = 0; s < service->num_shards(); ++s) {
      shards.push_back(service->shard_stats(s));
    }
    return shards;
  };
  const std::vector<server::ShardStats> before = measure();
  WallTimer timer;
  TCDP_RETURN_IF_ERROR(service->Compact());
  const double compact_seconds = timer.ElapsedSeconds();
  const std::vector<server::ShardStats> after = measure();
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_after = 0;
  for (std::size_t s = 0; s < before.size(); ++s) {
    bytes_before += before[s].wal_bytes;
    bytes_after += after[s].wal_bytes;
  }
  if (flags.Has("json")) {
    bench::JsonArray shards;
    for (std::size_t s = 0; s < service->num_shards(); ++s) {
      shards.push_back(
          Object({{"shard", s},
                  {"wal_bytes_before", before[s].wal_bytes},
                  {"wal_bytes_after", after[s].wal_bytes},
                  {"physical_records_before", before[s].wal_physical_records},
                  {"physical_records_after", after[s].wal_physical_records},
                  {"logical_records", after[s].wal_records}}));
    }
    out << Object({{"log_dir", log_dir},
                   {"shards", service->num_shards()},
                   {"users", service->num_users()},
                   {"horizon", service->horizon()},
                   {"compact_seconds", compact_seconds},
                   {"wal_bytes_before", bytes_before},
                   {"wal_bytes_after", bytes_after},
                   {"shard_stats", std::move(shards)}})
               .Dump();
  } else {
    out << "compacted " << service->num_shards() << " shard WALs in "
        << FormatNumber(compact_seconds, 4) << "s: " << bytes_before
        << " -> " << bytes_after << " bytes\n";
    for (std::size_t s = 0; s < service->num_shards(); ++s) {
      out << "  shard " << s << ": " << before[s].wal_bytes << " -> "
          << after[s].wal_bytes << " bytes, "
          << before[s].wal_physical_records << " -> "
          << after[s].wal_physical_records << " records on disk ("
          << after[s].wal_records
          << " logical records preserved via the snapshot)\n";
    }
  }
  return service->Close();
}

/// `tcdp follow`: run a replica of a primary's WAL stream. The process
/// follows until the stream ends — with --reconnect 0 that means the
/// primary died (or Stop), and --promote 1 then turns the replica into
/// a serving primary through the crash-recovery path (the failover
/// drill in README.md). Exits nonzero on divergence.
Status CmdFollow(const Flags& flags, std::ostream& out) {
  replication::FollowerOptions options;
  options.primary_port = flags.Port("primary-port");
  options.primary_host = flags.Str("primary-host");
  options.log_dir = flags.Str("log-dir");
  const bool promote = flags.On("promote");
  // Without --reconnect, a promoting follower wants the stream to *end*
  // when the primary dies; a standing replica wants to ride out
  // restarts.
  options.reconnect =
      flags.Has("reconnect") ? flags.On("reconnect") : !promote;
  const bool json = flags.Has("json");

  const std::string primary = options.primary_host + ":" +
                              std::to_string(options.primary_port);
  TCDP_ASSIGN_OR_RETURN(auto follower,
                        replication::Follower::Open(std::move(options)));
  TCDP_RETURN_IF_ERROR(follower->Start());
  if (!json) {
    out << "following " << primary << " into " << flags.Str("log-dir")
        << "\n";
    out.flush();
  }
  while (follower->status().running) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const replication::FollowerStatus status = follower->status();

  std::unique_ptr<server::ShardedReleaseService> promoted;
  double promote_seconds = 0.0;
  if (promote && !status.diverged) {
    WallTimer timer;
    TCDP_ASSIGN_OR_RETURN(promoted, follower->Promote());
    promote_seconds = timer.ElapsedSeconds();
  } else {
    follower->Stop();
  }

  if (json) {
    bench::Json report = Object({{"diverged", status.diverged},
                                 {"num_shards", status.num_shards},
                                 {"release_horizon", status.release_horizon},
                                 {"batches_applied", status.batches_applied},
                                 {"records_applied", status.records_applied},
                                 {"acks_sent", status.acks_sent},
                                 {"reconnects", status.reconnects},
                                 {"promoted", promoted != nullptr},
                                 {"promote_seconds", promote_seconds}});
    if (promoted != nullptr) {
      report.as_object().Set("users", promoted->num_users());
      report.as_object().Set("horizon", promoted->horizon());
    }
    out << report.Dump();
  } else {
    Table table({"metric", "value"});
    table.AddRowCells({"diverged", status.diverged ? "YES" : "no"});
    table.AddRowCells({"shards", std::to_string(status.num_shards)});
    table.AddRowCells(
        {"records applied", std::to_string(status.records_applied)});
    table.AddRowCells(
        {"batches applied", std::to_string(status.batches_applied)});
    table.AddRowCells(
        {"acked release horizon", std::to_string(status.release_horizon)});
    table.AddRowCells({"acks sent", std::to_string(status.acks_sent)});
    table.AddRowCells({"reconnects", std::to_string(status.reconnects)});
    if (promoted != nullptr) {
      table.AddRowCells(
          {"promoted", "yes (" + FormatNumber(promote_seconds, 4) + "s)"});
      table.AddRowCells({"users", std::to_string(promoted->num_users())});
      table.AddRowCells({"horizon", std::to_string(promoted->horizon())});
    }
    out << table.ToAlignedString();
  }

  // The drill's last act: the promoted replica starts serving clients.
  if (promoted != nullptr && flags.Has("listen")) {
    net::NetServerOptions net_options;
    net_options.port = flags.Port("listen");
    net_options.host = flags.Str("host");
    TCDP_ASSIGN_OR_RETURN(
        auto net_server, net::NetServer::Listen(promoted.get(), net_options));
    TCDP_RETURN_IF_ERROR(AnnouncePort(flags, "port-file", net_server->port(),
                                      "promoted primary listening", json,
                                      out));
    TCDP_RETURN_IF_ERROR(net_server->Serve());
    TCDP_RETURN_IF_ERROR(promoted->Flush());
  }
  if (promoted != nullptr) {
    TCDP_RETURN_IF_ERROR(promoted->Close());
  }
  if (status.diverged) {
    return Status::FailedPrecondition(
        "replica diverged from the primary: " +
        status.last_error.message());
  }
  return Status::OK();
}

/// `tcdp route`: operate the user -> shard-server placement table.
/// Verbs are flags and run in a fixed order (add, remove, migrate,
/// clear, lookup, endpoints, distribution, serve); each journals
/// before it applies when --journal is set.
Status CmdRoute(const Flags& flags, std::ostream& out) {
  // Every check comes before Open: each verb journals as it runs.
  if (flags.Has("migrate") && !flags.Has("to")) {
    return Status::InvalidArgument("--migrate requires --to ENDPOINT");
  }
  TCDP_ASSIGN_OR_RETURN(
      auto table, replication::RouterTable::Open(
                      flags.Str("journal"), flags.Size("virtual-nodes")));
  if (flags.Has("add")) {
    TCDP_RETURN_IF_ERROR(table->AddEndpoint(flags.Str("add")));
    out << "added " << flags.Str("add") << "\n";
  }
  if (flags.Has("remove")) {
    TCDP_RETURN_IF_ERROR(table->RemoveEndpoint(flags.Str("remove")));
    out << "removed " << flags.Str("remove") << "\n";
  }
  if (flags.Has("migrate")) {
    TCDP_RETURN_IF_ERROR(
        table->MigrateUser(flags.Str("migrate"), flags.Str("to")));
    out << "pinned " << flags.Str("migrate") << " -> " << flags.Str("to")
        << "\n";
  }
  if (flags.Has("clear")) {
    TCDP_RETURN_IF_ERROR(table->MigrateUser(flags.Str("clear"), ""));
    out << "cleared pin for " << flags.Str("clear") << "\n";
  }
  if (flags.Has("lookup")) {
    TCDP_ASSIGN_OR_RETURN(std::string endpoint,
                          table->Lookup(flags.Str("lookup")));
    out << flags.Str("lookup") << " -> " << endpoint << "\n";
  }
  if (flags.On("endpoints")) {
    const replication::RouterTableStats stats = table->stats();
    out << stats.endpoints << " endpoints, " << stats.pins << " pins, "
        << stats.journal_records << " journal records\n";
    for (const std::string& endpoint : table->endpoints()) {
      out << "  " << endpoint << "\n";
    }
  }
  if (flags.Has("distribution")) {
    // Synthesize N users and count placements per endpoint: run it
    // before and after an --add to see that only ~1/N of them moved.
    const std::size_t users = flags.Size("distribution");
    std::map<std::string, std::size_t> counts;
    for (std::size_t i = 0; i < users; ++i) {
      TCDP_ASSIGN_OR_RETURN(std::string endpoint,
                            table->Lookup("user-" + std::to_string(i)));
      ++counts[endpoint];
    }
    Table dist({"endpoint", "users", "fraction"});
    for (const auto& [endpoint, count] : counts) {
      dist.AddRowCells({endpoint, std::to_string(count),
                        FormatNumber(static_cast<double>(count) /
                                         static_cast<double>(users),
                                     3)});
    }
    out << dist.ToAlignedString();
  }
  if (flags.Has("serve")) {
    replication::RouterServerOptions server_options;
    server_options.port = flags.Port("serve");
    server_options.host = flags.Str("host");
    TCDP_ASSIGN_OR_RETURN(
        auto server,
        replication::RouterServer::Listen(table.get(), server_options));
    TCDP_RETURN_IF_ERROR(AnnouncePort(flags, "port-file", server->port(),
                                      "router listening", false, out));
    TCDP_RETURN_IF_ERROR(server->Serve());
  }
  return Status::OK();
}

Status CmdBench(const Flags& flags, std::ostream& out) {
  bench::RunOptions options;
  options.smoke = flags.On("smoke");
  options.repetitions = flags.Size("reps");
  const std::string compare_path = flags.Str("compare");
  const std::string json_path = flags.Str("json");

  bench::Harness harness;
  bench::RegisterAllSuites(&harness);
  if (flags.On("list")) {
    Table table({"suite", "description"});
    for (const std::string& name : harness.SuiteNames()) {
      table.AddRowCells({name, harness.FindSpec(name)->description});
    }
    out << table.ToAlignedString();
    return Status::OK();
  }

  TCDP_ASSIGN_OR_RETURN(const bench::BenchReport report,
                        harness.Run(options, Split(flags.Str("suite"), ","),
                                    out));
  if (!json_path.empty()) {
    const bench::Json json = bench::ReportToJson(report);
    TCDP_RETURN_IF_ERROR(bench::ValidateReportJson(json));
    TCDP_RETURN_IF_ERROR(WriteFileAtomic(json_path, json.Dump()));
    out << "wrote " << json_path << "\n";
  }

  Status result = Status::OK();
  if (!report.AllGatesPassed()) {
    result = Status::Internal("acceptance gate failure (see report above)");
  }
  if (!compare_path.empty()) {
    TCDP_ASSIGN_OR_RETURN(const std::string baseline_text,
                          ReadFileWhole(compare_path));
    TCDP_ASSIGN_OR_RETURN(const bench::Json parsed,
                          bench::Json::Parse(baseline_text));
    TCDP_ASSIGN_OR_RETURN(const bench::BenchReport baseline,
                          bench::ReportFromJson(parsed));
    bench::CompareOptions compare_options;
    compare_options.default_noise_frac = flags.Double("noise");
    const bench::CompareResult diff =
        bench::CompareReports(report, baseline, compare_options);
    out << "\n=== baseline comparison (" << compare_path << ")\n"
        << diff.report;
    if (!diff.ok && result.ok()) {
      result = Status::Internal(
          "regression against baseline (see comparison above)");
    }
  }
  return result;
}

/// The one place a verb's flags are declared: ParseFlags converts and
/// checks against it, and HelpText prints it.
const std::vector<Command>& Commands() {
  using K = Kind;
  constexpr FlagDef matrix = {"matrix", K::kString, nullptr, "M.csv"};
  constexpr FlagDef backward = {"backward", K::kString, nullptr, "B.csv"};
  constexpr FlagDef forward = {"forward", K::kString, nullptr, "F.csv"};
  constexpr FlagDef json = {"json", K::kChoice, nullptr, "-"};
  constexpr FlagDef host = {"host", K::kString, "127.0.0.1", "H"};
  constexpr FlagDef port = {"port", K::kPort, kRequired, "PORT"};
  constexpr FlagDef port_file = {"port-file", K::kString, nullptr, "P"};
  static const std::vector<Command> commands = {
      {"quantify",
       CmdQuantify,
       "BPL/FPL/TPL timeline of a release sequence (Eq. 13/15)",
       {matrix,
        backward,
        forward,
        {"epsilon", K::kPositive, nullptr, "E"},
        {"horizon", K::kCount, nullptr, "T"},
        {"schedule", K::kPositiveList, nullptr, "e1,e2,..."}}},
      {"supremum",
       CmdSupremum,
       "Theorem 5 leakage supremum under a uniform budget",
       {matrix, backward, forward, {"epsilon", K::kPositive, kRequired, "E"}}},
      {"allocate",
       CmdAllocate,
       "alpha-DP_T budget schedule (Algorithms 2/3) with its audit",
       {matrix,
        backward,
        forward,
        {"alpha", K::kPositive, kRequired, "A"},
        {"horizon", K::kSize, kRequired, "T"},
        {"strategy", K::kChoice, "quantified",
         "quantified|upper-bound|group"}}},
      {"estimate",
       CmdEstimate,
       "correlation MLE from trajectories (--states 0 infers n)",
       {{"trajectories", K::kString, kRequired, "T.csv"},
        {"states", K::kSize, "0", "n"},
        {"order", K::kCount, "1", "k"},
        {"smoothing", K::kNonNegative, nullptr, "s"},
        {"out", K::kString, nullptr, "F.csv"},
        {"backward-out", K::kString, nullptr, "B.csv"}}},
      {"fleet",
       CmdFleet,
       "synthetic clickstream fleet through the accountant bank",
       {{"users", K::kCount, "1000", "N"},
        {"horizon", K::kCount, "20", "T"},
        {"epsilon", K::kPositive, "0.1", "E"},
        {"pages", K::kSize, "16", "n"},
        {"groups", K::kCount, "4", "g"},
        {"threads", K::kSize, "0", "k"},
        {"cache", K::kChoice, "on", "on|off"},
        {"sparsity", K::kFraction, "0", "s"},
        {"seed", K::kSize, "42", "r"},
        json}},
      {"serve",
       CmdServe,
       "sharded release service: script, durable WALs, wire protocol",
       {{"script", K::kString, nullptr, "S.txt"},
        {"log-dir", K::kString, nullptr, "D"},
        {"shards", K::kCount, "2", "N"},
        {"batch-window", K::kCount, "16", "W"},
        {"snapshot-every", K::kSize, "0", "K"},
        {"sync-every", K::kSize, "0", "Y"},
        {"auto-compact", K::kBool, "0", "0|1"},
        {"compact-bytes", K::kSize, "0", "B"},
        {"compact-records", K::kSize, "0", "R"},
        {"threads-per-shard", K::kSize, "1", "K"},
        {"listen", K::kPortOrZero, nullptr, "PORT"},
        host,
        port_file,
        json,
        {"repl-listen", K::kPortOrZero, nullptr, "PORT"},
        {"repl-port-file", K::kString, nullptr, "P"},
        {"no-metrics", K::kBool, "0", "0|1"},
        {"metrics-json", K::kString, nullptr, "F"},
        {"metrics-prom", K::kString, nullptr, "F"},
        {"metrics-interval-ms", K::kSize, "1000", "MS"},
        {"trace-out", K::kString, nullptr, "F"},
        {"trace-capacity", K::kSize, "8192", "N"},
        {"watchdog-interval-ms", K::kSize, "1000", "MS"},
        {"stall-ticks", K::kSize, "3", "N"},
        {"diag-dir", K::kString, nullptr, "D"},
        {"diag-keep", K::kSize, "8", "K"}}},
      {"follow",
       CmdFollow,
       "replica of a --repl-listen stream; --promote 1 fails over",
       {{"primary-port", K::kPort, kRequired, "PORT"},
        {"primary-host", K::kString, "127.0.0.1", "H"},
        {"log-dir", K::kString, kRequired, "D"},
        {"reconnect", K::kBool, nullptr, "0|1"},
        {"promote", K::kBool, "0", "0|1"},
        {"listen", K::kPortOrZero, nullptr, "PORT"},
        port_file,
        host,
        json}},
      {"route",
       CmdRoute,
       "user -> server placement; the flags run in the order listed",
       {{"journal", K::kString, nullptr, "F"},
        {"virtual-nodes", K::kSize, "64", "N"},
        {"add", K::kString, nullptr, "H:P"},
        {"remove", K::kString, nullptr, "H:P"},
        {"migrate", K::kString, nullptr, "U"},
        {"to", K::kString, nullptr, "H:P"},
        {"clear", K::kString, nullptr, "U"},
        {"lookup", K::kString, nullptr, "U"},
        {"endpoints", K::kBool, "0", "0|1"},
        {"distribution", K::kSize, nullptr, "N"},
        {"serve", K::kPortOrZero, nullptr, "PORT"},
        port_file,
        host}},
      {"client",
       CmdClient,
       "replay a serve script against a server over the wire",
       {port,
        {"script", K::kString, kRequired, "S.txt"},
        host,
        {"pipeline", K::kSize, "8", "N"},
        {"shutdown", K::kBool, "0", "0|1"},
        json}},
      {"stats",
       CmdStats,
       "scrape a live server's metrics (--watch N: rates every N s)",
       {port,
        host,
        json,
        {"trace-dump", K::kBool, "0", "0|1"},
        {"watch", K::kSize, "0", "N"},
        {"count", K::kSize, "3", "M"}}},
      {"health",
       CmdHealth,
       "probe a server's watchdog verdict; exits nonzero if false",
       {port, host, {"ready", K::kBool, "0", "0|1"}, json}},
      {"top",
       CmdTop,
       "live dashboard; without --count it refreshes only on a TTY",
       {port,
        host,
        {"interval-ms", K::kCount, "1000", "MS"},
        {"count", K::kSize, nullptr, "M"}}},
      {"replay",
       CmdReplay,
       "recover a log dir; --verify 1 checks every user bitwise",
       {{"log-dir", K::kString, kRequired, "D"},
        {"verify", K::kBool, "0", "0|1"},
        json}},
      {"compact",
       CmdCompact,
       "recover a log dir and rewrite each WAL to anchor + suffix",
       {{"log-dir", K::kString, kRequired, "D"}, json}},
      {"bench",
       CmdBench,
       "benchmark suites, gates and a diff against a baseline",
       {{"suite", K::kString, nullptr, "a,b"},
        {"smoke", K::kSwitch, nullptr, ""},
        {"list", K::kSwitch, nullptr, ""},
        {"json", K::kString, nullptr, "out.json"},
        {"compare", K::kString, nullptr, "baseline.json"},
        {"reps", K::kSize, "0", "N"},
        {"noise", K::kNonNegative, "0.15", "F"}}},
  };
  return commands;
}

/// Help lines: the usage column and the line width.
constexpr std::size_t kHelpIndent = 13;
constexpr std::size_t kHelpWidth = 76;

/// `--name META` if required, else `[--name META=default]`.
std::string Usage(const FlagDef& flag) {
  std::string usage = std::string("--") + flag.name;
  if (flag.kind != Kind::kSwitch) usage += std::string(" ") + flag.metavar;
  if (flag.fallback == kRequired) return usage;
  if (flag.fallback != nullptr) usage += std::string("=") + flag.fallback;
  return "[" + usage + "]";
}

}  // namespace

std::string HelpText() {
  std::string text =
      "tcdp — temporal-correlation-aware differential privacy toolkit\n"
      "\n"
      "usage: tcdp <command> [--flag value]...\n"
      "Each command accepts only the flags listed for it, each at most\n"
      "once, and checks every value before it starts; a 0|1 flag takes\n"
      "only 0 or 1. [--flag V=D] defaults to D.\n"
      "\n"
      "commands:\n";
  for (const Command& command : Commands()) {
    std::string line = "  " + std::string(command.name);
    line.resize(kHelpIndent, ' ');
    text += line + command.summary + "\n";
    line = std::string(kHelpIndent, ' ');
    for (const FlagDef& flag : command.flags) {
      const std::string usage = Usage(flag);
      if (line.size() > kHelpIndent &&
          line.size() + 1 + usage.size() > kHelpWidth) {
        text += line + "\n";
        line = std::string(kHelpIndent, ' ');
      }
      line += (line.size() > kHelpIndent ? " " : "") + usage;
    }
    text += line + "\n";
  }
  return text +
         "  help       this text\n"
         "\n"
         "file formats: matrices are one row per line (comma/space\n"
         "separated probabilities); trajectories are one user per line\n"
         "(state indices). Lines starting with '#' are comments.\n";
}

Status Run(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << HelpText();
    return Status::OK();
  }
  for (const Command& command : Commands()) {
    if (args[0] != command.name) continue;
    TCDP_ASSIGN_OR_RETURN(const Flags flags, ParseFlags(args, command));
    return command.run(flags, out);
  }
  return Status::InvalidArgument("unknown command '" + args[0] +
                                 "'; see `tcdp help`");
}

}  // namespace cli
}  // namespace tcdp
