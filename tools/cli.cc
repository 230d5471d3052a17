#include "tools/cli.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "bench/compare.h"
#include "bench/harness.h"
#include "bench/report.h"
#include "common/random.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/accountant_bank.h"
#include "core/budget_allocation.h"
#include "core/supremum.h"
#include "core/tpl_accountant.h"
#include "kernels/kernels.h"
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

using Flags = std::map<std::string, std::string>;

StatusOr<Flags> ParseFlags(const std::vector<std::string>& args,
                           std::size_t start) {
  Flags flags;
  for (std::size_t i = start; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("expected a --flag, got '" + arg + "'");
    }
    if (i + 1 >= args.size()) {
      return Status::InvalidArgument("flag '" + arg + "' is missing a value");
    }
    flags[arg.substr(2)] = args[++i];
  }
  return flags;
}

StatusOr<double> FlagAsDouble(const Flags& flags, const std::string& name) {
  auto it = flags.find(name);
  if (it == flags.end()) {
    return Status::InvalidArgument("missing required flag --" + name);
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("flag --" + name +
                                   ": cannot parse number '" + it->second +
                                   "'");
  }
  return v;
}

StatusOr<std::size_t> FlagAsSize(const Flags& flags, const std::string& name,
                                 std::optional<std::size_t> fallback = {}) {
  auto it = flags.find(name);
  if (it == flags.end()) {
    if (fallback.has_value()) return *fallback;
    return Status::InvalidArgument("missing required flag --" + name);
  }
  TCDP_ASSIGN_OR_RETURN(double v, FlagAsDouble(flags, name));
  if (v < 0 || v != static_cast<double>(static_cast<std::size_t>(v))) {
    return Status::InvalidArgument("flag --" + name +
                                   " must be a non-negative integer");
  }
  return static_cast<std::size_t>(v);
}

/// Loads the correlation pair from --matrix (both directions) or the
/// explicit --backward / --forward flags.
StatusOr<TemporalCorrelations> LoadCorrelations(const Flags& flags) {
  const bool has_matrix = flags.count("matrix") > 0;
  const bool has_backward = flags.count("backward") > 0;
  const bool has_forward = flags.count("forward") > 0;
  if (has_matrix && (has_backward || has_forward)) {
    return Status::InvalidArgument(
        "--matrix is exclusive with --backward/--forward");
  }
  if (has_matrix) {
    TCDP_ASSIGN_OR_RETURN(auto m,
                          LoadStochasticMatrix(flags.at("matrix")));
    return TemporalCorrelations::Both(m, m);
  }
  if (has_backward && has_forward) {
    TCDP_ASSIGN_OR_RETURN(auto b,
                          LoadStochasticMatrix(flags.at("backward")));
    TCDP_ASSIGN_OR_RETURN(auto f,
                          LoadStochasticMatrix(flags.at("forward")));
    return TemporalCorrelations::Both(std::move(b), std::move(f));
  }
  if (has_backward) {
    TCDP_ASSIGN_OR_RETURN(auto b,
                          LoadStochasticMatrix(flags.at("backward")));
    return TemporalCorrelations::BackwardOnly(std::move(b));
  }
  if (has_forward) {
    TCDP_ASSIGN_OR_RETURN(auto f,
                          LoadStochasticMatrix(flags.at("forward")));
    return TemporalCorrelations::ForwardOnly(std::move(f));
  }
  return Status::InvalidArgument(
      "provide --matrix, or --backward and/or --forward");
}

StatusOr<std::vector<double>> ParseScheduleFlag(const std::string& text) {
  std::vector<double> schedule;
  std::string field;
  auto flush = [&]() -> Status {
    if (field.empty()) return Status::OK();
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(field.c_str(), &end);
    if (end == field.c_str() || *end != '\0' || errno == ERANGE) {
      return Status::InvalidArgument("--schedule: bad number '" + field +
                                     "'");
    }
    schedule.push_back(v);
    field.clear();
    return Status::OK();
  };
  for (char ch : text) {
    if (ch == ',' || ch == ' ') {
      TCDP_RETURN_IF_ERROR(flush());
    } else {
      field.push_back(ch);
    }
  }
  TCDP_RETURN_IF_ERROR(flush());
  if (schedule.empty()) {
    return Status::InvalidArgument("--schedule: no values");
  }
  return schedule;
}

Status CmdQuantify(const Flags& flags, std::ostream& out) {
  TCDP_ASSIGN_OR_RETURN(auto corr, LoadCorrelations(flags));
  std::vector<double> schedule;
  if (flags.count("schedule") > 0) {
    TCDP_ASSIGN_OR_RETURN(schedule, ParseScheduleFlag(flags.at("schedule")));
  } else {
    TCDP_ASSIGN_OR_RETURN(double eps, FlagAsDouble(flags, "epsilon"));
    TCDP_ASSIGN_OR_RETURN(std::size_t horizon,
                          FlagAsSize(flags, "horizon"));
    if (horizon == 0) {
      return Status::InvalidArgument("--horizon must be >= 1");
    }
    schedule.assign(horizon, eps);
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
  TCDP_ASSIGN_OR_RETURN(double eps, FlagAsDouble(flags, "epsilon"));
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
  TCDP_ASSIGN_OR_RETURN(double alpha, FlagAsDouble(flags, "alpha"));
  TCDP_ASSIGN_OR_RETURN(std::size_t horizon, FlagAsSize(flags, "horizon"));
  std::string strategy = "quantified";
  if (flags.count("strategy") > 0) strategy = flags.at("strategy");

  TCDP_ASSIGN_OR_RETURN(auto alloc, BudgetAllocator::Create(corr, alpha));
  std::vector<double> schedule;
  if (strategy == "quantified") {
    TCDP_ASSIGN_OR_RETURN(schedule, alloc.QuantifiedSchedule(horizon));
  } else if (strategy == "upper-bound") {
    schedule = alloc.UpperBoundSchedule(horizon);
  } else if (strategy == "group") {
    schedule = GroupDpSchedule(alpha, horizon);
  } else {
    return Status::InvalidArgument(
        "--strategy must be quantified, upper-bound or group");
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
  auto it = flags.find("trajectories");
  if (it == flags.end()) {
    return Status::InvalidArgument("missing required flag --trajectories");
  }
  TCDP_ASSIGN_OR_RETURN(std::size_t states,
                        FlagAsSize(flags, "states", std::size_t{0}));
  TCDP_ASSIGN_OR_RETURN(auto trajectories,
                        LoadTrajectories(it->second, states));
  if (states == 0) {
    for (const auto& traj : trajectories) {
      for (std::size_t s : traj) states = std::max(states, s + 1);
    }
  }
  TCDP_ASSIGN_OR_RETURN(std::size_t order,
                        FlagAsSize(flags, "order", std::size_t{1}));
  EstimationOptions options;
  if (flags.count("smoothing") > 0) {
    TCDP_ASSIGN_OR_RETURN(options.additive_smoothing,
                          FlagAsDouble(flags, "smoothing"));
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
  if (flags.count("out") > 0) {
    TCDP_RETURN_IF_ERROR(SaveStochasticMatrix(forward, flags.at("out")));
    out << "forward matrix written to " << flags.at("out") << "\n";
  } else {
    out << SerializeStochasticMatrix(forward);
  }
  if (flags.count("backward-out") > 0) {
    TCDP_ASSIGN_OR_RETURN(
        auto backward,
        EstimateBackwardTransition(trajectories, states, options));
    TCDP_RETURN_IF_ERROR(
        SaveStochasticMatrix(backward, flags.at("backward-out")));
    out << "backward matrix written to " << flags.at("backward-out") << "\n";
  }
  return Status::OK();
}

Status CmdFleet(const Flags& flags, std::ostream& out) {
  TCDP_ASSIGN_OR_RETURN(std::size_t users,
                        FlagAsSize(flags, "users", std::size_t{1000}));
  TCDP_ASSIGN_OR_RETURN(std::size_t horizon,
                        FlagAsSize(flags, "horizon", std::size_t{20}));
  TCDP_ASSIGN_OR_RETURN(std::size_t pages,
                        FlagAsSize(flags, "pages", std::size_t{16}));
  TCDP_ASSIGN_OR_RETURN(std::size_t groups,
                        FlagAsSize(flags, "groups", std::size_t{4}));
  TCDP_ASSIGN_OR_RETURN(std::size_t threads,
                        FlagAsSize(flags, "threads", std::size_t{0}));
  TCDP_ASSIGN_OR_RETURN(std::size_t seed,
                        FlagAsSize(flags, "seed", std::size_t{42}));
  double epsilon = 0.1;
  if (flags.count("epsilon") > 0) {
    TCDP_ASSIGN_OR_RETURN(epsilon, FlagAsDouble(flags, "epsilon"));
  }
  double sparsity = 0.0;
  if (flags.count("sparsity") > 0) {
    TCDP_ASSIGN_OR_RETURN(sparsity, FlagAsDouble(flags, "sparsity"));
    if (!(sparsity >= 0.0 && sparsity < 1.0)) {
      return Status::InvalidArgument("--sparsity must be in [0, 1)");
    }
  }
  if (users == 0 || horizon == 0 || groups == 0) {
    return Status::InvalidArgument(
        "--users, --horizon and --groups must be >= 1");
  }
  bool use_cache = true;
  if (flags.count("cache") > 0) {
    const std::string& v = flags.at("cache");
    if (v == "off") {
      use_cache = false;
    } else if (v != "on") {
      return Status::InvalidArgument("--cache must be on or off");
    }
  }
  const bool json = flags.count("json") > 0;
  if (json && flags.at("json") != "-") {
    return Status::InvalidArgument("--json only supports '-' (stdout)");
  }

  // Synthetic multi-user clickstream fleet: `groups` browsing profiles
  // (increasingly home-page-bound), users assigned round-robin.
  std::vector<TemporalCorrelations> profiles;
  for (std::size_t g = 0; g < groups; ++g) {
    // Sweep home_prob over [0.15, 0.45); with link_prob = 0.5 the row
    // budget home_prob + link_prob stays within 1.
    const double home_prob =
        0.15 + 0.3 * static_cast<double>(g) / static_cast<double>(groups);
    TCDP_ASSIGN_OR_RETURN(auto matrix, ClickstreamModel(pages, home_prob));
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
  Rng rng(static_cast<std::uint64_t>(seed));
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
  const double user_releases_per_sec =
      record_seconds > 0.0
          ? static_cast<double>(user_releases) / record_seconds
          : 0.0;

  // One parallel fleet sweep yields both aggregates.
  const auto alphas = bank.PersonalizedAlphas();
  double min_alpha = alphas.front();
  double max_alpha = alphas.front();
  for (double a : alphas) {
    min_alpha = std::min(min_alpha, a);
    max_alpha = std::max(max_alpha, a);
  }

  const auto cache = bank.cache_stats();
  if (json) {
    // Machine-readable single-object schema, mirrored by the fleet CLI
    // smoke test (the bench harness emits the unified BENCH.json).
    out.precision(17);
    out << "{\n"
        << "  \"users\": " << users << ",\n"
        << "  \"horizon\": " << horizon << ",\n"
        << "  \"groups\": " << groups << ",\n"
        << "  \"cohorts\": " << bank.num_cohorts() << ",\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"sparsity\": " << sparsity << ",\n"
        << "  \"epsilon\": " << epsilon << ",\n"
        << "  \"cache\": " << (use_cache ? "true" : "false") << ",\n"
        << "  \"user_releases\": " << user_releases << ",\n"
        << "  \"record_seconds\": " << record_seconds << ",\n"
        << "  \"user_releases_per_sec\": " << user_releases_per_sec
        << ",\n"
        << "  \"overall_alpha\": " << max_alpha << ",\n"
        << "  \"min_personalized_alpha\": " << min_alpha << ",\n"
        << "  \"cache_hits\": " << cache.hits << ",\n"
        << "  \"cache_misses\": " << cache.misses << ",\n"
        << "  \"distinct_matrices\": " << cache.distinct_matrices << "\n"
        << "}\n";
    return Status::OK();
  }
  Table table({"metric", "value"});
  auto add = [&table](const std::string& name, const std::string& value) {
    table.AddRow();
    table.AddCell(name);
    table.AddCell(value);
  };
  add("users", std::to_string(users));
  add("horizon", std::to_string(horizon));
  add("correlation groups", std::to_string(groups));
  add("cohorts", std::to_string(bank.num_cohorts()));
  add("sparsity", FormatNumber(sparsity, 2));
  add("user-steps driven (incl. skips)", std::to_string(user_releases));
  add("record wall time (s)", FormatNumber(record_seconds, 4));
  add("releases/sec", FormatNumber(user_releases_per_sec, 0));
  add("overall alpha (max TPL)", FormatNumber(max_alpha, 6));
  add("min personalized alpha", FormatNumber(min_alpha, 6));
  if (use_cache) {
    add("loss cache hits", std::to_string(cache.hits));
    add("loss cache misses", std::to_string(cache.misses));
    add("loss cache hit rate", FormatNumber(cache.HitRate(), 4));
    add("distinct matrices", std::to_string(cache.distinct_matrices));
  } else {
    add("loss cache", "off");
  }
  out << table.ToAlignedString();
  return Status::OK();
}

/// Minimal JSON string escaping for values we interpolate (user names,
/// paths): quotes, backslashes, and control characters.
std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char ch : text) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  return out;
}

/// Splits a comma-separated field list (no empty entries).
std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> out;
  std::string current;
  for (char ch : text) {
    if (ch == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current.push_back(ch);
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

struct ServeOutcome {
  std::uint64_t script_lines = 0;
  double elapsed_seconds = 0.0;
  std::vector<server::UserReport> queries;
};

/// Drives one scripted request stream into \p backend — either the
/// in-process ShardedReleaseService or a NetClient; both expose the
/// same verbs, and sharing one parser is what keeps the two replay
/// paths' grammar identical (the ISSUE 4 bitwise-comparison contract).
/// Grammar (one command per line, '#' comments):
///   join <name> <pages> <home_prob>
///   release <eps> all | release <eps> <name[,name...]>
///   flush | snapshot | compact | query <name>
template <typename Backend>
Status RunScript(std::istream& script, Backend* backend,
                 ServeOutcome* outcome) {
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
        for (const std::string& name : SplitCommas(who)) {
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

void PrintServiceJson(server::ShardedReleaseService* service,
                      const ServeOutcome& outcome, double overall_alpha,
                      double min_alpha, const net::NetServerStats* net,
                      const replication::LogStreamStats* repl,
                      std::ostream& out) {
  const auto& stats = service->stats();
  const std::uint64_t requests =
      stats.join_requests + stats.release_requests;
  out.precision(17);
  out << "{\n"
      << "  \"shards\": " << service->num_shards() << ",\n"
      << "  \"users\": " << service->num_users() << ",\n"
      << "  \"horizon\": " << service->horizon() << ",\n"
      << "  \"join_requests\": " << stats.join_requests << ",\n"
      << "  \"release_requests\": " << stats.release_requests << ",\n"
      << "  \"ticks\": " << stats.ticks << ",\n"
      << "  \"global_releases\": " << stats.global_releases << ",\n"
      << "  \"elapsed_seconds\": " << outcome.elapsed_seconds << ",\n"
      << "  \"requests_per_sec\": "
      << (outcome.elapsed_seconds > 0.0
              ? static_cast<double>(requests) / outcome.elapsed_seconds
              : 0.0)
      << ",\n"
      << "  \"overall_alpha\": " << overall_alpha << ",\n"
      << "  \"min_personalized_alpha\": " << min_alpha << ",\n"
      << "  \"cache\": {\"hits\": " << stats.cache_hits
      << ", \"misses\": " << stats.cache_misses
      << ", \"entries\": " << stats.cache_entries
      << ", \"distinct_matrices\": " << stats.cache_distinct_matrices
      << "},\n"
      << "  \"shard_stats\": [";
  for (std::size_t s = 0; s < service->num_shards(); ++s) {
    const server::ShardStats shard = service->shard_stats(s);
    out << (s == 0 ? "\n" : ",\n") << "    {\"shard\": " << s
        << ", \"users\": " << shard.users
        << ", \"horizon\": " << shard.horizon
        << ", \"wal_records\": " << shard.wal_records
        << ", \"wal_physical_records\": " << shard.wal_physical_records
        << ", \"wal_bytes\": " << shard.wal_bytes
        << ", \"snapshots\": " << shard.snapshots_written
        << ", \"compactions\": " << shard.compactions
        << ", \"replayed_records\": " << shard.replayed_records
        << ", \"restored_from_snapshot\": "
        << (shard.restored_from_snapshot ? "true" : "false")
        << ", \"queue_depth\": " << shard.queue_depth
        << ", \"queue_depth_hwm\": " << shard.queue_depth_hwm
        << ", \"enqueue_blocks\": " << shard.enqueue_blocks << "}";
  }
  out << "\n  ],";
  if (net != nullptr) {
    out << "\n  \"net\": {\"connections_accepted\": "
        << net->connections_accepted
        << ", \"accept_failures\": " << net->accept_failures
        << ", \"connections_dropped\": " << net->connections_dropped
        << ", \"requests\": " << net->requests
        << ", \"responses\": " << net->responses
        << ", \"bytes_in\": " << net->bytes_in
        << ", \"bytes_out\": " << net->bytes_out
        << ", \"backpressure_pauses\": " << net->backpressure_pauses
        << "},";
  }
  if (repl != nullptr) {
    out << "\n  \"replication\": {\"role\": \"primary\""
        << ", \"followers\": " << repl->followers
        << ", \"primary_records\": " << repl->primary_records
        << ", \"subscribes\": " << repl->subscribes
        << ", \"batches_sent\": " << repl->batches_sent
        << ", \"records_sent\": " << repl->records_sent
        << ", \"bytes_sent\": " << repl->bytes_sent
        << ", \"acks_received\": " << repl->acks_received
        << ", \"divergences\": " << repl->divergences
        << ", \"min_acked_release_horizon\": "
        << repl->min_acked_release_horizon
        << ", \"max_lag_records\": " << repl->max_lag_records << "},";
  }
  out << "\n  \"queries\": [";
  for (std::size_t q = 0; q < outcome.queries.size(); ++q) {
    const server::UserReport& report = outcome.queries[q];
    out << (q == 0 ? "\n" : ",\n") << "    {\"name\": \""
        << JsonEscape(report.name) << "\", \"shard\": " << report.shard
        << ", \"horizon\": " << report.horizon
        << ", \"max_tpl\": " << report.max_tpl
        << ", \"user_level_tpl\": " << report.user_level_tpl << "}";
  }
  out << "\n  ]\n}\n";
}

Status CmdServe(const Flags& flags, std::ostream& out) {
  const bool listen = flags.count("listen") > 0;
  const auto script_it = flags.find("script");
  if (script_it == flags.end() && !listen) {
    return Status::InvalidArgument(
        "missing required flag --script (or --listen)");
  }
  server::ShardedServiceOptions options;
  TCDP_ASSIGN_OR_RETURN(options.num_shards,
                        FlagAsSize(flags, "shards", std::size_t{2}));
  TCDP_ASSIGN_OR_RETURN(options.batch_window,
                        FlagAsSize(flags, "batch-window", std::size_t{16}));
  TCDP_ASSIGN_OR_RETURN(options.snapshot_every,
                        FlagAsSize(flags, "snapshot-every", std::size_t{0}));
  TCDP_ASSIGN_OR_RETURN(options.sync_every,
                        FlagAsSize(flags, "sync-every", std::size_t{0}));
  TCDP_ASSIGN_OR_RETURN(
      options.threads_per_shard,
      FlagAsSize(flags, "threads-per-shard", std::size_t{1}));
  if (flags.count("kernels") > 0) {
    TCDP_ASSIGN_OR_RETURN(options.kernel_mode,
                          kernels::ParseKernelMode(flags.at("kernels")));
  }
  if (options.num_shards == 0 || options.batch_window == 0) {
    return Status::InvalidArgument(
        "--shards and --batch-window must be >= 1");
  }
  TCDP_ASSIGN_OR_RETURN(std::size_t auto_compact,
                        FlagAsSize(flags, "auto-compact", std::size_t{0}));
  options.compaction.after_snapshot = auto_compact != 0;
  TCDP_ASSIGN_OR_RETURN(options.compaction.max_wal_bytes,
                        FlagAsSize(flags, "compact-bytes", std::size_t{0}));
  TCDP_ASSIGN_OR_RETURN(
      options.compaction.max_wal_records,
      FlagAsSize(flags, "compact-records", std::size_t{0}));
  std::string log_dir;
  if (flags.count("log-dir") > 0) log_dir = flags.at("log-dir");
  if (log_dir.empty() &&
      (options.compaction.after_snapshot ||
       options.compaction.max_wal_bytes > 0 ||
       options.compaction.max_wal_records > 0)) {
    return Status::InvalidArgument(
        "--auto-compact/--compact-bytes/--compact-records require "
        "--log-dir (compaction needs a durable WAL)");
  }
  const bool json = flags.count("json") > 0;
  if (json && flags.at("json") != "-") {
    return Status::InvalidArgument("--json only supports '-' (stdout)");
  }
  const bool repl_listen = flags.count("repl-listen") > 0;
  if (repl_listen && (log_dir.empty() || !listen)) {
    return Status::InvalidArgument(
        "--repl-listen requires --log-dir (the WAL is the stream) and "
        "--listen (a primary serves clients and followers together)");
  }

  // Observability knobs. --no-metrics 1 turns the registry's write
  // path off process-wide (the bench A/B switch); --trace-out arms the
  // span ring, dumped on kTraceDump requests and at exit.
  TCDP_ASSIGN_OR_RETURN(std::size_t no_metrics,
                        FlagAsSize(flags, "no-metrics", std::size_t{0}));
  obs::SetMetricsEnabled(no_metrics == 0);
  std::string metrics_json_path;
  std::string metrics_prom_path;
  if (flags.count("metrics-json") > 0) {
    metrics_json_path = flags.at("metrics-json");
  }
  if (flags.count("metrics-prom") > 0) {
    metrics_prom_path = flags.at("metrics-prom");
  }
  TCDP_ASSIGN_OR_RETURN(
      std::size_t metrics_interval_ms,
      FlagAsSize(flags, "metrics-interval-ms", std::size_t{1000}));
  std::string trace_out;
  if (flags.count("trace-out") > 0) trace_out = flags.at("trace-out");
  TCDP_ASSIGN_OR_RETURN(std::size_t trace_capacity,
                        FlagAsSize(flags, "trace-capacity",
                                   std::size_t{8192}));
  if (!trace_out.empty()) {
    obs::DefaultTrace().Start(trace_capacity);
  }
  auto dump_trace = [&trace_out]() -> StatusOr<std::string> {
    if (trace_out.empty()) {
      return Status::FailedPrecondition(
          "server has no trace output configured (start it with "
          "--trace-out)");
    }
    TCDP_RETURN_IF_ERROR(
        obs::WriteFileAtomic(trace_out, obs::DefaultTrace().DumpJson()));
    return trace_out;
  };

  // Active diagnostics: the watchdog scans every heartbeat (shard
  // workers, net I/O loop, metrics dumper) and, with --diag-dir set,
  // stalls and crashes leave a flight-recorder bundle behind.
  TCDP_ASSIGN_OR_RETURN(
      std::size_t watchdog_interval_ms,
      FlagAsSize(flags, "watchdog-interval-ms", std::size_t{1000}));
  TCDP_ASSIGN_OR_RETURN(std::size_t stall_ticks,
                        FlagAsSize(flags, "stall-ticks", std::size_t{3}));
  std::string diag_dir;
  if (flags.count("diag-dir") > 0) diag_dir = flags.at("diag-dir");
  TCDP_ASSIGN_OR_RETURN(std::size_t diag_keep,
                        FlagAsSize(flags, "diag-keep", std::size_t{8}));

  TCDP_ASSIGN_OR_RETURN(auto service,
                        server::ShardedReleaseService::Create(log_dir,
                                                              options));

  std::unique_ptr<obs::FlightRecorder> recorder;
  if (!diag_dir.empty()) {
    obs::FlightRecorderOptions recorder_options;
    recorder_options.dir = diag_dir;
    recorder_options.keep = diag_keep;
    recorder_options.state_text = [raw = service.get()] {
      return raw->DiagnosticStateText();
    };
    recorder = std::make_unique<obs::FlightRecorder>(recorder_options);
    TCDP_RETURN_IF_ERROR(recorder->InstallCrashHandler());
  }
  obs::WatchdogOptions watchdog_options;
  watchdog_options.interval_ms = watchdog_interval_ms;
  watchdog_options.stall_ticks = stall_ticks;
  watchdog_options.flight_recorder = recorder.get();
  obs::Watchdog watchdog(watchdog_options);
  if (watchdog_interval_ms > 0) {
    TCDP_RETURN_IF_ERROR(watchdog.Start());
  }

  ServeOutcome outcome;
  if (script_it != flags.end()) {
    std::ifstream script(script_it->second);
    if (!script) {
      return Status::NotFound("cannot open script " + script_it->second);
    }
    TCDP_RETURN_IF_ERROR(RunScript(script, service.get(), &outcome));
  }
  // Create/Recover and the preload are done: the server is ready.
  watchdog.SetReady(true);

  net::NetServerStats net_stats;
  replication::LogStreamStats repl_stats;
  bool served = false;
  bool repl_served = false;
  if (listen) {
    TCDP_ASSIGN_OR_RETURN(std::size_t port, FlagAsSize(flags, "listen"));
    if (port > 65535) {
      return Status::InvalidArgument("--listen must be a port (0-65535)");
    }
    net::NetServerOptions net_options;
    net_options.port = static_cast<std::uint16_t>(port);
    if (flags.count("host") > 0) net_options.host = flags.at("host");
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
    if (flags.count("port-file") > 0) {
      // Written (and closed) before Serve blocks: pollers treat the
      // file's presence as "the port is bound".
      std::ofstream port_file(flags.at("port-file"));
      port_file << net_server->port() << "\n";
      if (!port_file) {
        return Status::Internal("cannot write " + flags.at("port-file"));
      }
    }
    // A primary tails its own shard WALs and streams them to
    // subscribed followers on a second port (docs/REPLICATION.md). The
    // stream server is a pure file reader, so it rides alongside the
    // service without touching the request path.
    std::unique_ptr<replication::LogStreamServer> repl_server;
    std::thread repl_thread;
    Status repl_status;
    if (repl_listen) {
      TCDP_ASSIGN_OR_RETURN(std::size_t repl_port,
                            FlagAsSize(flags, "repl-listen"));
      if (repl_port > 65535) {
        return Status::InvalidArgument(
            "--repl-listen must be a port (0-65535)");
      }
      replication::LogStreamOptions repl_options;
      repl_options.log_dir = log_dir;
      repl_options.host = net_options.host;
      repl_options.port = static_cast<std::uint16_t>(repl_port);
      TCDP_ASSIGN_OR_RETURN(
          repl_server, replication::LogStreamServer::Listen(repl_options));
      if (flags.count("repl-port-file") > 0) {
        std::ofstream repl_port_file(flags.at("repl-port-file"));
        repl_port_file << repl_server->port() << "\n";
        if (!repl_port_file) {
          return Status::Internal("cannot write " +
                                  flags.at("repl-port-file"));
        }
      }
      if (!json) {
        out << "replication stream on " << net_options.host << ":"
            << repl_server->port() << "\n";
      }
      repl_thread = std::thread(
          [&repl_server, &repl_status] { repl_status = repl_server->Serve(); });
    }
    if (!json) {
      out << "listening on " << net_options.host << ":"
          << net_server->port() << "\n";
      out.flush();
    }
    WallTimer timer;
    Status serve_status;
    {
      obs::MetricsDumper dumper(metrics_json_path, metrics_prom_path,
                                metrics_interval_ms);
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
      repl_served = true;
    }
    TCDP_RETURN_IF_ERROR(serve_status);
    TCDP_RETURN_IF_ERROR(repl_status);
    outcome.elapsed_seconds += timer.ElapsedSeconds();
    net_stats = net_server->stats();
    served = true;
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
    PrintServiceJson(service.get(), outcome, overall, min_alpha,
                     served ? &net_stats : nullptr,
                     repl_served ? &repl_stats : nullptr, out);
  } else {
    Table table({"metric", "value"});
    auto add = [&table](const std::string& name, const std::string& value) {
      table.AddRow();
      table.AddCell(name);
      table.AddCell(value);
    };
    const auto& stats = service->stats();
    add("shards", std::to_string(service->num_shards()));
    if (served) {
      add("connections accepted",
          std::to_string(net_stats.connections_accepted));
      add("net requests", std::to_string(net_stats.requests));
      add("net bytes in/out", std::to_string(net_stats.bytes_in) + "/" +
                                  std::to_string(net_stats.bytes_out));
      add("backpressure pauses",
          std::to_string(net_stats.backpressure_pauses));
      add("connections dropped (protocol)",
          std::to_string(net_stats.connections_dropped));
    }
    if (repl_served) {
      add("replication role", "primary");
      add("followers", std::to_string(repl_stats.followers));
      add("repl records streamed",
          std::to_string(repl_stats.records_sent) + "/" +
              std::to_string(repl_stats.primary_records));
      add("repl acked release horizon",
          std::to_string(repl_stats.min_acked_release_horizon));
      add("repl max follower lag",
          std::to_string(repl_stats.max_lag_records));
      add("repl divergences", std::to_string(repl_stats.divergences));
    }
    add("users", std::to_string(service->num_users()));
    add("requests",
        std::to_string(stats.join_requests + stats.release_requests));
    add("micro-batch ticks", std::to_string(stats.ticks));
    add("global releases", std::to_string(stats.global_releases));
    add("loss cache hits/misses", std::to_string(stats.cache_hits) + "/" +
                                      std::to_string(stats.cache_misses));
    add("loss cache entries", std::to_string(stats.cache_entries));
    add("horizon", std::to_string(service->horizon()));
    add("overall alpha (max TPL)", FormatNumber(overall, 6));
    add("min personalized alpha", FormatNumber(min_alpha, 6));
    add("elapsed (s)", FormatNumber(outcome.elapsed_seconds, 4));
    if (!log_dir.empty()) {
      std::uint64_t wal_bytes = 0;
      std::uint64_t snapshots = 0;
      for (std::size_t s = 0; s < service->num_shards(); ++s) {
        wal_bytes += service->shard_stats(s).wal_bytes;
        snapshots += service->shard_stats(s).snapshots_written;
      }
      add("log dir", log_dir);
      add("WAL bytes (all shards)", std::to_string(wal_bytes));
      add("snapshots written", std::to_string(snapshots));
    }
    out << table.ToAlignedString();
    for (const server::UserReport& report : outcome.queries) {
      out << "query " << report.name << ": horizon " << report.horizon
          << "  max TPL " << FormatNumber(report.max_tpl, 6)
          << "  user-level " << FormatNumber(report.user_level_tpl, 6)
          << "\n";
    }
  }
  return service->Close();
}

Status CmdClient(const Flags& flags, std::ostream& out) {
  const auto script_it = flags.find("script");
  if (script_it == flags.end()) {
    return Status::InvalidArgument("missing required flag --script");
  }
  std::ifstream script(script_it->second);
  if (!script) {
    return Status::NotFound("cannot open script " + script_it->second);
  }
  TCDP_ASSIGN_OR_RETURN(std::size_t port, FlagAsSize(flags, "port"));
  if (port == 0 || port > 65535) {
    return Status::InvalidArgument("--port must be in 1-65535");
  }
  std::string host = "127.0.0.1";
  if (flags.count("host") > 0) host = flags.at("host");
  net::NetClientOptions client_options;
  TCDP_ASSIGN_OR_RETURN(client_options.pipeline_depth,
                        FlagAsSize(flags, "pipeline", std::size_t{8}));
  TCDP_ASSIGN_OR_RETURN(std::size_t shutdown,
                        FlagAsSize(flags, "shutdown", std::size_t{0}));
  const bool json = flags.count("json") > 0;
  if (json && flags.at("json") != "-") {
    return Status::InvalidArgument("--json only supports '-' (stdout)");
  }

  TCDP_ASSIGN_OR_RETURN(
      auto client,
      net::NetClient::Connect(host, static_cast<std::uint16_t>(port),
                              client_options));
  ServeOutcome outcome;
  TCDP_RETURN_IF_ERROR(RunScript(script, client.get(), &outcome));
  TCDP_ASSIGN_OR_RETURN(auto stats, client->Stats());
  if (shutdown != 0) {
    TCDP_RETURN_IF_ERROR(client->Shutdown());
  }
  const std::uint64_t requests = client->requests_sent();
  const double rps = outcome.elapsed_seconds > 0.0
                         ? static_cast<double>(requests) /
                               outcome.elapsed_seconds
                         : 0.0;
  if (json) {
    out.precision(17);
    out << "{\n"
        << "  \"host\": \"" << JsonEscape(host) << "\",\n"
        << "  \"port\": " << port << ",\n"
        << "  \"pipeline\": " << client_options.pipeline_depth << ",\n"
        << "  \"script_lines\": " << outcome.script_lines << ",\n"
        << "  \"elapsed_seconds\": " << outcome.elapsed_seconds << ",\n"
        << "  \"requests_sent\": " << requests << ",\n"
        << "  \"responses_received\": " << client->responses_received()
        << ",\n"
        << "  \"requests_per_sec\": " << rps << ",\n"
        << "  \"server_stats\": {\"shards\": " << stats.num_shards
        << ", \"users\": " << stats.num_users
        << ", \"horizon\": " << stats.horizon
        << ", \"join_requests\": " << stats.join_requests
        << ", \"release_requests\": " << stats.release_requests
        << ", \"ticks\": " << stats.ticks
        << ", \"global_releases\": " << stats.global_releases
        << ", \"shard_stats\": [";
    for (std::size_t s = 0; s < stats.shards.size(); ++s) {
      const net::WireShardStats& shard = stats.shards[s];
      out << (s == 0 ? "\n" : ",\n") << "    {\"shard\": " << s
          << ", \"users\": " << shard.users
          << ", \"horizon\": " << shard.horizon
          << ", \"wal_records\": " << shard.wal_records
          << ", \"wal_bytes\": " << shard.wal_bytes
          << ", \"snapshots\": " << shard.snapshots_written
          << ", \"queue_depth\": " << shard.queue_depth
          << ", \"enqueue_blocks\": " << shard.enqueue_blocks << "}";
    }
    out << "\n  ]},\n  \"queries\": [";
    for (std::size_t q = 0; q < outcome.queries.size(); ++q) {
      const server::UserReport& report = outcome.queries[q];
      out << (q == 0 ? "\n" : ",\n") << "    {\"name\": \""
          << JsonEscape(report.name) << "\", \"shard\": " << report.shard
          << ", \"horizon\": " << report.horizon
          << ", \"max_tpl\": " << report.max_tpl
          << ", \"user_level_tpl\": " << report.user_level_tpl << "}";
    }
    out << "\n  ]\n}\n";
  } else {
    Table table({"metric", "value"});
    auto add = [&table](const std::string& name, const std::string& value) {
      table.AddRow();
      table.AddCell(name);
      table.AddCell(value);
    };
    add("server", host + ":" + std::to_string(port));
    add("pipeline depth", std::to_string(client_options.pipeline_depth));
    add("script lines", std::to_string(outcome.script_lines));
    add("requests sent", std::to_string(requests));
    add("elapsed (s)", FormatNumber(outcome.elapsed_seconds, 4));
    add("requests/sec", FormatNumber(rps, 0));
    add("server shards", std::to_string(stats.num_shards));
    add("server users", std::to_string(stats.num_users));
    add("server horizon", std::to_string(stats.horizon));
    out << table.ToAlignedString();
    for (const server::UserReport& report : outcome.queries) {
      out << "query " << report.name << ": horizon " << report.horizon
          << "  max TPL " << FormatNumber(report.max_tpl, 6)
          << "  user-level " << FormatNumber(report.user_level_tpl, 6)
          << "\n";
    }
  }
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
  TCDP_ASSIGN_OR_RETURN(std::size_t port, FlagAsSize(flags, "port"));
  if (port == 0 || port > 65535) {
    return Status::InvalidArgument("--port must be in 1-65535");
  }
  std::string host = "127.0.0.1";
  if (flags.count("host") > 0) host = flags.at("host");
  const bool json = flags.count("json") > 0;
  if (json && flags.at("json") != "-") {
    return Status::InvalidArgument("--json only supports '-' (stdout)");
  }
  TCDP_ASSIGN_OR_RETURN(std::size_t trace_dump,
                        FlagAsSize(flags, "trace-dump", std::size_t{0}));
  TCDP_ASSIGN_OR_RETURN(std::size_t watch_seconds,
                        FlagAsSize(flags, "watch", std::size_t{0}));
  TCDP_ASSIGN_OR_RETURN(std::size_t watch_count,
                        FlagAsSize(flags, "count", std::size_t{3}));
  if (watch_seconds > 0 && json) {
    return Status::InvalidArgument("--watch and --json are exclusive");
  }

  TCDP_ASSIGN_OR_RETURN(
      auto client,
      net::NetClient::Connect(host, static_cast<std::uint16_t>(port)));
  TCDP_ASSIGN_OR_RETURN(obs::MetricsSnapshot metrics, client->Metrics());
  if (trace_dump != 0) {
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
  auto add = [&table](const std::string& name, const std::string& value) {
    table.AddRow();
    table.AddCell(name);
    table.AddCell(value);
  };
  add("server", host + ":" + std::to_string(port));
  add("shards", std::to_string(stats.num_shards));
  add("users", std::to_string(stats.num_users));
  add("horizon", std::to_string(stats.horizon));
  add("join requests", std::to_string(stats.join_requests));
  add("release requests", std::to_string(stats.release_requests));
  add("ticks", std::to_string(stats.ticks));
  add("global releases", std::to_string(stats.global_releases));
  for (const auto& [name, value] : metrics.counters) {
    add(name, std::to_string(value));
  }
  for (const auto& [name, value] : metrics.gauges) {
    add(name, std::to_string(value));
  }
  out << table.ToAlignedString();

  Table latency({"histogram", "count", "p50", "p90", "p99", "max"});
  for (const auto& [name, snapshot] : metrics.histograms) {
    latency.AddRow();
    latency.AddCell(name);
    latency.AddCell(std::to_string(snapshot.count()));
    latency.AddCell(FormatNumber(snapshot.Quantile(0.5), 6));
    latency.AddCell(FormatNumber(snapshot.Quantile(0.9), 6));
    latency.AddCell(FormatNumber(snapshot.Quantile(0.99), 6));
    latency.AddCell(FormatNumber(snapshot.max_observed, 6));
  }
  out << latency.ToAlignedString();
  return client->Close();
}

/// `tcdp health`: the kHealth/kReady probe as a CLI verb. Prints the
/// watchdog's verdict and exits nonzero when the probed bit is false,
/// so scripts/CI can gate on the exit code alone.
Status CmdHealth(const Flags& flags, std::ostream& out) {
  TCDP_ASSIGN_OR_RETURN(std::size_t port, FlagAsSize(flags, "port"));
  if (port == 0 || port > 65535) {
    return Status::InvalidArgument("--port must be in 1-65535");
  }
  std::string host = "127.0.0.1";
  if (flags.count("host") > 0) host = flags.at("host");
  const bool json = flags.count("json") > 0;
  if (json && flags.at("json") != "-") {
    return Status::InvalidArgument("--json only supports '-' (stdout)");
  }
  TCDP_ASSIGN_OR_RETURN(std::size_t probe_ready,
                        FlagAsSize(flags, "ready", std::size_t{0}));

  TCDP_ASSIGN_OR_RETURN(
      auto client,
      net::NetClient::Connect(host, static_cast<std::uint16_t>(port)));
  TCDP_ASSIGN_OR_RETURN(net::WireHealthReport report,
                        probe_ready != 0 ? client->Ready()
                                         : client->Health());
  if (json) {
    out << "{\n"
        << "  \"healthy\": " << (report.healthy ? "true" : "false") << ",\n"
        << "  \"ready\": " << (report.ready ? "true" : "false") << ",\n"
        << "  \"scans\": " << report.scans << ",\n"
        << "  \"reason\": \"" << JsonEscape(report.reason) << "\",\n"
        << "  \"components\": [";
    for (std::size_t c = 0; c < report.components.size(); ++c) {
      const net::WireComponentHealth& comp = report.components[c];
      out << (c == 0 ? "\n" : ",\n") << "    {\"name\": \""
          << JsonEscape(comp.name) << "\", \"kind\": \""
          << obs::HeartbeatKindName(
                 static_cast<obs::HeartbeatKind>(comp.kind))
          << "\", \"stalled\": " << (comp.stalled ? "true" : "false")
          << ", \"progress\": " << comp.progress
          << ", \"pending\": " << comp.pending
          << ", \"age_ns\": " << comp.age_ns << ", \"detail\": \""
          << JsonEscape(comp.detail) << "\"}";
    }
    out << "\n  ]\n}\n";
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
  const bool probed_bit = probe_ready != 0 ? report.ready : report.healthy;
  if (!probed_bit) {
    return Status::Internal(
        std::string(probe_ready != 0 ? "server not ready"
                                     : "server unhealthy") +
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
  TCDP_ASSIGN_OR_RETURN(std::size_t port, FlagAsSize(flags, "port"));
  if (port == 0 || port > 65535) {
    return Status::InvalidArgument("--port must be in 1-65535");
  }
  std::string host = "127.0.0.1";
  if (flags.count("host") > 0) host = flags.at("host");
  TCDP_ASSIGN_OR_RETURN(
      std::size_t interval_ms,
      FlagAsSize(flags, "interval-ms", std::size_t{1000}));
  if (interval_ms == 0) {
    return Status::InvalidArgument("--interval-ms must be >= 1");
  }
  bool tty = false;
#if defined(__unix__) || defined(__APPLE__)
  tty = ::isatty(STDOUT_FILENO) != 0;
#endif
  TCDP_ASSIGN_OR_RETURN(
      std::size_t count,
      FlagAsSize(flags, "count", tty ? std::size_t{0} : std::size_t{1}));

  TCDP_ASSIGN_OR_RETURN(
      auto client,
      net::NetClient::Connect(host, static_cast<std::uint16_t>(port)));
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
  const auto dir_it = flags.find("log-dir");
  if (dir_it == flags.end()) {
    return Status::InvalidArgument("missing required flag --log-dir");
  }
  const bool verify = flags.count("verify") > 0;
  const bool json = flags.count("json") > 0;
  if (json && flags.at("json") != "-") {
    return Status::InvalidArgument("--json only supports '-' (stdout)");
  }
  WallTimer timer;
  TCDP_ASSIGN_OR_RETURN(auto service,
                        server::ShardedReleaseService::Recover(
                            dir_it->second));
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
  if (json) {
    out.precision(17);
    out << "{\n"
        << "  \"log_dir\": \"" << JsonEscape(dir_it->second) << "\",\n"
        << "  \"shards\": " << service->num_shards() << ",\n"
        << "  \"users\": " << service->num_users() << ",\n"
        << "  \"horizon\": " << service->horizon() << ",\n"
        << "  \"recover_seconds\": " << recover_seconds << ",\n"
        << "  \"overall_alpha\": " << overall << ",\n"
        << "  \"verified\": " << (verify ? "true" : "false") << ",\n"
        << "  \"verified_users\": " << verified_users << ",\n"
        << "  \"verify_failures\": " << verify_failures << ",\n"
        << "  \"shard_stats\": [";
    for (std::size_t s = 0; s < service->num_shards(); ++s) {
      const server::ShardStats shard = service->shard_stats(s);
      out << (s == 0 ? "\n" : ",\n") << "    {\"shard\": " << s
          << ", \"users\": " << shard.users
          << ", \"horizon\": " << shard.horizon
          << ", \"replayed_records\": " << shard.replayed_records
          << ", \"restored_from_snapshot\": "
          << (shard.restored_from_snapshot ? "true" : "false") << "}";
    }
    out << "\n  ]\n}\n";
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
  const auto dir_it = flags.find("log-dir");
  if (dir_it == flags.end()) {
    return Status::InvalidArgument("missing required flag --log-dir");
  }
  const bool json = flags.count("json") > 0;
  if (json && flags.at("json") != "-") {
    return Status::InvalidArgument("--json only supports '-' (stdout)");
  }
  TCDP_ASSIGN_OR_RETURN(auto service,
                        server::ShardedReleaseService::Recover(
                            dir_it->second));
  struct Footprint {
    std::uint64_t bytes = 0;
    std::uint64_t physical_records = 0;
    std::uint64_t logical_records = 0;
  };
  auto measure = [&] {
    std::vector<Footprint> shards;
    for (std::size_t s = 0; s < service->num_shards(); ++s) {
      const server::ShardStats stats = service->shard_stats(s);
      shards.push_back(Footprint{stats.wal_bytes,
                                 stats.wal_physical_records,
                                 stats.wal_records});
    }
    return shards;
  };
  const std::vector<Footprint> before = measure();
  WallTimer timer;
  TCDP_RETURN_IF_ERROR(service->Compact());
  const double compact_seconds = timer.ElapsedSeconds();
  const std::vector<Footprint> after = measure();
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_after = 0;
  for (const Footprint& f : before) bytes_before += f.bytes;
  for (const Footprint& f : after) bytes_after += f.bytes;
  if (json) {
    out.precision(17);
    out << "{\n"
        << "  \"log_dir\": \"" << JsonEscape(dir_it->second) << "\",\n"
        << "  \"shards\": " << service->num_shards() << ",\n"
        << "  \"users\": " << service->num_users() << ",\n"
        << "  \"horizon\": " << service->horizon() << ",\n"
        << "  \"compact_seconds\": " << compact_seconds << ",\n"
        << "  \"wal_bytes_before\": " << bytes_before << ",\n"
        << "  \"wal_bytes_after\": " << bytes_after << ",\n"
        << "  \"shard_stats\": [";
    for (std::size_t s = 0; s < service->num_shards(); ++s) {
      out << (s == 0 ? "\n" : ",\n") << "    {\"shard\": " << s
          << ", \"wal_bytes_before\": " << before[s].bytes
          << ", \"wal_bytes_after\": " << after[s].bytes
          << ", \"physical_records_before\": " << before[s].physical_records
          << ", \"physical_records_after\": " << after[s].physical_records
          << ", \"logical_records\": " << after[s].logical_records << "}";
    }
    out << "\n  ]\n}\n";
  } else {
    out << "compacted " << service->num_shards() << " shard WALs in "
        << FormatNumber(compact_seconds, 4) << "s: " << bytes_before
        << " -> " << bytes_after << " bytes\n";
    for (std::size_t s = 0; s < service->num_shards(); ++s) {
      out << "  shard " << s << ": " << before[s].bytes << " -> "
          << after[s].bytes << " bytes, " << before[s].physical_records
          << " -> " << after[s].physical_records
          << " records on disk (" << after[s].logical_records
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
  TCDP_ASSIGN_OR_RETURN(std::size_t primary_port,
                        FlagAsSize(flags, "primary-port"));
  if (primary_port == 0 || primary_port > 65535) {
    return Status::InvalidArgument("--primary-port must be in 1-65535");
  }
  options.primary_port = static_cast<std::uint16_t>(primary_port);
  if (flags.count("primary-host") > 0) {
    options.primary_host = flags.at("primary-host");
  }
  const auto dir_it = flags.find("log-dir");
  if (dir_it == flags.end()) {
    return Status::InvalidArgument("missing required flag --log-dir");
  }
  options.log_dir = dir_it->second;
  TCDP_ASSIGN_OR_RETURN(std::size_t promote,
                        FlagAsSize(flags, "promote", std::size_t{0}));
  // A promoting follower wants the stream to *end* when the primary
  // dies; a standing replica wants to ride out restarts.
  TCDP_ASSIGN_OR_RETURN(
      std::size_t reconnect,
      FlagAsSize(flags, "reconnect",
                 promote != 0 ? std::size_t{0} : std::size_t{1}));
  options.reconnect = reconnect != 0;
  const bool json = flags.count("json") > 0;
  if (json && flags.at("json") != "-") {
    return Status::InvalidArgument("--json only supports '-' (stdout)");
  }

  const std::string primary = options.primary_host + ":" +
                              std::to_string(options.primary_port);
  TCDP_ASSIGN_OR_RETURN(auto follower,
                        replication::Follower::Open(std::move(options)));
  TCDP_RETURN_IF_ERROR(follower->Start());
  if (!json) {
    out << "following " << primary << " into " << dir_it->second << "\n";
    out.flush();
  }
  while (follower->status().running) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const replication::FollowerStatus status = follower->status();

  std::unique_ptr<server::ShardedReleaseService> promoted;
  double promote_seconds = 0.0;
  if (promote != 0 && !status.diverged) {
    WallTimer timer;
    TCDP_ASSIGN_OR_RETURN(promoted, follower->Promote());
    promote_seconds = timer.ElapsedSeconds();
  } else {
    follower->Stop();
  }

  if (json) {
    out.precision(17);
    out << "{\n"
        << "  \"diverged\": " << (status.diverged ? "true" : "false")
        << ",\n"
        << "  \"num_shards\": " << status.num_shards << ",\n"
        << "  \"release_horizon\": " << status.release_horizon << ",\n"
        << "  \"batches_applied\": " << status.batches_applied << ",\n"
        << "  \"records_applied\": " << status.records_applied << ",\n"
        << "  \"acks_sent\": " << status.acks_sent << ",\n"
        << "  \"reconnects\": " << status.reconnects << ",\n"
        << "  \"promoted\": " << (promoted != nullptr ? "true" : "false")
        << ",\n"
        << "  \"promote_seconds\": " << promote_seconds;
    if (promoted != nullptr) {
      out << ",\n  \"users\": " << promoted->num_users()
          << ",\n  \"horizon\": " << promoted->horizon();
    }
    out << "\n}\n";
  } else {
    Table table({"metric", "value"});
    auto add = [&table](const std::string& name, const std::string& value) {
      table.AddRow();
      table.AddCell(name);
      table.AddCell(value);
    };
    add("diverged", status.diverged ? "YES" : "no");
    add("shards", std::to_string(status.num_shards));
    add("records applied", std::to_string(status.records_applied));
    add("batches applied", std::to_string(status.batches_applied));
    add("acked release horizon", std::to_string(status.release_horizon));
    add("acks sent", std::to_string(status.acks_sent));
    add("reconnects", std::to_string(status.reconnects));
    if (promoted != nullptr) {
      add("promoted", "yes (" + FormatNumber(promote_seconds, 4) + "s)");
      add("users", std::to_string(promoted->num_users()));
      add("horizon", std::to_string(promoted->horizon()));
    }
    out << table.ToAlignedString();
  }

  // The drill's last act: the promoted replica starts serving clients.
  if (promoted != nullptr && flags.count("listen") > 0) {
    TCDP_ASSIGN_OR_RETURN(std::size_t port, FlagAsSize(flags, "listen"));
    if (port > 65535) {
      return Status::InvalidArgument("--listen must be a port (0-65535)");
    }
    net::NetServerOptions net_options;
    net_options.port = static_cast<std::uint16_t>(port);
    if (flags.count("host") > 0) net_options.host = flags.at("host");
    TCDP_ASSIGN_OR_RETURN(
        auto net_server, net::NetServer::Listen(promoted.get(), net_options));
    if (flags.count("port-file") > 0) {
      std::ofstream port_file(flags.at("port-file"));
      port_file << net_server->port() << "\n";
      if (!port_file) {
        return Status::Internal("cannot write " + flags.at("port-file"));
      }
    }
    if (!json) {
      out << "promoted primary listening on " << net_options.host << ":"
          << net_server->port() << "\n";
      out.flush();
    }
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
  std::string journal;
  if (flags.count("journal") > 0) journal = flags.at("journal");
  TCDP_ASSIGN_OR_RETURN(
      std::size_t virtual_nodes,
      FlagAsSize(flags, "virtual-nodes", std::size_t{64}));
  TCDP_ASSIGN_OR_RETURN(auto table,
                        replication::RouterTable::Open(journal,
                                                       virtual_nodes));
  if (flags.count("add") > 0) {
    TCDP_RETURN_IF_ERROR(table->AddEndpoint(flags.at("add")));
    out << "added " << flags.at("add") << "\n";
  }
  if (flags.count("remove") > 0) {
    TCDP_RETURN_IF_ERROR(table->RemoveEndpoint(flags.at("remove")));
    out << "removed " << flags.at("remove") << "\n";
  }
  if (flags.count("migrate") > 0) {
    const auto to_it = flags.find("to");
    if (to_it == flags.end()) {
      return Status::InvalidArgument("--migrate requires --to ENDPOINT");
    }
    TCDP_RETURN_IF_ERROR(
        table->MigrateUser(flags.at("migrate"), to_it->second));
    out << "pinned " << flags.at("migrate") << " -> " << to_it->second
        << "\n";
  }
  if (flags.count("clear") > 0) {
    TCDP_RETURN_IF_ERROR(table->MigrateUser(flags.at("clear"), ""));
    out << "cleared pin for " << flags.at("clear") << "\n";
  }
  if (flags.count("lookup") > 0) {
    TCDP_ASSIGN_OR_RETURN(std::string endpoint,
                          table->Lookup(flags.at("lookup")));
    out << flags.at("lookup") << " -> " << endpoint << "\n";
  }
  if (flags.count("endpoints") > 0) {
    const replication::RouterTableStats stats = table->stats();
    out << stats.endpoints << " endpoints, " << stats.pins << " pins, "
        << stats.journal_records << " journal records\n";
    for (const std::string& endpoint : table->endpoints()) {
      out << "  " << endpoint << "\n";
    }
  }
  if (flags.count("distribution") > 0) {
    // Synthesize N users and count placements per endpoint: run it
    // before and after an --add to see that only ~1/N of them moved.
    TCDP_ASSIGN_OR_RETURN(std::size_t users,
                          FlagAsSize(flags, "distribution"));
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
  if (flags.count("serve") > 0) {
    TCDP_ASSIGN_OR_RETURN(std::size_t port, FlagAsSize(flags, "serve"));
    if (port > 65535) {
      return Status::InvalidArgument("--serve must be a port (0-65535)");
    }
    replication::RouterServerOptions server_options;
    server_options.port = static_cast<std::uint16_t>(port);
    if (flags.count("host") > 0) server_options.host = flags.at("host");
    TCDP_ASSIGN_OR_RETURN(
        auto server,
        replication::RouterServer::Listen(table.get(), server_options));
    if (flags.count("port-file") > 0) {
      std::ofstream port_file(flags.at("port-file"));
      port_file << server->port() << "\n";
      if (!port_file) {
        return Status::Internal("cannot write " + flags.at("port-file"));
      }
    }
    out << "router listening on " << server_options.host << ":"
        << server->port() << "\n";
    out.flush();
    TCDP_RETURN_IF_ERROR(server->Serve());
  }
  return Status::OK();
}

// `tcdp bench` has boolean flags (--smoke, --list), so it parses its
// own arguments instead of going through ParseFlags (which requires
// every --flag to carry a value).
Status CmdBench(const std::vector<std::string>& args, std::ostream& out) {
  bench::RunOptions options;
  bool list = false;
  std::vector<std::string> suites;
  std::string compare_path;
  std::string json_path;
  double noise = 0.15;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> StatusOr<std::string> {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("flag '" + arg +
                                       "' is missing a value");
      }
      return args[++i];
    };
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--suite") {
      TCDP_ASSIGN_OR_RETURN(const std::string list_value, value());
      std::stringstream stream(list_value);
      std::string name;
      while (std::getline(stream, name, ',')) {
        if (!name.empty()) suites.push_back(name);
      }
    } else if (arg == "--compare") {
      TCDP_ASSIGN_OR_RETURN(compare_path, value());
    } else if (arg == "--json") {
      TCDP_ASSIGN_OR_RETURN(json_path, value());
    } else if (arg == "--reps") {
      TCDP_ASSIGN_OR_RETURN(const std::string reps, value());
      Flags one{{"reps", reps}};
      TCDP_ASSIGN_OR_RETURN(options.repetitions, FlagAsSize(one, "reps"));
    } else if (arg == "--noise") {
      TCDP_ASSIGN_OR_RETURN(const std::string frac, value());
      Flags one{{"noise", frac}};
      TCDP_ASSIGN_OR_RETURN(noise, FlagAsDouble(one, "noise"));
      if (noise < 0.0) {
        return Status::InvalidArgument("--noise must be >= 0");
      }
    } else if (arg == "--kernels") {
      TCDP_ASSIGN_OR_RETURN(const std::string mode, value());
      TCDP_ASSIGN_OR_RETURN(const TcdpKernelMode parsed,
                            kernels::ParseKernelMode(mode));
      kernels::SetKernelMode(parsed);
    } else {
      return Status::InvalidArgument(
          "unknown bench flag '" + arg +
          "'; usage: tcdp bench [--suite a,b] [--smoke] [--list] "
          "[--json out.json] [--compare baseline.json] [--reps N] "
          "[--noise F] [--kernels scalar|auto]");
    }
  }

  bench::Harness harness;
  bench::RegisterAllSuites(&harness);
  if (list) {
    Table table({"suite", "description"});
    for (const std::string& name : harness.SuiteNames()) {
      table.AddRowCells({name, harness.FindSpec(name)->description});
    }
    out << table.ToAlignedString();
    return Status::OK();
  }

  TCDP_ASSIGN_OR_RETURN(const bench::BenchReport report,
                        harness.Run(options, suites, out));
  if (!json_path.empty()) {
    const bench::Json json = bench::ReportToJson(report);
    TCDP_RETURN_IF_ERROR(bench::ValidateReportJson(json));
    std::ofstream file(json_path);
    file << json.Dump();
    if (!file) {
      return Status::Internal("cannot write '" + json_path + "'");
    }
    out << "wrote " << json_path << "\n";
  }

  Status result = Status::OK();
  if (!report.AllGatesPassed()) {
    result = Status::Internal("acceptance gate failure (see report above)");
  }
  if (!compare_path.empty()) {
    std::ifstream file(compare_path);
    if (!file) {
      return Status::NotFound("cannot read baseline '" + compare_path + "'");
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    TCDP_ASSIGN_OR_RETURN(const bench::Json parsed,
                          bench::Json::Parse(buffer.str()));
    TCDP_ASSIGN_OR_RETURN(const bench::BenchReport baseline,
                          bench::ReportFromJson(parsed));
    bench::CompareOptions compare_options;
    compare_options.default_noise_frac = noise;
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

}  // namespace

std::string HelpText() {
  return
      "tcdp — temporal-correlation-aware differential privacy toolkit\n"
      "\n"
      "usage: tcdp <command> [--flag value]...\n"
      "\n"
      "commands:\n"
      "  quantify   BPL/FPL/TPL timeline of a release sequence\n"
      "             --matrix M.csv | --backward B.csv | --forward F.csv\n"
      "             --epsilon E --horizon T | --schedule \"e1,e2,...\"\n"
      "  supremum   Theorem 5 leakage supremum under a uniform budget\n"
      "             --matrix M.csv --epsilon E\n"
      "  allocate   alpha-DP_T budget schedule (Algorithms 2/3)\n"
      "             --matrix M.csv --alpha A --horizon T\n"
      "             [--strategy quantified|upper-bound|group]\n"
      "  estimate   correlation MLE from trajectories\n"
      "             --trajectories T.csv [--states n] [--order k]\n"
      "             [--smoothing s] [--out F.csv] [--backward-out B.csv]\n"
      "  fleet      multi-user clickstream replay through the cohort-\n"
      "             batched SoA accountant bank (shared loss cache +\n"
      "             thread pool)\n"
      "             [--users N] [--horizon T] [--epsilon E] [--pages n]\n"
      "             [--groups g] [--threads k] [--cache on|off]\n"
      "             [--sparsity s] [--seed r] [--json -]\n"
      "  serve      sharded release service driven by a scripted request\n"
      "             stream (join/release/flush/snapshot/compact/query\n"
      "             commands), micro-batched, durable when --log-dir is\n"
      "             given; --listen adds the binary wire protocol on a\n"
      "             TCP port (script becomes an optional preload)\n"
      "             --script S.txt [--log-dir D] [--shards N]\n"
      "             [--batch-window W] [--snapshot-every K]\n"
      "             [--sync-every Y] [--auto-compact 1]\n"
      "             [--compact-bytes B] [--compact-records R]\n"
      "             [--threads-per-shard K] [--kernels scalar|auto]\n"
      "             [--listen PORT] [--host H] [--port-file P] [--json -]\n"
      "             [--repl-listen PORT] [--repl-port-file P]\n"
      "             [--no-metrics 1] [--metrics-json F] [--metrics-prom F]\n"
      "             [--metrics-interval-ms MS] [--trace-out F]\n"
      "             [--trace-capacity N] [--watchdog-interval-ms MS]\n"
      "             [--stall-ticks N] [--diag-dir D] [--diag-keep K]\n"
      "  follow     run a replica: subscribe to a primary's --repl-listen\n"
      "             WAL stream, keep a byte-identical local log dir, ack\n"
      "             durable horizons; --promote 1 recovers the replica\n"
      "             into a serving primary when the stream ends (the\n"
      "             failover drill; see docs/REPLICATION.md)\n"
      "             --primary-port PORT --log-dir D [--primary-host H]\n"
      "             [--reconnect 0|1] [--promote 1] [--listen PORT]\n"
      "             [--port-file P] [--host H] [--json -]\n"
      "  route      user -> shard-server placement (consistent hashing +\n"
      "             journaled migration pins); flags are verbs\n"
      "             [--journal F] [--virtual-nodes N] [--add H:P]\n"
      "             [--remove H:P] [--migrate U --to H:P] [--clear U]\n"
      "             [--lookup U] [--endpoints 1] [--distribution N]\n"
      "             [--serve PORT] [--port-file P] [--host H]\n"
      "  client     replay a serve script against a remote server over\n"
      "             the wire protocol (pipelined; see docs/PROTOCOL.md)\n"
      "             --port PORT --script S.txt [--host H]\n"
      "             [--pipeline N] [--shutdown 1] [--json -]\n"
      "  stats      scrape a live server's metrics over the wire (tick\n"
      "             and WAL latency histograms, queue gauges, cache\n"
      "             counters); --trace-dump 1 also asks the server to\n"
      "             write its span ring to its --trace-out path;\n"
      "             --watch N re-scrapes every N seconds and prints\n"
      "             per-interval rates (--count M intervals)\n"
      "             --port PORT [--host H] [--json -] [--trace-dump 1]\n"
      "             [--watch N] [--count M]\n"
      "  health     probe a live server's kHealth/kReady endpoint (the\n"
      "             watchdog's verdict + per-component heartbeat ages);\n"
      "             exits nonzero when the probed bit is false\n"
      "             --port PORT [--host H] [--ready 1] [--json -]\n"
      "  top        live dashboard over kMetrics/kStats: request and WAL\n"
      "             throughput, cache hit ratio, net latency quantiles,\n"
      "             per-shard queue bars; refreshes on a TTY, single\n"
      "             rate table otherwise\n"
      "             --port PORT [--host H] [--interval-ms MS] [--count M]\n"
      "  replay     recover a service from its log dir; --verify 1\n"
      "             replays every user's exported accountant blob and\n"
      "             checks the recovered series bitwise\n"
      "             --log-dir D [--verify 1] [--json -]\n"
      "  compact    recover a service, then rewrite every shard WAL to\n"
      "             its snapshot anchor + suffix (crash-safe tmp+rename;\n"
      "             see docs/DURABILITY.md) and report the disk savings\n"
      "             --log-dir D [--json -]\n"
      "  bench      unified benchmark harness: run the registered suites\n"
      "             (fleet/shard/net throughput, fig3-fig8 + table2 paper\n"
      "             reproductions, wevent, ablation), evaluate their\n"
      "             acceptance gates, emit one BENCH.json and optionally\n"
      "             diff it against a committed baseline (exit nonzero on\n"
      "             any gate or regression failure; docs/BENCHMARKING.md)\n"
      "             [--suite a,b] [--smoke] [--list] [--json out.json]\n"
      "             [--compare baseline.json] [--reps N] [--noise F]\n"
      "             [--kernels scalar|auto]\n"
      "  help       this text\n"
      "\n"
      "file formats: matrices are one row per line (comma/space separated\n"
      "probabilities); trajectories are one user per line (state indices).\n"
      "Lines starting with '#' are comments.\n";
}

Status Run(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << HelpText();
    return Status::OK();
  }
  const std::string& command = args[0];
  if (command == "bench") return CmdBench(args, out);
  TCDP_ASSIGN_OR_RETURN(Flags flags, ParseFlags(args, 1));
  if (command == "quantify") return CmdQuantify(flags, out);
  if (command == "supremum") return CmdSupremum(flags, out);
  if (command == "allocate") return CmdAllocate(flags, out);
  if (command == "estimate") return CmdEstimate(flags, out);
  if (command == "fleet") return CmdFleet(flags, out);
  if (command == "serve") return CmdServe(flags, out);
  if (command == "follow") return CmdFollow(flags, out);
  if (command == "route") return CmdRoute(flags, out);
  if (command == "client") return CmdClient(flags, out);
  if (command == "stats") return CmdStats(flags, out);
  if (command == "health") return CmdHealth(flags, out);
  if (command == "top") return CmdTop(flags, out);
  if (command == "replay") return CmdReplay(flags, out);
  if (command == "compact") return CmdCompact(flags, out);
  return Status::InvalidArgument("unknown command '" + command +
                                 "'; see `tcdp help`");
}

}  // namespace cli
}  // namespace tcdp
