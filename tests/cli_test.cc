// Unit tests for tools/cli: every subcommand driven in-process, against
// temp files.

#include "tools/cli.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "bench/json.h"
#include "markov/io.h"

namespace tcdp {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    matrix_path_ = "/tmp/tcdp_cli_test_matrix.csv";
    traj_path_ = "/tmp/tcdp_cli_test_traj.csv";
    std::ofstream m(matrix_path_);
    m << "0.8,0.2\n0.0,1.0\n";
    std::ofstream t(traj_path_);
    t << "0,0,1,1,1\n0,1,1,0,0\n1,1,1,1,0\n";
  }
  void TearDown() override {
    std::remove(matrix_path_.c_str());
    std::remove(traj_path_.c_str());
    std::remove("/tmp/tcdp_cli_test_out.csv");
    std::remove("/tmp/tcdp_cli_test_back.csv");
  }

  StatusOr<std::string> Run(std::vector<std::string> args) {
    std::ostringstream out;
    Status s = cli::Run(args, out);
    if (!s.ok()) return s;
    return out.str();
  }

  std::string matrix_path_;
  std::string traj_path_;
};

TEST_F(CliTest, HelpOnEmptyAndExplicit) {
  auto empty = Run({});
  ASSERT_TRUE(empty.ok());
  EXPECT_NE(empty->find("usage: tcdp"), std::string::npos);
  auto help = Run({"help"});
  ASSERT_TRUE(help.ok());
  EXPECT_EQ(*help, cli::HelpText());
}

TEST_F(CliTest, UnknownCommandFails) {
  auto r = Run({"frobnicate"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, FlagParsingErrors) {
  EXPECT_FALSE(Run({"quantify", "positional"}).ok());
  EXPECT_FALSE(Run({"quantify", "--epsilon"}).ok());  // missing value
  EXPECT_FALSE(Run({"quantify", "--epsilon", "abc", "--matrix",
                    matrix_path_, "--horizon", "3"})
                   .ok());
  for (const char* schedule : {"0.1,abc", "", ",", "0.1,-0.2", "0.1,nan"}) {
    auto r = Run({"quantify", "--matrix", matrix_path_, "--schedule",
                  schedule});
    ASSERT_FALSE(r.ok()) << "--schedule '" << schedule << "'";
    EXPECT_NE(r.status().message().find("--schedule"), std::string::npos)
        << r.status().message();
  }
  auto missing = Run({"supremum", "--matrix", matrix_path_});
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("--epsilon"), std::string::npos)
      << missing.status().message();
}

TEST_F(CliTest, UnknownAndRepeatedFlagsAreRejected) {
  // A typo or a second copy must not fall back to a default: the
  // error names the flag and the verb.
  auto expect_rejected = [&](std::vector<std::string> args,
                             const std::string& flag) {
    const std::string verb = "'tcdp " + args[0] + "'";
    auto r = Run(args);
    ASSERT_FALSE(r.ok()) << "accepted: " << args[0] << " " << flag;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(flag), std::string::npos)
        << r.status().message();
    EXPECT_NE(r.status().message().find(verb), std::string::npos)
        << r.status().message();
  };
  expect_rejected({"serve", "--script", "/tmp/unused.txt", "--sync-evry",
                   "1"},
                  "--sync-evry");
  expect_rejected({"serve", "--shardz", "9"}, "--shardz");
  expect_rejected({"serve", "--shards", "2", "--shards", "3"}, "--shards");
  expect_rejected({"bench", "--smok", "--suite", "fig3"}, "--smok");
  expect_rejected({"bench", "--suite", "fig3", "--suite", "fig4"},
                  "--suite");
  expect_rejected({"bench", "--list", "--list"}, "--list");
  expect_rejected({"quantify", "--matrix", matrix_path_, "--epsilon", "0.1",
                   "--horizon", "3", "--horizn", "4"},
                  "--horizn");
  expect_rejected({"replay", "--log-dir", "/tmp/unused", "--verfy", "1"},
                  "--verfy");
  // A switch takes no value, so a value after it is a stray argument.
  EXPECT_FALSE(Run({"bench", "--list", "1"}).ok());
  // A 0|1 flag takes exactly 0 or 1: any other value is a typo, not
  // "on".
  expect_rejected({"replay", "--log-dir", "/tmp/unused", "--verify", "7"},
                  "--verify");
  expect_rejected({"replay", "--log-dir", "/tmp/unused", "--verify", "1.0"},
                  "--verify");
  expect_rejected({"follow", "--primary-port", "1", "--log-dir",
                   "/tmp/unused", "--promote", "2"},
                  "--promote");
  expect_rejected({"follow", "--primary-port", "1", "--log-dir",
                   "/tmp/unused", "--reconnect", "yes"},
                  "--reconnect");
  expect_rejected({"serve", "--script", "/tmp/unused.txt", "--auto-compact",
                   "2"},
                  "--auto-compact");
  expect_rejected({"serve", "--script", "/tmp/unused.txt", "--no-metrics",
                   "-1"},
                  "--no-metrics");
  expect_rejected({"client", "--port", "1", "--script", "/tmp/unused.txt",
                   "--shutdown", "2"},
                  "--shutdown");
  expect_rejected({"stats", "--port", "1", "--trace-dump", "3"},
                  "--trace-dump");
  expect_rejected({"health", "--port", "1", "--ready", "on"}, "--ready");
  expect_rejected({"route", "--endpoints", "x"}, "--endpoints");
}

TEST_F(CliTest, QuantifyPrintsTimeline) {
  auto r = Run({"quantify", "--matrix", matrix_path_, "--epsilon", "0.1",
                "--horizon", "10"});
  ASSERT_TRUE(r.ok()) << r.status();
  // The Figure 3 hump: max TPL ~ 0.6368, user level = 1.0.
  EXPECT_NE(r->find("max TPL (event-level alpha): 0.6368"),
            std::string::npos);
  EXPECT_NE(r->find("user-level TPL (Corollary 1): 1.0000"),
            std::string::npos);
}

TEST_F(CliTest, QuantifyWithExplicitSchedule) {
  auto r = Run({"quantify", "--backward", matrix_path_, "--schedule",
                "0.1,0.2,0.3"});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r->find("0.300000"), std::string::npos);
}

TEST_F(CliTest, QuantifyRequiresCorrelations) {
  EXPECT_FALSE(Run({"quantify", "--epsilon", "0.1", "--horizon", "5"}).ok());
  // --matrix excludes --backward.
  EXPECT_FALSE(Run({"quantify", "--matrix", matrix_path_, "--backward",
                    matrix_path_, "--epsilon", "0.1", "--horizon", "5"})
                   .ok());
}

TEST_F(CliTest, SupremumReportsBothDirections) {
  auto r = Run({"supremum", "--matrix", matrix_path_, "--epsilon", "0.1"});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r->find("BPL: supremum = 0.645907"), std::string::npos);
  EXPECT_NE(r->find("FPL: supremum = 0.645907"), std::string::npos);
}

TEST_F(CliTest, SupremumDetectsNonExistence) {
  auto r = Run({"supremum", "--matrix", matrix_path_, "--epsilon", "0.25"});
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->find("does not exist"), std::string::npos);
}

TEST_F(CliTest, AllocateQuantifiedAuditsAtAlpha) {
  auto r = Run({"allocate", "--matrix", matrix_path_, "--alpha", "1.0",
                "--horizon", "8"});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r->find("strategy: quantified"), std::string::npos);
  EXPECT_NE(r->find("audited max TPL: 1.0000"), std::string::npos);
}

TEST_F(CliTest, AllocateStrategies) {
  auto ub = Run({"allocate", "--matrix", matrix_path_, "--alpha", "1.0",
                 "--horizon", "5", "--strategy", "upper-bound"});
  ASSERT_TRUE(ub.ok());
  auto group = Run({"allocate", "--matrix", matrix_path_, "--alpha", "1.0",
                    "--horizon", "5", "--strategy", "group"});
  ASSERT_TRUE(group.ok());
  EXPECT_NE(group->find("0.200000"), std::string::npos);  // alpha/T
  EXPECT_FALSE(Run({"allocate", "--matrix", matrix_path_, "--alpha", "1.0",
                    "--horizon", "5", "--strategy", "bogus"})
                   .ok());
}

TEST_F(CliTest, EstimatePrintsMatrix) {
  auto r = Run({"estimate", "--trajectories", traj_path_});
  ASSERT_TRUE(r.ok()) << r.status();
  // Output must itself parse as a stochastic matrix.
  auto parsed = ParseStochasticMatrix(*r);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), 2u);
}

TEST_F(CliTest, EstimateWritesFiles) {
  auto r = Run({"estimate", "--trajectories", traj_path_, "--out",
                "/tmp/tcdp_cli_test_out.csv", "--backward-out",
                "/tmp/tcdp_cli_test_back.csv"});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(LoadStochasticMatrix("/tmp/tcdp_cli_test_out.csv").ok());
  EXPECT_TRUE(LoadStochasticMatrix("/tmp/tcdp_cli_test_back.csv").ok());
}

TEST_F(CliTest, EstimateHigherOrderEmbeds) {
  auto r = Run({"estimate", "--trajectories", traj_path_, "--order", "2",
                "--smoothing", "0.1"});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r->find("order-2 model embedded over 4 histories"),
            std::string::npos);
  // Strip the comment line, the rest is a 4x4 matrix.
  auto body = r->substr(r->find('\n') + 1);
  auto parsed = ParseStochasticMatrix(body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 4u);
}

TEST_F(CliTest, EstimateMissingFileIsNotFound) {
  auto r = Run({"estimate", "--trajectories", "/tmp/missing_tcdp.csv"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(CliTest, FleetPrintsThroughputAndCacheStats) {
  auto r = Run({"fleet", "--users", "20", "--horizon", "4", "--threads", "2",
                "--groups", "2", "--pages", "6"});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("releases/sec"), std::string::npos);
  EXPECT_NE(r->find("overall alpha"), std::string::npos);
  EXPECT_NE(r->find("loss cache hit rate"), std::string::npos);
}

TEST_F(CliTest, FleetCacheOffSkipsCacheStats) {
  auto r = Run({"fleet", "--users", "5", "--horizon", "2", "--threads", "1",
                "--cache", "off"});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("loss cache"), std::string::npos);
  EXPECT_EQ(r->find("hit rate"), std::string::npos);
}

TEST_F(CliTest, FleetRejectsBadFlags) {
  EXPECT_FALSE(Run({"fleet", "--users", "0"}).ok());
  EXPECT_FALSE(Run({"fleet", "--cache", "maybe"}).ok());
  EXPECT_FALSE(Run({"fleet", "--sparsity", "1.5"}).ok());
  EXPECT_FALSE(Run({"fleet", "--json", "/tmp/not-supported.json"}).ok());
  // Integer flags: non-finite, out-of-range, negative and fractional
  // values are refused before any conversion.
  for (const char* users : {"nan", "inf", "-inf", "1e30",
                            "18446744073709551616", "-1", "2.5"}) {
    auto r = Run({"fleet", "--users", users, "--horizon", "1"});
    ASSERT_FALSE(r.ok()) << "--users " << users;
    EXPECT_NE(r.status().message().find("--users"), std::string::npos)
        << r.status().message();
  }
}

TEST_F(CliTest, FleetSparseJsonSmoke) {
  // The machine-readable mode the perf trajectory scripts consume:
  // sparse heterogeneous schedule, explicit thread count, JSON output.
  auto r = Run({"fleet", "--users", "16", "--horizon", "4", "--threads", "2",
                "--groups", "2", "--pages", "5", "--sparsity", "0.5",
                "--seed", "7", "--json", "-"});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Schema keys the dashboards key on.
  for (const char* key :
       {"\"users\": 16", "\"horizon\": 4", "\"cohorts\": 2",
        "\"threads\": 2", "\"sparsity\": 0.5", "\"user_releases\": 64",
        "\"user_releases_per_sec\":", "\"overall_alpha\":",
        "\"cache_hits\":"}) {
    EXPECT_NE(r->find(key), std::string::npos) << "missing " << key
                                               << " in:\n" << *r;
  }
  EXPECT_EQ(r->front(), '{');
  EXPECT_EQ(r->back(), '\n');

  // Same seed, same fleet: byte-identical JSON apart from the timing
  // fields — spot-check the deterministic alpha instead.
  auto again = Run({"fleet", "--users", "16", "--horizon", "4", "--threads",
                    "1", "--groups", "2", "--pages", "5", "--sparsity", "0.5",
                    "--seed", "7", "--json", "-"});
  ASSERT_TRUE(again.ok());
  const auto alpha_of = [](const std::string& text) {
    const auto pos = text.find("\"overall_alpha\":");
    return text.substr(pos, text.find('\n', pos) - pos);
  };
  EXPECT_EQ(alpha_of(*r), alpha_of(*again));
}

TEST_F(CliTest, BenchListShowsEverySuite) {
  auto r = Run({"bench", "--list"});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const char* suite :
       {"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table2", "wevent",
        "ablation", "fleet", "shard", "net"}) {
    EXPECT_NE(r->find(suite), std::string::npos) << "missing " << suite;
  }
}

TEST_F(CliTest, BenchSmokeSingleSuiteWritesValidJsonAndSelfCompares) {
  const std::string json_path = "/tmp/tcdp_cli_bench_fig3.json";
  std::remove(json_path.c_str());
  auto r = Run({"bench", "--suite", "fig3", "--smoke", "--json", json_path});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("gate"), std::string::npos);
  EXPECT_NE(r->find("PASS"), std::string::npos);

  std::ifstream in(json_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"tcdp-bench-v1\""), std::string::npos);
  EXPECT_NE(buffer.str().find("\"fig3\""), std::string::npos);
  EXPECT_NE(buffer.str().find("\"hardware\""), std::string::npos);
  EXPECT_NE(buffer.str().find("\"build\""), std::string::npos);

  // A run compared against its own output is regression-free.
  auto compare = Run(
      {"bench", "--suite", "fig3", "--smoke", "--compare", json_path});
  EXPECT_TRUE(compare.ok()) << compare.status().ToString();
  EXPECT_NE(compare->find("0 regressions"), std::string::npos);
  std::remove(json_path.c_str());
}

TEST_F(CliTest, BenchRejectsBadInvocations) {
  auto unknown_suite = Run({"bench", "--suite", "nope", "--smoke"});
  ASSERT_FALSE(unknown_suite.ok());
  EXPECT_NE(unknown_suite.status().message().find("nope"),
            std::string::npos);

  auto bad_flag = Run({"bench", "--frobnicate"});
  ASSERT_FALSE(bad_flag.ok());

  for (const char* noise : {"-1", "nan", "inf"}) {
    auto bad_noise = Run({"bench", "--suite", "fig3", "--noise", noise});
    ASSERT_FALSE(bad_noise.ok()) << "--noise " << noise;
  }

  auto missing_baseline = Run({"bench", "--suite", "fig3", "--smoke",
                               "--compare", "/tmp/tcdp_no_such_file.json"});
  ASSERT_FALSE(missing_baseline.ok());
}

TEST_F(CliTest, BenchRejectsMalformedBaseline) {
  const std::string bad_path = "/tmp/tcdp_cli_bench_bad_baseline.json";
  {
    std::ofstream bad(bad_path);
    bad << "{\"schema\": \"tcdp-bench-v0\"}\n";
  }
  auto r = Run({"bench", "--suite", "fig3", "--smoke", "--compare",
                bad_path});
  ASSERT_FALSE(r.ok());
  std::remove(bad_path.c_str());
}

class ServeCliTest : public CliTest {
 protected:
  void SetUp() override {
    CliTest::SetUp();
    script_path_ = "/tmp/tcdp_cli_serve_script.txt";
    log_dir_ = "/tmp/tcdp_cli_serve_logs";
    std::filesystem::remove_all(log_dir_);
    std::ofstream script(script_path_);
    script << "# two users, mixed releases, a query\n"
              "join alice 6 0.3\n"
              "join bob 6 0.4\n"
              "release 0.1 all\n"
              "release 0.2 alice\n"
              "flush\n"
              "release 0.1 alice,bob\n"
              "query alice\n";
  }
  void TearDown() override {
    CliTest::TearDown();
    std::remove(script_path_.c_str());
    std::filesystem::remove_all(log_dir_);
  }

  std::string script_path_;
  std::string log_dir_;
};

TEST_F(ServeCliTest, ServeEphemeralPrintsStats) {
  auto r = Run({"serve", "--script", script_path_, "--shards", "2",
                "--batch-window", "4"});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("global releases"), std::string::npos);
  EXPECT_NE(r->find("overall alpha"), std::string::npos);
  EXPECT_NE(r->find("query alice"), std::string::npos);
}

TEST_F(ServeCliTest, ServeJsonThenReplayVerifies) {
  auto served = Run({"serve", "--script", script_path_, "--shards", "2",
                     "--batch-window", "4", "--snapshot-every", "2",
                     "--log-dir", log_dir_, "--json", "-"});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  for (const char* key :
       {"\"shards\": 2", "\"users\": 2", "\"horizon\": 3",
        "\"release_requests\": 4", "\"queries\": [", "\"name\": \"alice\"",
        "\"wal_records\":"}) {
    EXPECT_NE(served->find(key), std::string::npos)
        << "missing " << key << " in:\n" << *served;
  }

  auto replayed = Run({"replay", "--log-dir", log_dir_, "--verify", "1",
                       "--json", "-"});
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  for (const char* key :
       {"\"users\": 2", "\"horizon\": 3", "\"verified\": true",
        "\"verified_users\": 2", "\"verify_failures\": 0"}) {
    EXPECT_NE(replayed->find(key), std::string::npos)
        << "missing " << key << " in:\n" << *replayed;
  }

  auto human = Run({"replay", "--log-dir", log_dir_, "--verify", "1"});
  ASSERT_TRUE(human.ok()) << human.status().ToString();
  EXPECT_NE(human->find("2 users bitwise-equal, 0 failures"),
            std::string::npos)
      << *human;

  // --verify 0 means off, the same as leaving it out.
  auto unverified = Run({"replay", "--log-dir", log_dir_, "--verify", "0",
                         "--json", "-"});
  ASSERT_TRUE(unverified.ok()) << unverified.status().ToString();
  EXPECT_NE(unverified->find("\"verified\": false"), std::string::npos)
      << *unverified;
  auto unverified_human =
      Run({"replay", "--log-dir", log_dir_, "--verify", "0"});
  ASSERT_TRUE(unverified_human.ok());
  EXPECT_EQ(unverified_human->find("verification:"), std::string::npos)
      << *unverified_human;
}

TEST_F(ServeCliTest, ServeRejectsBadInput) {
  EXPECT_FALSE(Run({"serve"}).ok());  // no script
  EXPECT_FALSE(
      Run({"serve", "--script", "/tmp/no_such_tcdp_script.txt"}).ok());
  std::ofstream(script_path_) << "frobnicate everything\n";
  auto r = Run({"serve", "--script", script_path_});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown command"),
            std::string::npos);
  std::ofstream(script_path_) << "release 0.1 nobody\n";
  EXPECT_FALSE(Run({"serve", "--script", script_path_}).ok());
  // Shard and thread counts: unconvertible values fail in the flag
  // parser, convertible ones past the service's thread bound in Create.
  for (const char* shards : {"1e30", "nan", "inf", "1e18", "1025"}) {
    auto bad = Run({"serve", "--script", script_path_, "--shards", shards});
    ASSERT_FALSE(bad.ok()) << "--shards " << shards;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  }
  auto deep = Run({"serve", "--script", script_path_, "--shards", "2",
                   "--threads-per-shard", "1000"});
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.status().message().find("threads"), std::string::npos)
      << deep.status().message();
}

TEST_F(ServeCliTest, ReplayRequiresLogDir) {
  EXPECT_FALSE(Run({"replay"}).ok());
  EXPECT_FALSE(
      Run({"replay", "--log-dir", "/tmp/no_such_tcdp_log_dir"}).ok());
}

TEST_F(ServeCliTest, CompactShrinksLogsAndReplayStillVerifies) {
  // Serve durably with a mid-stream snapshot so compaction has an
  // anchor, compact, and check the replay verification still passes
  // against the shrunken logs.
  std::ofstream(script_path_) << "join alice 6 0.3\n"
                                 "join bob 6 0.4\n"
                                 "release 0.1 all\n"
                                 "release 0.2 alice\n"
                                 "snapshot\n"
                                 "release 0.1 alice,bob\n"
                                 "flush\n";
  auto served = Run({"serve", "--script", script_path_, "--shards", "2",
                     "--batch-window", "4", "--log-dir", log_dir_});
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  auto compacted = Run({"compact", "--log-dir", log_dir_, "--json", "-"});
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  for (const char* key :
       {"\"wal_bytes_before\":", "\"wal_bytes_after\":",
        "\"physical_records_after\":", "\"compact_seconds\":"}) {
    EXPECT_NE(compacted->find(key), std::string::npos)
        << "missing " << key << " in:\n" << *compacted;
  }

  auto replayed = Run({"replay", "--log-dir", log_dir_, "--verify", "1"});
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_NE(replayed->find("2 users bitwise-equal, 0 failures"),
            std::string::npos)
      << *replayed;

  auto human = Run({"compact", "--log-dir", log_dir_});
  ASSERT_TRUE(human.ok()) << human.status().ToString();
  EXPECT_NE(human->find("compacted 2 shard WALs"), std::string::npos)
      << *human;
}

TEST_F(ServeCliTest, CompactRejectsBadInput) {
  EXPECT_FALSE(Run({"compact"}).ok());
  EXPECT_FALSE(
      Run({"compact", "--log-dir", "/tmp/no_such_tcdp_log_dir"}).ok());
  // Retention flags on an ephemeral serve are a contradiction.
  auto r = Run({"serve", "--script", script_path_, "--auto-compact", "1"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("--log-dir"), std::string::npos);
}

TEST_F(ServeCliTest, ServeScriptCompactVerbAndAutoCompactFlags) {
  std::ofstream(script_path_) << "join alice 6 0.3\n"
                                 "release 0.1 all\n"
                                 "snapshot\n"
                                 "compact\n"
                                 "release 0.2 alice\n"
                                 "query alice\n";
  auto served = Run({"serve", "--script", script_path_, "--shards", "2",
                     "--batch-window", "2", "--log-dir", log_dir_,
                     "--auto-compact", "1", "--json", "-"});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  for (const char* key :
       {"\"compactions\":", "\"wal_physical_records\":",
        "\"name\": \"alice\""}) {
    EXPECT_NE(served->find(key), std::string::npos)
        << "missing " << key << " in:\n" << *served;
  }
  EXPECT_EQ(served->find("\"compactions\": 0"), std::string::npos)
      << "no shard compacted in:\n" << *served;
}

/// Extracts the `"queries": [...]` JSON section — the part that must be
/// bitwise identical between an in-process serve run and a networked
/// client replay of the same script.
std::string QueriesSection(const std::string& json) {
  const std::size_t begin = json.find("\"queries\": [");
  EXPECT_NE(begin, std::string::npos) << json;
  if (begin == std::string::npos) return "";
  const std::size_t end = json.find(']', begin);
  EXPECT_NE(end, std::string::npos);
  return json.substr(begin, end - begin + 1);
}

TEST_F(ServeCliTest, ClientReplayOverLoopbackMatchesInProcessBitwise) {
  // In-process run (the ISSUE 4 acceptance reference).
  auto in_process = Run({"serve", "--script", script_path_, "--shards", "3",
                         "--batch-window", "4", "--json", "-"});
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();

  // Networked run: serve --listen on a background thread, replay the
  // same script through `tcdp client`, shut the server down.
  const std::string port_file = "/tmp/tcdp_cli_net_port.txt";
  std::remove(port_file.c_str());
  StatusOr<std::string> served = Status::Internal("serve never ran");
  std::thread server([&] {
    served = Run({"serve", "--listen", "0", "--shards", "3",
                  "--batch-window", "4", "--port-file", port_file,
                  "--json", "-"});
  });
  std::string port;
  for (int i = 0; i < 200 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::ifstream in(port_file);
    std::getline(in, port);
  }
  ASSERT_FALSE(port.empty()) << "server never wrote its port file";
  auto client = Run({"client", "--port", port, "--script", script_path_,
                     "--pipeline", "4", "--shutdown", "1", "--json", "-"});
  server.join();
  std::remove(port_file.c_str());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  // Bitwise: the doubles print at precision 17 in both outputs.
  EXPECT_EQ(QueriesSection(*client), QueriesSection(*in_process))
      << "client:\n" << *client << "\nin-process:\n" << *in_process;
  for (const char* key :
       {"\"server_stats\":", "\"queue_depth\":", "\"enqueue_blocks\":"}) {
    EXPECT_NE(client->find(key), std::string::npos)
        << "missing " << key << " in:\n" << *client;
  }
  for (const char* key : {"\"net\":", "\"connections_accepted\": 1",
                          "\"queue_depth\":", "\"enqueue_blocks\":"}) {
    EXPECT_NE(served->find(key), std::string::npos)
        << "missing " << key << " in:\n" << *served;
  }
}

TEST_F(ServeCliTest, ClientRejectsBadFlags) {
  EXPECT_FALSE(Run({"client"}).ok());  // no script, no port
  EXPECT_FALSE(Run({"client", "--script", script_path_}).ok());  // no port
  EXPECT_FALSE(Run({"client", "--script", script_path_, "--port",
                    "99999999"})
                   .ok());
  EXPECT_FALSE(Run({"client", "--port", "1", "--script",
                    "/tmp/no_such_tcdp_script.txt"})
                   .ok());
}

TEST_F(CliTest, RouteEndpointsZeroIsOff) {
  auto on = Run({"route", "--add", "127.0.0.1:7001", "--endpoints", "1"});
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_NE(on->find("1 endpoints"), std::string::npos) << *on;
  auto off = Run({"route", "--add", "127.0.0.1:7001", "--endpoints", "0"});
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_NE(off->find("added 127.0.0.1:7001"), std::string::npos) << *off;
  EXPECT_EQ(off->find("endpoints,"), std::string::npos) << *off;
}

TEST_F(CliTest, RouteValidatesEveryFlagBeforeJournaling) {
  // A bad value on a later flag must not leave an earlier verb's
  // journal record behind.
  const std::string journal = "/tmp/tcdp_cli_route_journal";
  std::remove(journal.c_str());
  ASSERT_TRUE(Run({"route", "--journal", journal, "--add", "127.0.0.1:7000"})
                  .ok());
  const auto read_journal = [&] {
    std::ifstream in(journal, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  };
  const std::string before = read_journal();
  auto bad = Run({"route", "--journal", journal, "--add", "127.0.0.1:7001",
                  "--endpoints", "x"});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(read_journal(), before);
  auto lookup = Run({"route", "--journal", journal, "--lookup", "alice"});
  ASSERT_TRUE(lookup.ok()) << lookup.status().ToString();
  EXPECT_NE(lookup->find("127.0.0.1:7000"), std::string::npos) << *lookup;
  std::remove(journal.c_str());
}

TEST_F(ServeCliTest, ServeValidatesEveryFlagBeforeRunningTheScript) {
  // A bad port must fail before the script writes the log dir, so a
  // rerun with a good port does not hit AlreadyExists.
  auto bad = Run({"serve", "--script", script_path_, "--log-dir", log_dir_,
                  "--listen", "99999"});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(log_dir_ + "/MANIFEST"));
  auto good = Run({"serve", "--script", script_path_, "--log-dir", log_dir_});
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

/// Parses \p text as JSON and checks that every dotted path in \p paths
/// resolves. A "[]" suffix on a segment descends into every element of
/// a non-empty array.
void ExpectJsonPaths(const std::string& text,
                     const std::vector<std::string>& paths) {
  auto parsed = bench::Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  for (const std::string& path : paths) {
    std::vector<const bench::Json*> nodes = {&*parsed};
    std::stringstream segments(path);
    std::string segment;
    while (std::getline(segments, segment, '.')) {
      const bool each = segment.size() > 2 &&
                        segment.compare(segment.size() - 2, 2, "[]") == 0;
      if (each) segment.resize(segment.size() - 2);
      std::vector<const bench::Json*> next;
      for (const bench::Json* node : nodes) {
        auto member = bench::GetMember(*node, segment);
        ASSERT_TRUE(member.ok()) << path << ": " << member.status().ToString()
                                 << "\n" << text;
        if (!each) {
          next.push_back(*member);
          continue;
        }
        ASSERT_TRUE((*member)->is_array() && !(*member)->as_array().empty())
            << path << " is not a non-empty array in\n" << text;
        for (const bench::Json& element : (*member)->as_array()) {
          next.push_back(&element);
        }
      }
      nodes = std::move(next);
    }
  }
}

TEST_F(ServeCliTest, JsonOutputsParseWithTheKeysScriptsRead) {
  auto fleet = Run({"fleet", "--users", "8", "--horizon", "3", "--threads",
                    "1", "--groups", "2", "--pages", "5", "--json", "-"});
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ExpectJsonPaths(*fleet, {"users", "horizon", "cohorts", "threads",
                           "sparsity", "epsilon", "cache", "user_releases",
                           "user_releases_per_sec", "overall_alpha",
                           "min_personalized_alpha", "cache_hits",
                           "cache_misses", "distinct_matrices",
                           "cache_table_bytes"});

  // A durable served run, then a client, a health probe, replay and
  // compact against what it left behind. perfbench reads
  // net.backpressure_pauses and shard_stats[].compactions from serve.
  const std::string port_file = "/tmp/tcdp_cli_json_port.txt";
  const std::string client_script = "/tmp/tcdp_cli_json_client.txt";
  std::remove(port_file.c_str());
  std::ofstream(client_script) << "release 0.1 all\nsnapshot\nquery bob\n";
  StatusOr<std::string> served = Status::Internal("serve never ran");
  std::thread server([&] {
    served = Run({"serve", "--script", script_path_, "--listen", "0",
                  "--log-dir", log_dir_, "--auto-compact", "1",
                  "--port-file", port_file, "--json", "-"});
  });
  std::string port;
  for (int i = 0; i < 500 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::ifstream in(port_file);
    std::getline(in, port);
  }
  ASSERT_FALSE(port.empty()) << "server never wrote its port file";
  auto health = Run({"health", "--port", port, "--json", "-"});
  auto client = Run({"client", "--port", port, "--script", client_script,
                     "--shutdown", "1", "--json", "-"});
  server.join();
  std::remove(port_file.c_str());
  std::remove(client_script.c_str());
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  // The watchdog may not have scanned yet, so components can be empty.
  ExpectJsonPaths(*health,
                  {"healthy", "ready", "scans", "reason", "components"});
  ExpectJsonPaths(*client,
                  {"host", "port", "pipeline", "script_lines",
                   "elapsed_seconds", "requests_sent", "responses_received",
                   "requests_per_sec", "server_stats.shards",
                   "server_stats.shard_stats[].queue_depth",
                   "server_stats.shard_stats[].enqueue_blocks",
                   "queries[].name", "queries[].max_tpl",
                   "queries[].user_level_tpl"});
  ExpectJsonPaths(*served,
                  {"shards", "users", "horizon", "release_requests",
                   "elapsed_seconds", "requests_per_sec", "overall_alpha",
                   "cache.hits", "shard_stats[].compactions",
                   "shard_stats[].wal_physical_records",
                   "shard_stats[].queue_depth_hwm",
                   "shard_stats[].restored_from_snapshot",
                   "net.connections_accepted", "net.backpressure_pauses",
                   "queries[].name", "queries[].max_tpl"});

  auto replayed = Run({"replay", "--log-dir", log_dir_, "--verify", "1",
                       "--json", "-"});
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ExpectJsonPaths(*replayed,
                  {"log_dir", "shards", "users", "horizon", "recover_seconds",
                   "overall_alpha", "verified", "verified_users",
                   "verify_failures", "shard_stats[].replayed_records",
                   "shard_stats[].restored_from_snapshot"});
  auto compacted = Run({"compact", "--log-dir", log_dir_, "--json", "-"});
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  ExpectJsonPaths(*compacted,
                  {"log_dir", "shards", "compact_seconds", "wal_bytes_before",
                   "wal_bytes_after", "shard_stats[].wal_bytes_before",
                   "shard_stats[].physical_records_after",
                   "shard_stats[].logical_records"});
}

TEST_F(ServeCliTest, HelpMentionsNetworkCommands) {
  auto help = Run({"help"});
  ASSERT_TRUE(help.ok());
  EXPECT_NE(help->find("client"), std::string::npos);
  EXPECT_NE(help->find("--listen"), std::string::npos);
  // Usage comes from the command table: defaults and required flags.
  EXPECT_NE(help->find("[--shards N=2]"), std::string::npos) << *help;
  EXPECT_NE(help->find(" --port PORT "), std::string::npos) << *help;
}

}  // namespace
}  // namespace tcdp
