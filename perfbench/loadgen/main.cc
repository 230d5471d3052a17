// The benchmark's load generator: starts `tcdp serve`, sets it up,
// drives one workload open-loop over loopback, verifies what came
// back, and prints one JSON result line (README.md has the workloads,
// metrics and rules).
//
//   loadgen --workload ingest|budget_check|durable --seed N --seconds S
//           --trace 0|1 --tcdp PATH --work-dir DIR

#include <sys/prctl.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench/env.h"
#include "layers.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tcdp;
  std::string work_dir;
};

StatusOr<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--tcdp") {
      args.tcdp = value;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return Status::InvalidArgument("unknown flag " + key);
    }
  }
  if (args.tcdp.empty() || args.work_dir.empty() || !(args.seconds > 0)) {
    return Status::InvalidArgument(
        "usage: loadgen --workload W --seed N --seconds S --trace 0|1 "
        "--tcdp PATH --work-dir DIR");
  }
  return args;
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
};

std::string FirstLineWith(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) return "unknown";
      std::size_t start = line.find_first_not_of(" \t", colon + 1);
      return start == std::string::npos ? "unknown" : line.substr(start);
    }
  }
  return "unknown";
}

std::string FsType(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Provenance of the numbers: host, kernel, log-dir filesystem, build,
/// and the share of CPU time the hypervisor stole during the run.
std::string ProvenanceJson(const Args& args, const std::string& log_fs,
                           double steal_frac) {
  const auto& hw = tcdp::bench::Hardware();
  const auto& build = tcdp::bench::Build();
  utsname uts{};
  const std::string kernel =
      ::uname(&uts) == 0 ? std::string(uts.sysname) + " " + uts.release
                         : "unknown";
  char nproc[32];
  std::snprintf(nproc, sizeof(nproc), "%zu", hw.cores);
  return std::string("{\"provenance\": {") +
         "\"workload\": " + JsonString(args.workload) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"nproc\": " + nproc +
         ", \"cpu_model\": " +
         JsonString(FirstLineWith("/proc/cpuinfo", "model name")) +
         ", \"kernel\": " + JsonString(kernel) +
         ", \"log_dir_fs\": " + JsonString(log_fs) +
         ", \"cpu_steal_frac\": " + std::to_string(steal_frac) +
         ", \"build_type\": " + JsonString(build.build_type) +
         ", \"git_sha\": " + JsonString(build.git_sha) +
         ", \"compiler\": " + JsonString(build.compiler) +
         ", \"timestamp\": " + JsonString(tcdp::bench::NowIso8601()) + "}}";
}

void PrintResult(const RunOutcome& outcome) {
  std::string line = "{\"correct\": ";
  line += outcome.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : outcome.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    line += (first ? "" : ", ") + JsonString(metric.name) +
            ": {\"value\": " + value + ", \"unit\": " +
            JsonString(metric.unit) + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // The sender sleeps to each op's slot; the default 50 us timer slack
  // would add itself to every latency (threads inherit this setting).
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", args.status().ToString().c_str());
    return 2;
  }
  auto workload = FindWorkload(args->workload);
  if (!workload.ok()) {
    std::fprintf(stderr, "loadgen: %s\n",
                 workload.status().ToString().c_str());
    return 2;
  }
  ScratchDir scratch{args->work_dir + "/run-" + std::to_string(::getpid())};
  std::error_code ec;
  fs::remove_all(scratch.path, ec);
  fs::create_directories(scratch.path, ec);
  if (ec) {
    std::fprintf(stderr, "loadgen: cannot create %s\n", scratch.path.c_str());
    return 1;
  }
  RunContext ctx;
  ctx.tcdp = args->tcdp;
  ctx.dir = scratch.path;
  ctx.seed = args->seed;
  ctx.seconds = args->seconds;
  const HostTicks host_start = ReadHostTicks();
  auto outcome = args->trace ? RunTraced(*workload, ctx)
                             : RunMeasured(*workload, ctx);
  if (!outcome.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", outcome.status().ToString().c_str());
    return 1;
  }
  const double steal = StealShare(host_start, ReadHostTicks());
  std::printf("%s\n",
              ProvenanceJson(*args, FsType(scratch.path), steal).c_str());
  PrintResult(*outcome);
  return 0;
}
