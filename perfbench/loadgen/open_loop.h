#ifndef PERFBENCH_LOADGEN_OPEN_LOOP_H_
#define PERFBENCH_LOADGEN_OPEN_LOOP_H_

/// \file
/// The measuring half of the benchmark: a `tcdp serve` child process,
/// raw-frame client connections, and the open-loop phase runner.
///
/// Every op has a scheduled send time on a constant-rate grid; its
/// latency runs from that time to its response, so a server stall is
/// charged to every op queued behind it (no coordinated omission). The
/// caller's thread frames and sends; one receiver thread decodes
/// responses. Frames go through net::AppendFrame / net::FrameDecoder
/// directly — NetClient's bounded pipeline would close the loop.

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/wire.h"
#include "server/sharded_service.h"

namespace perfbench {

using tcdp::Status;
using tcdp::StatusOr;

/// steady_clock nanoseconds.
std::uint64_t NowNs();

/// The host's aggregate CPU time from /proc/stat, in jiffies.
struct HostTicks {
  double steal = 0.0;
  double total = 0.0;
};
HostTicks ReadHostTicks();
/// The share of CPU time the hypervisor stole between two readings.
double StealShare(const HostTicks& from, const HostTicks& to);

/// \brief A `tcdp serve --listen 0` child process. Its stdout and
/// stderr go to files in \p dir; the port is read from a port file.
/// The destructor kills and reaps a process still running.
class ServerProcess {
 public:
  static StatusOr<std::unique_ptr<ServerProcess>> Start(
      const std::string& tcdp_binary, const std::string& dir,
      const std::vector<std::string>& extra_args);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  /// CPU time the server's threads have run so far, in ns (the sum of
  /// /proc/<pid>/task/*/schedstat). The kernel leaves time the
  /// hypervisor stole out of it, so it is steadier than wall time.
  std::uint64_t CpuNs() const;
  /// kShutdown, then waits for the exit; returns the server's stdout.
  StatusOr<std::string> Shutdown();
  /// SIGKILL and reap: a crash, as far as the log dir can tell.
  void Kill();

 private:
  ServerProcess() = default;

  pid_t pid_ = -1;
  std::string dir_;
  std::uint16_t port_ = 0;
};

/// \brief A loopback client socket with both stream preambles done.
class Connection {
 public:
  static StatusOr<std::unique_ptr<Connection>> Open(std::uint16_t port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  tcdp::net::FrameDecoder& decoder() { return decoder_; }

  /// Closed-loop helper for set-up and control requests: writes
  /// \p frames (\p count framed requests) while collecting exactly
  /// \p count responses, in order.
  StatusOr<std::vector<tcdp::net::Frame>> Exchange(const std::string& frames,
                                                   std::size_t count);

 private:
  explicit Connection(int fd) : fd_(fd) {}

  int fd_ = -1;
  tcdp::net::FrameDecoder decoder_;
};

enum class OpKind : std::uint8_t { kRelease, kQuery, kFlush, kSnapshot };

struct Op {
  OpKind kind = OpKind::kRelease;
  std::uint32_t user = 0;
  double epsilon = 0.0;
};

struct OpRecord {
  Op op;
  std::uint64_t sched_ns = 0;  ///< its slot on the rate grid
  std::uint64_t gen_ns = 0;    ///< when the generator framed it
  std::uint64_t recv_ns = 0;   ///< response time; 0 = none
  bool ok = false;             ///< the expected response type arrived
};

struct PhaseSpec {
  double rate = 0.0;     ///< offered ops/s, summed over connections
  double seconds = 0.0;  ///< schedule length
  /// Keep every n-th query's decoded report for verification; 0 none.
  std::size_t keep_reports_every = 0;
};

struct PhaseResult {
  std::vector<std::vector<OpRecord>> per_conn;  ///< in send order
  std::vector<tcdp::server::UserReport> reports;
  std::uint64_t start_ns = 0;  ///< first scheduled send
  std::uint64_t end_ns = 0;    ///< last response
  std::size_t offered = 0;
  /// Request bytes the generator framed.
  std::uint64_t bytes_out = 0;
};

/// The workload's op stream; called once per op, in schedule order,
/// with the connection the op goes to (op k uses connection k % n).
using OpSource = std::function<Op(std::size_t conn)>;

/// Frames \p op as its request (`user-<u>` names, as the set-up joins).
void AppendOpFrame(const Op& op, std::string* out);

/// Runs one constant-rate phase and waits for every response.
StatusOr<PhaseResult> RunPhase(const std::vector<Connection*>& conns,
                               const PhaseSpec& spec, const OpSource& next_op);

/// Exact quantile (nearest rank) of \p values; q in [0, 1]. 0 if empty.
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_OPEN_LOOP_H_
