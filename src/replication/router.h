#ifndef TCDP_REPLICATION_ROUTER_H_
#define TCDP_REPLICATION_ROUTER_H_

/// \file
/// RouterTable + RouterServer: user -> shard-server placement with a
/// durable journal, and the wire front that answers kRouteLookup.
///
/// The table is a ConsistentHashRing plus explicit per-user pins
/// (kMigrateUser records) that override it. Both mutations are
/// journaled through the WAL framing (event_log.h) before they apply,
/// so a router recovers exactly like a shard: scan, truncate the torn
/// tail, replay. Scaling out is: add the new endpoint (ring moves
/// ~1/N of the users), then for each moved user export/import its
/// series and journal a kMigrateUser pin only if it must deviate from
/// the ring (e.g. staged migration); clearing the pin (empty endpoint)
/// hands the user back to the ring.
///
/// RouterServer speaks the TCDPNET1 framing: kRouteLookup(name) ->
/// kRouteReport(endpoint), kShutdown -> kOk. It serves reads only —
/// mutations go through the CLI against the journal, and the server
/// process is restarted (or a new one pointed at the journal) to pick
/// them up; a live mutation protocol is out of scope
/// (docs/REPLICATION.md).

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/event_loop.h"
#include "replication/ring.h"
#include "server/event_log.h"

namespace tcdp {
namespace replication {

struct RouterTableStats {
  std::size_t endpoints = 0;
  std::size_t pins = 0;
  std::uint64_t journal_records = 0;
};

class RouterTable {
 public:
  /// Opens (replaying, torn tail truncated) or creates the journal at
  /// \p journal_path. Empty path runs ephemeral (tests, dry runs).
  static StatusOr<std::unique_ptr<RouterTable>> Open(
      const std::string& journal_path, std::size_t virtual_nodes = 64);

  /// Journal-then-apply mutations. Each Sync()s before applying, so an
  /// acknowledged mutation survives a crash.
  Status AddEndpoint(const std::string& endpoint);
  Status RemoveEndpoint(const std::string& endpoint);
  /// Pins \p name to \p endpoint (which must be on the ring); an empty
  /// endpoint clears the pin.
  Status MigrateUser(const std::string& name, const std::string& endpoint);

  /// Pin first, ring second.
  StatusOr<std::string> Lookup(const std::string& name) const;

  std::vector<std::string> endpoints() const;
  RouterTableStats stats() const;

 private:
  RouterTable(std::size_t virtual_nodes) : ring_(virtual_nodes) {}

  Status Apply(const server::EventRecord& record);
  Status Journal(server::EventType type, const std::string& payload);

  mutable std::mutex mutex_;
  ConsistentHashRing ring_;
  std::unordered_map<std::string, std::string> pins_;
  server::EventLogWriter journal_;  ///< !is_open() when ephemeral
  std::uint64_t journal_records_ = 0;
};

struct RouterServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port
};

/// Minimal request/response front over a RouterTable, on a
/// net::EventLoop with the same lifecycle as net::NetServer: Serve()
/// on a dedicated thread, Stop() from anywhere.
class RouterServer : private net::EventLoop::Handler {
 public:
  /// \name Bounds (docs/ARCHITECTURE.md, "Network frontend").
  /// @{
  static constexpr int kListenBacklog = 16;
  static constexpr std::size_t kMaxConnections = 64;
  static constexpr std::size_t kMaxInflight = 64;
  static constexpr std::size_t kMaxWriteBuffer = 4u << 20;
  static constexpr int kPollIntervalMs = 100;
  static constexpr int kStopDrainRounds = 50;
  /// @}

  static StatusOr<std::unique_ptr<RouterServer>> Listen(
      RouterTable* table, RouterServerOptions options);

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  Status Serve() { return loop_->Run(); }
  void Stop() { loop_->Stop(); }
  std::uint16_t port() const { return loop_->port(); }
  /// Transport counters; read after Serve() returns.
  const net::EventLoopStats& stats() const { return stats_; }

 private:
  explicit RouterServer(RouterTable* table) : table_(table) {}

  void OnFrames(net::Connection* conn) override;

  RouterTable* table_;  // not owned
  net::EventLoopStats stats_;
  std::unique_ptr<net::EventLoop> loop_;
};

}  // namespace replication
}  // namespace tcdp

#endif  // TCDP_REPLICATION_ROUTER_H_
