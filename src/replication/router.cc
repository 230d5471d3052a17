#include "replication/router.h"

#include <utility>

#include "common/logging.h"
#include "net/messages.h"
#include "net/wire.h"
#include "server/records.h"

namespace tcdp {
namespace replication {

StatusOr<std::unique_ptr<RouterTable>> RouterTable::Open(
    const std::string& journal_path, std::size_t virtual_nodes) {
  std::unique_ptr<RouterTable> table(new RouterTable(virtual_nodes));
  if (journal_path.empty()) return table;

  auto existing = server::ReadEventLog(journal_path);
  if (existing.ok()) {
    if (!existing->clean) {
      // A torn router journal recovers exactly like a torn shard WAL:
      // cut the tail, resume. The lost suffix was never acknowledged.
      TCDP_LOG(kWarning) << "router: journal torn tail ("
                         << existing->tail_error << "); truncating to "
                         << existing->valid_bytes << " bytes";
      TCDP_RETURN_IF_ERROR(
          server::TruncateFile(journal_path, existing->valid_bytes));
    }
    for (const server::EventRecord& record : existing->records) {
      TCDP_RETURN_IF_ERROR(table->Apply(record));
    }
    table->journal_records_ = existing->records.size();
    TCDP_ASSIGN_OR_RETURN(
        table->journal_,
        server::EventLogWriter::OpenForAppend(journal_path,
                                              existing->valid_bytes,
                                              existing->records.size()));
    return table;
  }
  if (existing.status().code() != StatusCode::kNotFound) {
    return existing.status();
  }
  TCDP_ASSIGN_OR_RETURN(table->journal_,
                        server::EventLogWriter::Create(journal_path));
  TCDP_RETURN_IF_ERROR(table->journal_.Sync());
  return table;
}

Status RouterTable::Apply(const server::EventRecord& record) {
  switch (record.type) {
    case server::EventType::kRouterEndpoint: {
      TCDP_ASSIGN_OR_RETURN(const server::RouterEndpointRecord decoded,
                            server::DecodeRouterEndpoint(record.payload));
      return decoded.removed ? ring_.RemoveEndpoint(decoded.endpoint)
                             : ring_.AddEndpoint(decoded.endpoint);
    }
    case server::EventType::kMigrateUser: {
      TCDP_ASSIGN_OR_RETURN(const server::MigrateUserRecord decoded,
                            server::DecodeMigrateUser(record.payload));
      if (decoded.endpoint.empty()) {
        pins_.erase(decoded.name);
      } else {
        pins_[decoded.name] = decoded.endpoint;
      }
      return Status::OK();
    }
    default:
      return Status::InvalidArgument(
          "router journal: unexpected record type " +
          std::to_string(static_cast<unsigned>(record.type)));
  }
}

Status RouterTable::Journal(server::EventType type,
                            const std::string& payload) {
  if (!journal_.is_open()) return Status::OK();  // ephemeral
  TCDP_RETURN_IF_ERROR(journal_.Append(type, payload));
  TCDP_RETURN_IF_ERROR(journal_.Sync());
  ++journal_records_;
  return Status::OK();
}

Status RouterTable::AddEndpoint(const std::string& endpoint) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.HasEndpoint(endpoint)) {
    return Status::AlreadyExists("router: endpoint '" + endpoint +
                                 "' already present");
  }
  server::RouterEndpointRecord record;
  record.endpoint = endpoint;
  TCDP_RETURN_IF_ERROR(Journal(server::EventType::kRouterEndpoint,
                               server::EncodeRouterEndpoint(record)));
  return ring_.AddEndpoint(endpoint);
}

Status RouterTable::RemoveEndpoint(const std::string& endpoint) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ring_.HasEndpoint(endpoint)) {
    return Status::NotFound("router: endpoint '" + endpoint +
                            "' not present");
  }
  server::RouterEndpointRecord record;
  record.endpoint = endpoint;
  record.removed = true;
  TCDP_RETURN_IF_ERROR(Journal(server::EventType::kRouterEndpoint,
                               server::EncodeRouterEndpoint(record)));
  return ring_.RemoveEndpoint(endpoint);
}

Status RouterTable::MigrateUser(const std::string& name,
                                const std::string& endpoint) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (name.empty()) {
    return Status::InvalidArgument("router: empty user name");
  }
  if (endpoint.empty() && pins_.count(name) == 0) {
    return Status::NotFound("router: user '" + name + "' has no pin");
  }
  if (!endpoint.empty() && !ring_.HasEndpoint(endpoint)) {
    return Status::NotFound("router: endpoint '" + endpoint +
                            "' not on the ring");
  }
  server::MigrateUserRecord record;
  record.name = name;
  record.endpoint = endpoint;
  TCDP_RETURN_IF_ERROR(Journal(server::EventType::kMigrateUser,
                               server::EncodeMigrateUser(record)));
  if (endpoint.empty()) {
    pins_.erase(name);
  } else {
    pins_[name] = endpoint;
  }
  return Status::OK();
}

StatusOr<std::string> RouterTable::Lookup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto pin = pins_.find(name);
  if (pin != pins_.end()) return pin->second;
  return ring_.Lookup(name);
}

std::vector<std::string> RouterTable::endpoints() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.endpoints();
}

RouterTableStats RouterTable::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RouterTableStats stats;
  stats.endpoints = ring_.size();
  stats.pins = pins_.size();
  stats.journal_records = journal_records_;
  return stats;
}

StatusOr<std::unique_ptr<RouterServer>> RouterServer::Listen(
    RouterTable* table, RouterServerOptions options) {
  if (table == nullptr) {
    return Status::InvalidArgument("RouterServer::Listen: null table");
  }
  std::unique_ptr<RouterServer> server(new RouterServer(table));
  net::EventLoopOptions loop;
  loop.name = "RouterServer";
  loop.host = std::move(options.host);
  loop.port = options.port;
  loop.listen_backlog = kListenBacklog;
  loop.max_connections = kMaxConnections;
  loop.max_inflight = kMaxInflight;
  loop.max_write_buffer = kMaxWriteBuffer;
  loop.poll_interval_ms = kPollIntervalMs;
  loop.stop_drain_rounds = kStopDrainRounds;
  TCDP_ASSIGN_OR_RETURN(server->loop_,
                        net::EventLoop::Listen(std::move(loop), server.get(),
                                               &server->stats_));
  return server;
}

void RouterServer::OnFrames(net::Connection* conn) {
  net::Frame frame;
  while (conn->NextFrame(&frame)) {
    switch (frame.type) {
      case net::MsgType::kRouteLookup: {
        auto name = net::DecodeName(frame.payload);
        if (!name.ok()) {
          net::AppendFrame(conn->out(), net::MsgType::kError,
                           net::EncodeError(name.status()));
          loop_->Reject(conn);
          break;
        }
        auto endpoint = table_->Lookup(*name);
        if (!endpoint.ok()) {
          net::AppendFrame(conn->out(), net::MsgType::kError,
                           net::EncodeError(endpoint.status()));
          break;  // application error: stay open
        }
        net::AppendFrame(conn->out(), net::MsgType::kRouteReport,
                         net::EncodeName(*endpoint));
        break;
      }
      case net::MsgType::kShutdown:
        net::AppendFrame(conn->out(), net::MsgType::kOk, std::string());
        loop_->RequestStop();
        break;
      default:
        net::AppendFrame(
            conn->out(), net::MsgType::kError,
            net::EncodeError(Status::InvalidArgument(
                "router: unexpected frame type " +
                std::to_string(static_cast<unsigned>(frame.type)))));
        loop_->Reject(conn);
        break;
    }
  }
}

}  // namespace replication
}  // namespace tcdp
