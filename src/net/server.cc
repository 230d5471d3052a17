#include "net/server.h"

#include <utility>

#include "net/messages.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tcdp {
namespace net {
namespace {

/// Net-frontend instruments: request latency broken down by request
/// type, decode/protocol failures, and live-connection / in-flight
/// depth gauges.
struct NetObs {
  obs::Counter* decode_errors;
  obs::Gauge* connections;
  obs::Gauge* inflight;
  static const NetObs& Get() {
    static const NetObs instruments = [] {
      obs::Registry& registry = obs::Registry::Default();
      NetObs o;
      o.decode_errors = registry.GetCounter("tcdp_net_decode_errors_total");
      o.connections = registry.GetGauge("tcdp_net_connections");
      o.inflight = registry.GetGauge("tcdp_net_inflight_frames");
      return o;
    }();
    return instruments;
  }
};

const char* RequestTypeName(MsgType type) {
  switch (type) {
    case MsgType::kJoin:
      return "join";
    case MsgType::kRelease:
      return "release";
    case MsgType::kReleaseAll:
      return "release_all";
    case MsgType::kFlush:
      return "flush";
    case MsgType::kSnapshot:
      return "snapshot";
    case MsgType::kQuery:
      return "query";
    case MsgType::kStats:
      return "stats";
    case MsgType::kShutdown:
      return "shutdown";
    case MsgType::kCompact:
      return "compact";
    case MsgType::kMetrics:
      return "metrics";
    case MsgType::kTraceDump:
      return "trace_dump";
    case MsgType::kHealth:
      return "health";
    case MsgType::kReady:
      return "ready";
    default:
      return "other";
  }
}

obs::Histogram* RequestLatency(MsgType type) {
  // One histogram per request type, resolved lazily into a fixed
  // table ("other" absorbs unexpected type bytes so it stays bounded).
  static std::atomic<obs::Histogram*> table[256] = {};
  std::atomic<obs::Histogram*>& slot = table[static_cast<std::uint8_t>(type)];
  obs::Histogram* histogram = slot.load(std::memory_order_acquire);
  if (histogram == nullptr) {
    histogram = obs::Registry::Default().GetHistogram(obs::WithLabel(
        "tcdp_net_request_seconds", "type", RequestTypeName(type)));
    slot.store(histogram, std::memory_order_release);
  }
  return histogram;
}

}  // namespace

NetServer::NetServer(server::ShardedReleaseService* service,
                     NetServerOptions options)
    : service_(service), options_(std::move(options)) {}

StatusOr<std::unique_ptr<NetServer>> NetServer::Listen(
    server::ShardedReleaseService* service, NetServerOptions options) {
  if (service == nullptr) {
    return Status::InvalidArgument("NetServer::Listen: null service");
  }
  std::unique_ptr<NetServer> server(
      new NetServer(service, std::move(options)));
  EventLoopOptions loop;
  loop.name = "NetServer";
  loop.host = server->options_.host;
  loop.port = server->options_.port;
  loop.listen_backlog = kListenBacklog;
  loop.max_connections = kMaxConnections;
  loop.max_inflight = kMaxInflight;
  loop.max_write_buffer = kMaxWriteBuffer;
  loop.poll_interval_ms = kPollIntervalMs;
  loop.heartbeat = "net-io";
  loop.stop_drain_rounds = kStopDrainRounds;
  TCDP_ASSIGN_OR_RETURN(server->loop_,
                        EventLoop::Listen(std::move(loop), server.get(),
                                          &server->stats_));
  return server;
}

void NetServer::OnDrop() {
  if (obs::MetricsEnabled()) NetObs::Get().decode_errors->Increment();
}

bool NetServer::AfterRound() {
  if (obs::MetricsEnabled()) {
    std::size_t inflight = 0;
    for (const auto& conn : loop_->connections()) {
      inflight += conn->queued_frames();
    }
    NetObs::Get().connections->Set(
        static_cast<std::int64_t>(loop_->connections().size()));
    NetObs::Get().inflight->Set(static_cast<std::int64_t>(inflight));
  }
  return false;
}

void NetServer::OnFrames(Connection* conn) {
  Frame frame;
  while (conn->NextFrame(&frame)) HandleFrame(conn, frame.type, frame.payload);
}

void NetServer::HandleFrame(Connection* conn, MsgType type,
                            const std::string& payload) {
  ++stats_.requests;
  obs::ScopedLatencyTimer request_timer(RequestLatency(type));
  obs::ScopedSpan request_span("request", "net",
                               static_cast<std::uint64_t>(type));
  // A payload that decodes but fails in the service is an application
  // error: report it and keep serving. A payload that does not decode
  // (or a non-request type) is a protocol violation: report it and
  // close once the report flushes.
  Status applied = Status::OK();
  bool violation = false;
  // Empty-payload request types really must be empty ("every decoder
  // is total" includes the trivial one): junk bytes mean the peer is
  // misframing, which is a tier-2 violation, not a silent pass.
  if ((type == MsgType::kFlush || type == MsgType::kSnapshot ||
       type == MsgType::kCompact || type == MsgType::kStats ||
       type == MsgType::kShutdown || type == MsgType::kMetrics ||
       type == MsgType::kTraceDump || type == MsgType::kHealth ||
       type == MsgType::kReady) &&
      !payload.empty()) {
    AppendFrame(conn->out(), MsgType::kError,
                EncodeError(Status::InvalidArgument(
                    "request type " +
                    std::to_string(static_cast<unsigned>(type)) +
                    " carries a non-empty payload")));
    ++stats_.responses;
    loop_->Reject(conn);
    return;
  }
  switch (type) {
    case MsgType::kJoin: {
      auto request = DecodeJoin(payload);
      if (!request.ok()) {
        applied = request.status();
        violation = true;
        break;
      }
      applied = service_->Join(request->name,
                               std::move(request->image.correlations));
      break;
    }
    case MsgType::kRelease: {
      auto request = DecodeRelease(payload);
      if (!request.ok()) {
        applied = request.status();
        violation = true;
        break;
      }
      applied = service_->Release(request->name, request->epsilon);
      break;
    }
    case MsgType::kReleaseAll: {
      auto epsilon = DecodeReleaseAll(payload);
      if (!epsilon.ok()) {
        applied = epsilon.status();
        violation = true;
        break;
      }
      applied = service_->ReleaseAll(*epsilon);
      break;
    }
    case MsgType::kFlush:
      applied = service_->Flush();
      break;
    case MsgType::kSnapshot:
      applied = service_->Snapshot();
      break;
    case MsgType::kCompact:
      applied = service_->Compact();
      break;
    case MsgType::kQuery: {
      auto name = DecodeName(payload);
      if (!name.ok()) {
        applied = name.status();
        violation = true;
        break;
      }
      auto report = service_->Query(*name);
      if (report.ok()) {
        const std::string encoded = EncodeReport(*report);
        if (encoded.size() > kMaxFramePayload) {
          // A report for a very long series can outgrow a legal frame;
          // answering with an error beats emitting a frame the peer's
          // decoder must reject (which would poison the whole stream).
          applied = Status::ResourceExhausted(
              "report for '" + *name + "' exceeds the frame size limit");
          break;
        }
        AppendFrame(conn->out(), MsgType::kReport, encoded);
        ++stats_.responses;
        return;
      }
      applied = report.status();
      break;
    }
    case MsgType::kStats: {
      WireServiceStats stats;
      stats.num_shards = service_->num_shards();
      stats.num_users = service_->num_users();
      stats.horizon = service_->horizon();
      const server::ServiceStats& service_stats = service_->stats();
      stats.join_requests = service_stats.join_requests;
      stats.release_requests = service_stats.release_requests;
      stats.ticks = service_stats.ticks;
      stats.global_releases = service_stats.global_releases;
      for (std::size_t s = 0; s < service_->num_shards(); ++s) {
        const server::ShardStats shard = service_->shard_stats(s);
        WireShardStats wire;
        wire.users = shard.users;
        wire.horizon = shard.horizon;
        wire.wal_records = shard.wal_records;
        wire.wal_bytes = shard.wal_bytes;
        wire.snapshots_written = shard.snapshots_written;
        wire.queue_depth = shard.queue_depth;
        wire.enqueue_blocks = shard.enqueue_blocks;
        stats.shards.push_back(wire);
      }
      const std::string encoded = EncodeStatsReport(stats);
      if (encoded.size() > kMaxFramePayload) {
        applied = Status::ResourceExhausted(
            "stats report exceeds the frame size limit");
        break;
      }
      AppendFrame(conn->out(), MsgType::kStatsReport, encoded);
      ++stats_.responses;
      return;
    }
    case MsgType::kMetrics: {
      const std::string encoded =
          obs::EncodeMetricsSnapshot(obs::Registry::Default().Snapshot());
      if (encoded.size() > kMaxFramePayload) {
        applied = Status::ResourceExhausted(
            "metrics snapshot exceeds the frame size limit");
        break;
      }
      AppendFrame(conn->out(), MsgType::kMetricsReport, encoded);
      ++stats_.responses;
      return;
    }
    case MsgType::kTraceDump: {
      if (!options_.on_trace_dump) {
        applied = Status::FailedPrecondition(
            "server has no trace output configured (start it with "
            "--trace-out)");
        break;
      }
      StatusOr<std::string> path = options_.on_trace_dump();
      if (!path.ok()) {
        applied = path.status();
        break;
      }
      AppendFrame(conn->out(), MsgType::kTraceDumpReport,
                  EncodeTraceDumpReport(*path));
      ++stats_.responses;
      return;
    }
    case MsgType::kHealth:
    case MsgType::kReady: {
      const std::string encoded =
          EncodeHealthReport(BuildHealthReport());
      // A health report is bounded by the heartbeat count (a handful of
      // components), far inside kMaxFramePayload.
      AppendFrame(conn->out(), MsgType::kHealthReport, encoded);
      ++stats_.responses;
      return;
    }
    case MsgType::kShutdown:
      loop_->RequestStop();
      break;
    default:
      applied = Status::InvalidArgument(
          "unexpected frame type " +
          std::to_string(static_cast<unsigned>(type)));
      violation = true;
      break;
  }
  if (applied.ok()) {
    AppendFrame(conn->out(), MsgType::kOk, std::string());
  } else {
    AppendFrame(conn->out(), MsgType::kError, EncodeError(applied));
  }
  ++stats_.responses;
  if (violation) loop_->Reject(conn);
}

WireHealthReport NetServer::BuildHealthReport() const {
  WireHealthReport report;
  if (options_.watchdog == nullptr) {
    // A server that can run this code has a live event loop; with no
    // watchdog that is all the liveness evidence there is.
    report.healthy = true;
    report.ready = true;
    report.reason = "no watchdog configured";
  } else {
    const obs::HealthSnapshot snapshot = options_.watchdog->Snapshot();
    report.healthy = snapshot.healthy;
    report.ready = snapshot.ready;
    report.scans = snapshot.scans;
    report.components.reserve(snapshot.components.size());
    for (const obs::ComponentHealth& component : snapshot.components) {
      WireComponentHealth wire;
      wire.name = component.name;
      wire.kind = static_cast<std::uint64_t>(component.kind);
      wire.stalled = component.stalled;
      wire.progress = component.progress;
      wire.pending = component.pending;
      wire.age_ns = component.age_ns;
      wire.detail = component.detail;
      if (component.stalled && report.reason.empty()) {
        report.reason = component.name + ": " + component.detail;
      }
      report.components.push_back(std::move(wire));
    }
    if (!report.ready && report.reason.empty()) {
      report.reason = snapshot.healthy ? "not ready (recovery incomplete)"
                                       : "unhealthy";
    }
  }
  if (options_.health_probe) {
    const Status probed = options_.health_probe();
    if (!probed.ok()) {
      report.healthy = false;
      report.ready = false;
      report.reason = probed.message();
    }
  }
  return report;
}

}  // namespace net
}  // namespace tcdp
