#include "server/snapshot.h"

#include "server/event_log.h"
#include "server/records.h"

namespace tcdp {
namespace server {

StatusOr<std::string> EncodeShardSnapshot(const ShardSnapshot& snapshot) {
  if (snapshot.names.size() != snapshot.bank.users.size()) {
    return Status::InvalidArgument(
        "EncodeShardSnapshot: " + std::to_string(snapshot.names.size()) +
        " names for " + std::to_string(snapshot.bank.users.size()) +
        " users");
  }
  std::string out(kEventLogMagic);
  SnapHeaderRecord header;
  header.applied_records = snapshot.applied_records;
  header.horizon = snapshot.bank.schedule.size();
  header.num_users = snapshot.bank.users.size();
  header.alpha_resolution = snapshot.alpha_resolution;
  TCDP_RETURN_IF_ERROR(AppendRecordFrame(&out, EventType::kSnapHeader,
                                         EncodeSnapHeader(header)));
  for (std::size_t u = 0; u < snapshot.bank.users.size(); ++u) {
    const AccountantBank::UserImage& user = snapshot.bank.users[u];
    SnapUserRecord record;
    record.name = snapshot.names[u];
    record.join = user.join;
    record.bpl_last = user.bpl_last;
    record.eps_sum = user.eps_sum;
    record.image.correlations = user.correlations;
    record.image.cache_alpha_resolution = snapshot.alpha_resolution;
    TCDP_RETURN_IF_ERROR(AppendRecordFrame(&out, EventType::kSnapUser,
                                           EncodeSnapUser(record)));
  }
  for (std::size_t t = 0; t < snapshot.bank.schedule.size(); ++t) {
    ReleaseRecord record;
    record.epsilon = snapshot.bank.schedule[t];
    record.all = snapshot.bank.participation[t].is_all();
    if (!record.all) record.mask = snapshot.bank.participation[t];
    TCDP_RETURN_IF_ERROR(AppendRecordFrame(&out, EventType::kSnapRelease,
                                           EncodeRelease(record)));
  }
  return out;
}

StatusOr<ShardSnapshot> ReadShardSnapshot(const std::string& path) {
  TCDP_ASSIGN_OR_RETURN(ReadLogResult log, ReadEventLog(path));
  if (!log.clean) {
    return Status::InvalidArgument("ReadShardSnapshot: " + path +
                                   " has a torn tail (" + log.tail_error +
                                   ") — snapshots must be complete");
  }
  if (log.records.empty() ||
      log.records[0].type != EventType::kSnapHeader) {
    return Status::InvalidArgument(
        "ReadShardSnapshot: missing kSnapHeader record");
  }
  TCDP_ASSIGN_OR_RETURN(SnapHeaderRecord header,
                        DecodeSnapHeader(log.records[0].payload));
  // Bound each count by the actual record count BEFORE summing — a
  // crafted header with num_users near UINT64_MAX would otherwise wrap
  // the sum and sail past this check into out-of-bounds indexing.
  const std::uint64_t available = log.records.size();
  if (header.num_users >= available || header.horizon >= available ||
      1 + header.num_users + header.horizon != available) {
    return Status::InvalidArgument(
        "ReadShardSnapshot: " + std::to_string(available) +
        " records, header declares 1+" + std::to_string(header.num_users) +
        "+" + std::to_string(header.horizon));
  }
  ShardSnapshot snapshot;
  snapshot.applied_records = header.applied_records;
  snapshot.alpha_resolution = header.alpha_resolution;
  for (std::uint64_t u = 0; u < header.num_users; ++u) {
    const EventRecord& record = log.records[1 + u];
    if (record.type != EventType::kSnapUser) {
      return Status::InvalidArgument(
          "ReadShardSnapshot: record " + std::to_string(1 + u) +
          " is not kSnapUser");
    }
    TCDP_ASSIGN_OR_RETURN(SnapUserRecord user,
                          DecodeSnapUser(record.payload));
    if (user.join > header.horizon) {
      return Status::InvalidArgument(
          "ReadShardSnapshot: user join past the snapshot horizon");
    }
    if (user.image.cache_alpha_resolution != snapshot.alpha_resolution) {
      return Status::InvalidArgument(
          "ReadShardSnapshot: user quantization disagrees with the header");
    }
    snapshot.names.push_back(std::move(user.name));
    AccountantBank::UserImage image;
    image.correlations = std::move(user.image.correlations);
    image.join = static_cast<std::uint32_t>(user.join);
    image.bpl_last = user.bpl_last;
    image.eps_sum = user.eps_sum;
    snapshot.bank.users.push_back(std::move(image));
  }
  for (std::uint64_t t = 0; t < header.horizon; ++t) {
    const EventRecord& record = log.records[1 + header.num_users + t];
    if (record.type != EventType::kSnapRelease) {
      return Status::InvalidArgument(
          "ReadShardSnapshot: record " +
          std::to_string(1 + header.num_users + t) + " is not kSnapRelease");
    }
    TCDP_ASSIGN_OR_RETURN(ReleaseRecord release,
                          DecodeRelease(record.payload));
    snapshot.bank.schedule.push_back(release.epsilon);
    snapshot.bank.participation.push_back(
        release.all ? PackedMask::All() : std::move(release.mask));
  }
  return snapshot;
}

}  // namespace server
}  // namespace tcdp
