#include "server/replay.h"

#include <utility>

#include "server/records.h"

namespace tcdp {
namespace server {

Status ApplyWalRecord(const EventRecord& record, AccountantBank* bank,
                      std::vector<std::string>* names) {
  if (record.type == EventType::kAddUser) {
    TCDP_ASSIGN_OR_RETURN(AddUserRecord add, DecodeAddUser(record.payload));
    bank->AddUser(std::move(add.image.correlations));
    names->push_back(std::move(add.name));
    return Status::OK();
  }
  if (record.type == EventType::kRelease) {
    TCDP_ASSIGN_OR_RETURN(ReleaseRecord release,
                          DecodeRelease(record.payload));
    if (release.all) {
      return bank->RecordRelease(release.epsilon);
    }
    // A bit past the enrolled users selects nobody, as in Restore.
    std::vector<std::size_t> participants;
    release.mask.ForEachSetBit([&](std::size_t u) {
      if (u < names->size()) participants.push_back(u);
    });
    return bank->RecordRelease(release.epsilon, participants);
  }
  return Status::InvalidArgument(
      "ApplyWalRecord: unexpected record type " +
      std::to_string(static_cast<int>(record.type)));
}

}  // namespace server
}  // namespace tcdp
