#include "replication/ring.h"

#include "common/hash.h"

namespace tcdp {
namespace replication {

namespace {

/// MurmurHash3's 64-bit finalizer. FNV-1a alone has weak avalanche on
/// near-identical short strings — an endpoint's 64 "ep#i" points land
/// clustered on the ring and one endpoint captures almost every user.
/// The finalizer spreads them; measured in tests/router_test.cc.
std::uint64_t Mix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

std::uint64_t VirtualPoint(const std::string& endpoint, std::size_t index) {
  return Mix64(Fnv1a64(endpoint + "#" + std::to_string(index)));
}

}  // namespace

Status ConsistentHashRing::AddEndpoint(const std::string& endpoint) {
  if (endpoint.empty()) {
    return Status::InvalidArgument("ring: empty endpoint");
  }
  if (!endpoints_.insert(endpoint).second) {
    return Status::AlreadyExists("ring: endpoint '" + endpoint +
                                 "' already present");
  }
  for (std::size_t i = 0; i < virtual_nodes_; ++i) {
    points_[VirtualPoint(endpoint, i)] = endpoint;
  }
  return Status::OK();
}

Status ConsistentHashRing::RemoveEndpoint(const std::string& endpoint) {
  if (endpoints_.erase(endpoint) == 0) {
    return Status::NotFound("ring: endpoint '" + endpoint +
                            "' not present");
  }
  for (std::size_t i = 0; i < virtual_nodes_; ++i) {
    auto it = points_.find(VirtualPoint(endpoint, i));
    // A collision may have been overwritten by another endpoint's
    // point; erase only points we still own.
    if (it != points_.end() && it->second == endpoint) points_.erase(it);
  }
  return Status::OK();
}

StatusOr<std::string> ConsistentHashRing::Lookup(
    const std::string& name) const {
  if (points_.empty()) {
    return Status::FailedPrecondition("ring: no endpoints");
  }
  auto it = points_.lower_bound(Mix64(Fnv1a64(name)));
  if (it == points_.end()) it = points_.begin();  // wrap
  return it->second;
}

}  // namespace replication
}  // namespace tcdp
