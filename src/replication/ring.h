#ifndef TCDP_REPLICATION_RING_H_
#define TCDP_REPLICATION_RING_H_

/// \file
/// ConsistentHashRing: user-name -> endpoint placement for the router
/// (replication/router.h).
///
/// Classic virtual-node consistent hashing: every endpoint projects
/// `virtual_nodes` points onto a 64-bit ring (Fnv1a64 from
/// common/hash.h, the hash ShardedReleaseService::ShardOf partitions
/// with, then a 64-bit finalizer), and a user
/// routes to the first endpoint point at or after the hash of its
/// name. Adding an endpoint to an N-endpoint ring therefore moves only
/// ~1/(N+1) of the users — the property the router's rebalancing (and
/// tests/router_test.cc) is built on. Deterministic: no randomness, so
/// every process that replays the same journal computes the same
/// placement.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace tcdp {
namespace replication {

class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(std::size_t virtual_nodes = 64)
      : virtual_nodes_(virtual_nodes == 0 ? 1 : virtual_nodes) {}

  /// AlreadyExists / NotFound on redundant mutations (the router
  /// journal must never record a no-op).
  Status AddEndpoint(const std::string& endpoint);
  Status RemoveEndpoint(const std::string& endpoint);

  bool HasEndpoint(const std::string& endpoint) const {
    return endpoints_.count(endpoint) != 0;
  }
  /// Sorted (set order) endpoint list.
  std::vector<std::string> endpoints() const {
    return std::vector<std::string>(endpoints_.begin(), endpoints_.end());
  }
  std::size_t size() const { return endpoints_.size(); }

  /// FailedPrecondition on an empty ring.
  StatusOr<std::string> Lookup(const std::string& name) const;

 private:
  std::size_t virtual_nodes_;
  /// Ring point -> endpoint. Collisions resolve to the map's last
  /// writer; with 64-bit points they are effectively absent.
  std::map<std::uint64_t, std::string> points_;
  std::set<std::string> endpoints_;
};

}  // namespace replication
}  // namespace tcdp

#endif  // TCDP_REPLICATION_RING_H_
