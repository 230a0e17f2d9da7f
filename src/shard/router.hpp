#pragma once
// Consistent-hash placement: the one key-to-home mapping of the system.
//
// Every backend owns `vnodes_per_backend` virtual nodes (FNV-1a of
// "backend:vnode") on a sorted ring; a key maps to the first vnode
// clockwise from its hash, and adding or removing one backend remaps only
// ~1/(N+1) of the key space -- so warm per-backend setup caches survive
// resizes. Keys are matrix fingerprints (ring_key), so the same operator
// always lands on the same backends. ClusterRouter (net/cluster.hpp) places
// each solve on the fleet with these functions; they are free functions so
// the placement policy is testable without sockets.

#include <cstdint>
#include <vector>

#include "service/fingerprint.hpp"

namespace asyncmg {

/// One virtual node: `hash` position on the ring, owned by `backend`.
struct RingNode {
  std::uint64_t hash = 0;
  std::size_t backend = 0;
  friend bool operator==(const RingNode&, const RingNode&) = default;
};

/// Builds the sorted vnode ring for `num_backends` backends. Deterministic
/// in (num_backends, vnodes_per_backend, seed).
std::vector<RingNode> build_hash_ring(std::size_t num_backends,
                                      std::size_t vnodes_per_backend,
                                      std::uint64_t seed = 0);

/// Ring key of a matrix fingerprint (rehash of the content hash + shape so
/// ring position is decorrelated from the cache key).
std::uint64_t ring_key(const MatrixFingerprint& fp);

/// Walks the ring clockwise from the first vnode at or after `key`
/// (wrapping) collecting the first `count` DISTINCT backends; element 0 is
/// the key's home. Throws std::invalid_argument on an empty ring, a zero
/// count, or fewer distinct backends than requested.
std::vector<std::size_t> select_backends(const std::vector<RingNode>& ring,
                                         std::uint64_t key,
                                         std::size_t count);

}  // namespace asyncmg
