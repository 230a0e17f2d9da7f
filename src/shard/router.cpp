#include "shard/router.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace asyncmg {

std::vector<RingNode> build_hash_ring(std::size_t num_backends,
                                      std::size_t vnodes_per_backend,
                                      std::uint64_t seed) {
  if (num_backends < 1) {
    throw std::invalid_argument("build_hash_ring: num_backends must be >= 1");
  }
  if (vnodes_per_backend < 1) {
    throw std::invalid_argument(
        "build_hash_ring: vnodes_per_backend must be >= 1");
  }
  std::vector<RingNode> ring;
  ring.reserve(num_backends * vnodes_per_backend);
  for (std::size_t b = 0; b < num_backends; ++b) {
    for (std::size_t v = 0; v < vnodes_per_backend; ++v) {
      const std::string label = "backend-" + std::to_string(b) + ":" +
                                std::to_string(v) + ":" +
                                std::to_string(seed);
      ring.push_back({fnv1a_bytes(label.data(), label.size()), b});
    }
  }
  std::sort(ring.begin(), ring.end(), [](const RingNode& l, const RingNode& r) {
    return l.hash < r.hash || (l.hash == r.hash && l.backend < r.backend);
  });
  return ring;
}

std::uint64_t ring_key(const MatrixFingerprint& fp) {
  // Rehash so ring position is independent of the cache-key hash value.
  struct {
    std::uint64_t h;
    std::int64_t rows, cols, nnz;
  } probe{fp.hash, fp.rows, fp.cols, fp.nnz};
  return fnv1a_bytes(&probe, sizeof(probe));
}

std::vector<std::size_t> select_backends(const std::vector<RingNode>& ring,
                                         std::uint64_t key,
                                         std::size_t count) {
  if (ring.empty() || count == 0) {
    throw std::invalid_argument("select_backends: empty ring or zero count");
  }
  // First vnode clockwise from key, then keep walking collecting distinct
  // backends (wrapping once).
  const auto it = std::lower_bound(
      ring.begin(), ring.end(), key,
      [](const RingNode& node, std::uint64_t k) { return node.hash < k; });
  const auto start = static_cast<std::size_t>(it - ring.begin()) % ring.size();
  std::vector<std::size_t> out;
  for (std::size_t step = 0; step < ring.size() && out.size() < count;
       ++step) {
    const std::size_t backend = ring[(start + step) % ring.size()].backend;
    if (std::find(out.begin(), out.end(), backend) == out.end()) {
      out.push_back(backend);
    }
  }
  if (out.size() < count) {
    throw std::invalid_argument(
        "select_backends: ring has fewer distinct backends than requested");
  }
  return out;
}

}  // namespace asyncmg
