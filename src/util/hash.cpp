#include "util/hash.hpp"

#include <cstring>

namespace asyncmg {

std::uint64_t fnv1a_bytes(const void* data, std::size_t len,
                          std::uint64_t seed) {
  // FNV-1a mixing applied to 8-byte words with a byte-wise tail: the
  // fingerprint hashes megabytes of CSR arrays on every request, and the
  // canonical byte-at-a-time loop would cost as much as the solve it keys.
  constexpr std::uint64_t kPrime = 1099511628211ull;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h ^= w;
    h *= kPrime;
  }
  for (; i < len; ++i) {
    h ^= p[i];
    h *= kPrime;
  }
  return h;
}

}  // namespace asyncmg
