#pragma once
// FNV-1a-64 over byte ranges: the content hash behind matrix fingerprints,
// the consistent-hash ring, the worker setup cache key and the serialized
// hierarchy checksum.

#include <cstddef>
#include <cstdint>

namespace asyncmg {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;

/// FNV-1a over an arbitrary byte range, seedable for chaining. Mixes 8-byte
/// words with a byte-wise tail; every step is a bijection of the running
/// state, so any single changed word (hence any single bit flip) changes
/// the result.
std::uint64_t fnv1a_bytes(const void* data, std::size_t len,
                          std::uint64_t seed = kFnvOffsetBasis);

}  // namespace asyncmg
