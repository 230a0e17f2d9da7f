#pragma once
// Hierarchy serialization: the AMG setup phase is the expensive part of a
// solve (strength + coarsening + interpolation + SpGEMMs), so production
// users persist it and reload it for repeated right-hand sides, the
// HierarchyCache spills it to disk, and the multi-process service ships it
// to every worker in each solve request. All three use one binary
// container (version 3; versions 1-2 were text and are no longer read):
//
//   [8 bytes "asyncmgH"] [u32 version = 3] [u32 num_levels]
//   per level k:
//     A_k block
//     P_k block                       (absent on the coarsest level)
//     [i32 split_count] [split_count bytes, 0 = fine / 1 = coarse]
//   [u64 FNV-1a-64 of every preceding byte]
//
//   block = [i32 rows] [i32 cols] [i32 nnz] [u8 precision (0 f64, 1 f32)]
//           [(rows+1) x i32 row_ptr] [nnz x i32 col_idx]
//           [nnz x f64 or f32 values, the stored width]
//
// Arrays are the in-memory CSR arrays copied with memcpy, so a save/load
// round trip reproduces every stored value bit for bit at either width, and
// save(load(bytes)) == bytes. The container is little-endian only (the
// same byte order the wire protocol uses); serialize.cpp static_asserts a
// little-endian host instead of carrying a byte-swap path.
//
// The loader is defensive: it checks the length, magic, version and
// checksum first, then, before each allocation, that the level count is
// below 1000, that dims and nnz lie in [0, INT32_MAX), that the precision
// tag and split entries are in range and that each array fits in the bytes
// that remain; trailing bytes are rejected. CsrMatrix::from_csr then checks
// row_ptr and column indices and Hierarchy::from_levels the interpolation
// chain. Every failure is a std::runtime_error; no input makes the loader
// read out of bounds or allocate much beyond the input's own size.

#include <iosfwd>
#include <string>

#include "amg/hierarchy.hpp"

namespace asyncmg {

/// Writes the hierarchy (operators, interpolations, splittings).
void save_hierarchy(std::ostream& out, const Hierarchy& h);
void save_hierarchy_file(const std::string& path, const Hierarchy& h);

/// Reads a hierarchy previously written by save_hierarchy; the stream must
/// hold exactly one container. Throws std::runtime_error on malformed
/// input.
Hierarchy load_hierarchy(std::istream& in);
Hierarchy load_hierarchy_file(const std::string& path);

/// In-memory round-trip: the serialized container as a string. This is the
/// primitive the HierarchyCache spill path and the solve-request wire
/// message build on.
std::string save_hierarchy_string(const Hierarchy& h);
Hierarchy load_hierarchy_string(const std::string& bytes);

}  // namespace asyncmg
