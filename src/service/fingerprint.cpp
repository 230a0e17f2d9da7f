#include "service/fingerprint.hpp"

#include <cstdio>

namespace asyncmg {

MatrixFingerprint matrix_fingerprint(const CsrMatrix& a) {
  MatrixFingerprint f;
  f.rows = a.rows();
  f.cols = a.cols();
  f.nnz = a.nnz();
  std::uint64_t h = fnv1a_bytes(a.row_ptr().data(),
                                a.row_ptr().size_bytes());
  h = fnv1a_bytes(a.col_idx().data(), a.col_idx().size_bytes(), h);
  // Hash the value bytes at the stored width: client matrices are fp64 (so
  // existing fingerprints are unchanged), and an fp32 copy of the same
  // operator keys differently from its fp64 original, as it must.
  a.with_values([&](const auto* v) {
    h = fnv1a_bytes(v, a.value_bytes(), h);
  });
  f.hash = h;
  return f;
}

std::string MatrixFingerprint::to_string() const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%dx%d-n%d-h%016llx", rows, cols, nnz,
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace asyncmg
