#include "backend/backend.hpp"

#include <omp.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "backend/backend_simd.hpp"
#include "sparse/parallel.hpp"
#include "sparse/vec.hpp"
#include "util/thread_context.hpp"

namespace asyncmg {

// ---------------------------------------------------------------------------
// Base-class (scalar oracle) kernel set: delegates verbatim to the existing
// OpenMP CSR/SELL engine, so backend #1 IS the pre-backend code path.
// ---------------------------------------------------------------------------

void KernelBackend::sell_spmv(const SellMatrix& a, const Vector& x, Vector& y,
                              bool parallel) const {
  if (parallel) {
    a.spmv_omp(x, y);
  } else {
    a.spmv(x, y);
  }
}

void KernelBackend::sell_residual(const SellMatrix& a, const Vector& b,
                                  const Vector& x, Vector& r,
                                  bool parallel) const {
  if (parallel) {
    a.residual_omp(b, x, r);
  } else {
    a.residual(b, x, r);
  }
}

void KernelBackend::sell_diag_sweep(const SellMatrix& a, const Vector& d,
                                    const Vector& b, const Vector& x_in,
                                    Vector& x_out, bool parallel) const {
  if (parallel) {
    a.fused_diag_sweep_omp(d, b, x_in, x_out);
  } else {
    a.fused_diag_sweep(d, b, x_in, x_out);
  }
}

void KernelBackend::sell_sub_spmv(const SellMatrix& a, const Vector& r,
                                  const Vector& e, Vector& tmp,
                                  bool parallel) const {
  if (parallel) {
    a.fused_sub_spmv_omp(r, e, tmp);
  } else {
    a.fused_sub_spmv(r, e, tmp);
  }
}

void KernelBackend::csr_spmv(const CsrMatrix& a, const Vector& x, Vector& y,
                             bool parallel) const {
  if (parallel) {
    a.spmv_omp(x, y);
  } else {
    a.spmv(x, y);
  }
}

void KernelBackend::csr_spmv_rows(const CsrMatrix& a, const Vector& x,
                                  Vector& y, Index begin, Index end) const {
  a.spmv_rows(x, y, begin, end);
}

void KernelBackend::csr_spmv_add(const CsrMatrix& a, const Vector& x,
                                 Vector& y, double alpha,
                                 bool parallel) const {
  if (parallel) {
    a.spmv_add_omp(x, y, alpha);
  } else {
    a.spmv_add(x, y, alpha);
  }
}

void KernelBackend::csr_spmv_transpose(const CsrMatrix& a, const Vector& x,
                                       Vector& y) const {
  a.spmv_transpose(x, y);
}

void KernelBackend::csr_residual(const CsrMatrix& a, const Vector& b,
                                 const Vector& x, Vector& r,
                                 bool parallel) const {
  if (parallel) {
    a.residual_omp(b, x, r);
  } else {
    a.residual(b, x, r);
  }
}

void KernelBackend::csr_residual_rows(const CsrMatrix& a, const Vector& b,
                                      const Vector& x, Vector& r, Index begin,
                                      Index end) const {
  a.residual_rows(b, x, r, begin, end);
}

void KernelBackend::csr_diag_sweep(const CsrMatrix& a, const Vector& d,
                                   const Vector& b, const Vector& x_in,
                                   Vector& x_out, bool parallel) const {
  if (parallel) {
    fused_diag_sweep_omp(a, d, b, x_in, x_out);
  } else {
    fused_diag_sweep(a, d, b, x_in, x_out);
  }
}

void KernelBackend::csr_sub_spmv(const CsrMatrix& a, const Vector& r,
                                 const Vector& e, Vector& tmp,
                                 bool parallel) const {
  if (parallel) {
    fused_sub_spmv_omp(a, r, e, tmp);
  } else {
    fused_sub_spmv(a, r, e, tmp);
  }
}

void KernelBackend::restrict_apply(const CsrMatrix& rt, const Vector& x,
                                   Vector& y, bool parallel) const {
  csr_spmv(rt, x, y, parallel);
}

void KernelBackend::prolong_add(const CsrMatrix& p, const Vector& e_c,
                                Vector& e, bool parallel) const {
  csr_spmv_add(p, e_c, e, 1.0, parallel);
}

double KernelBackend::dot(const Vector& x, const Vector& y) const {
  return asyncmg::dot(x, y);
}

void KernelBackend::axpy(double alpha, const Vector& x, Vector& y) const {
  asyncmg::axpy(alpha, x, y);
}

void KernelBackend::prepare_workspace(Vector& v, std::size_t n) const {
  v.resize(n);
  if (this_thread_is_pool_worker() ||
      static_cast<Index>(n) < kSetupSerialCutoff) {
    return;
  }
  double* const p = v.data();
  const auto in = static_cast<Index>(n);
#pragma omp parallel for schedule(static)
  for (Index i = 0; i < in; ++i) p[static_cast<std::size_t>(i)] = 0.0;
}

namespace detail {

// The probes live here (not in the SIMD TUs) so they exist even when those
// TUs are stubs; __builtin_cpu_supports checks CPUID plus the OS XCR0 state.
bool cpu_supports_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_supports_avx512f() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

}  // namespace detail

namespace {

class ScalarBackend final : public KernelBackend {
 public:
  BackendKind kind() const override { return BackendKind::kScalar; }
};

const KernelBackend* simd_backend(BackendKind k) {
  switch (k) {
    case BackendKind::kAvx2:
      return detail::avx2_backend();
    case BackendKind::kAvx512:
      return detail::avx512_backend();
    default:
      return nullptr;
  }
}

/// One stderr line per distinct mishap slot; services resolve a backend per
/// setup, so the fallback warning must not spam.
bool warn_once(int slot) {
  static std::atomic<unsigned> warned{0};
  const unsigned bit = 1u << slot;
  return (warned.fetch_or(bit, std::memory_order_relaxed) & bit) == 0;
}

bool parse_backend_kind(const char* s, BackendKind& out) {
  for (const BackendKind k :
       {BackendKind::kAuto, BackendKind::kScalar, BackendKind::kAvx2,
        BackendKind::kAvx512}) {
    if (std::strcmp(s, backend_kind_name(k)) == 0) {
      out = k;
      return true;
    }
  }
  return false;
}

}  // namespace

bool backend_compiled(BackendKind k) {
  switch (k) {
    case BackendKind::kScalar:
      return true;
    case BackendKind::kAvx2:
    case BackendKind::kAvx512:
      return simd_backend(k) != nullptr;
    case BackendKind::kAuto:
      return false;
  }
  return false;
}

bool backend_supported(BackendKind k) {
  if (!backend_compiled(k)) return false;
  switch (k) {
    case BackendKind::kAvx2:
      return detail::cpu_supports_avx2();
    case BackendKind::kAvx512:
      return detail::cpu_supports_avx512f();
    default:
      return true;
  }
}

BackendKind detect_backend() {
  if (backend_supported(BackendKind::kAvx512)) return BackendKind::kAvx512;
  if (backend_supported(BackendKind::kAvx2)) return BackendKind::kAvx2;
  return BackendKind::kScalar;
}

BackendKind resolve_backend_kind(BackendKind requested) {
  BackendKind want = requested;
  if (want == BackendKind::kAuto) {
    if (const char* env = std::getenv("ASYNCMG_BACKEND");
        env != nullptr && *env != '\0') {
      if (!parse_backend_kind(env, want)) {
        if (warn_once(0)) {
          std::fprintf(stderr,
                       "asyncmg: ignoring invalid ASYNCMG_BACKEND='%s'"
                       " (want scalar|avx2|avx512|auto)\n",
                       env);
        }
        want = BackendKind::kAuto;
      }
    }
  }
  if (want == BackendKind::kAuto) return detect_backend();
  if (backend_supported(want)) return want;
  const BackendKind fell = detect_backend();
  if (warn_once(want == BackendKind::kAvx512 ? 1 : 2)) {
    std::fprintf(stderr,
                 "asyncmg: kernel backend '%s' %s on this host;"
                 " falling back to '%s'\n",
                 backend_kind_name(want),
                 backend_compiled(want) ? "is not supported by the CPU"
                                        : "was not compiled into this binary",
                 backend_kind_name(fell));
  }
  return fell;
}

const KernelBackend& scalar_backend() {
  static const ScalarBackend be;
  return be;
}

const KernelBackend& backend_for(BackendKind k) {
  if (k == BackendKind::kAvx2 || k == BackendKind::kAvx512) {
    if (backend_supported(k)) return *simd_backend(k);
  }
  return scalar_backend();
}

const KernelBackend& resolve_backend(const KernelEngineOptions& opts) {
  return backend_for(resolve_backend_kind(opts.backend));
}

std::string supported_backends_string() {
  std::string s = "scalar";
  for (const BackendKind k : {BackendKind::kAvx2, BackendKind::kAvx512}) {
    if (backend_supported(k)) {
      s += ' ';
      s += backend_kind_name(k);
    }
  }
  return s;
}

}  // namespace asyncmg
