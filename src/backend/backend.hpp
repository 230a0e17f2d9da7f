#pragma once
// Kernel backend abstraction (DESIGN.md section 15).
//
// AMGCL-style split (Demidov, PAPERS.md): the builder produces a
// backend-neutral hierarchy (CSR operators plus optional SELL-C-σ forms),
// and a KernelBackend supplies the solve-phase kernel set — SpMV, the fused
// diagonal sweep, the fused sub-SpMV, the residual, restrict/prolong
// application, axpy/dot, and workspace preparation. MgSetup resolves one
// backend per hierarchy from KernelEngineOptions::backend and every cycle
// driver (multiplicative, additive, async teams, shard workers) runs its
// kernels through it.
//
// Bitwise contract: every backend's result is bit-identical to the scalar
// oracle (the existing OpenMP CSR/SELL engine) for every kernel, precision,
// and thread count. The SIMD backends achieve this by vectorizing ACROSS
// SELL chunk lanes — one matrix row per SIMD lane — so each row's serial
// CSR-order accumulation is reproduced exactly; see sparse/sell_ops.hpp and
// DESIGN.md §15 for the full argument. Because a CSR row's accumulation is
// a serial dependence chain, the CSR kernels, transfers, and reductions are
// NOT ISA-specialized: they are shared scalar code inherited from this base
// class, and SIMD backends override only the SELL entry points. A future
// CUDA backend slots into the same seam (ISSUE: it would override the
// workspace hooks too and relax the bitwise contract to an error bound;
// the dispatch below already reserves the selection path).
//
// Backends are stateless singletons; pointers returned by the resolvers are
// valid for the process lifetime and safe to share across threads.

#include <cstddef>
#include <string>

#include "sparse/csr.hpp"
#include "sparse/kernels.hpp"
#include "sparse/sellcs.hpp"
#include "sparse/types.hpp"

namespace asyncmg {

class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  /// Concrete kind (never kAuto).
  virtual BackendKind kind() const = 0;
  const char* name() const { return backend_kind_name(kind()); }

  // --- SELL-C-σ solve kernels (the ISA-specialized set) -------------------
  //
  // `parallel` requests the engine's standard nnz-balanced chunk split; it
  // is still subject to solve_omp_eligible (pool workers and small matrices
  // stay serial), and chunks own disjoint output rows, so the result is
  // identical for every thread count either way.

  /// y = A x.
  virtual void sell_spmv(const SellMatrix& a, const Vector& x, Vector& y,
                         bool parallel) const;
  /// r = b - A x (residual accumulation order).
  virtual void sell_residual(const SellMatrix& a, const Vector& b,
                             const Vector& x, Vector& r, bool parallel) const;
  /// x_out = x_in + d .* (b - A x_in), the fused damped-Jacobi sweep.
  virtual void sell_diag_sweep(const SellMatrix& a, const Vector& d,
                               const Vector& b, const Vector& x_in,
                               Vector& x_out, bool parallel) const;
  /// tmp = r - A e (spmv accumulation order), the fused restriction input.
  virtual void sell_sub_spmv(const SellMatrix& a, const Vector& r,
                             const Vector& e, Vector& tmp,
                             bool parallel) const;

  // --- CSR kernels (shared scalar engine; see header comment) -------------

  virtual void csr_spmv(const CsrMatrix& a, const Vector& x, Vector& y,
                        bool parallel) const;
  virtual void csr_spmv_rows(const CsrMatrix& a, const Vector& x, Vector& y,
                             Index begin, Index end) const;
  /// y += alpha * A x.
  virtual void csr_spmv_add(const CsrMatrix& a, const Vector& x, Vector& y,
                            double alpha, bool parallel) const;
  virtual void csr_spmv_transpose(const CsrMatrix& a, const Vector& x,
                                  Vector& y) const;
  virtual void csr_residual(const CsrMatrix& a, const Vector& b,
                            const Vector& x, Vector& r, bool parallel) const;
  virtual void csr_residual_rows(const CsrMatrix& a, const Vector& b,
                                 const Vector& x, Vector& r, Index begin,
                                 Index end) const;
  virtual void csr_diag_sweep(const CsrMatrix& a, const Vector& d,
                              const Vector& b, const Vector& x_in,
                              Vector& x_out, bool parallel) const;
  virtual void csr_sub_spmv(const CsrMatrix& a, const Vector& r,
                            const Vector& e, Vector& tmp, bool parallel) const;

  // --- Transfer application ------------------------------------------------

  /// y = R x through the explicitly stored transpose R = P^T (row-parallel).
  virtual void restrict_apply(const CsrMatrix& rt, const Vector& x, Vector& y,
                              bool parallel) const;
  /// e += P e_c.
  virtual void prolong_add(const CsrMatrix& p, const Vector& e_c, Vector& e,
                           bool parallel) const;

  // --- BLAS-1 --------------------------------------------------------------

  virtual double dot(const Vector& x, const Vector& y) const;
  virtual void axpy(double alpha, const Vector& x, Vector& y) const;

  // --- Workspace -----------------------------------------------------------

  /// Sizes one cycle-workspace buffer. Large buffers are re-zeroed by a
  /// parallel loop so first-touch NUMA policies place pages with the team
  /// that runs the kernels; pool workers and small buffers skip it, exactly
  /// like the solve kernels' OpenMP gate.
  virtual void prepare_workspace(Vector& v, std::size_t n) const;
};

// --- Dispatch ---------------------------------------------------------------

/// The TU for `k` was compiled into this binary (per-TU -mavx2/-mavx512f;
/// false on non-x86 builds). kScalar is always compiled; kAuto is never.
bool backend_compiled(BackendKind k);

/// backend_compiled(k) AND the running CPU reports the ISA (CPUID with OS
/// state, via __builtin_cpu_supports).
bool backend_supported(BackendKind k);

/// Widest supported backend on this host (at least kScalar).
BackendKind detect_backend();

/// Resolves a request to a concrete supported kind: an explicit request
/// pins the kind (falling back to detect_backend() with a one-time logged
/// warning when unsupported); kAuto consults ASYNCMG_BACKEND
/// (scalar|avx2|avx512|auto, invalid values warn once and mean auto) and
/// otherwise picks detect_backend(). Never returns kAuto, never throws.
BackendKind resolve_backend_kind(BackendKind requested);

/// Singleton backend instance for a concrete supported kind (kScalar for
/// anything unsupported or kAuto — callers should resolve first).
const KernelBackend& backend_for(BackendKind k);

/// resolve_backend_kind + backend_for in one step: the backend an engine
/// configured with `opts` runs on.
const KernelBackend& resolve_backend(const KernelEngineOptions& opts);

/// The scalar oracle backend (always available).
const KernelBackend& scalar_backend();

/// "scalar avx2 avx512"-style list of supported kinds, for logs/stats.
std::string supported_backends_string();

}  // namespace asyncmg
