#include "sparse/kernels.hpp"

#include <omp.h>

#include <algorithm>
#include <cassert>

#include "sparse/parallel.hpp"
#include "util/thread_context.hpp"

namespace asyncmg {

bool solve_omp_eligible(Index rows) {
  return rows >= kSetupSerialCutoff && omp_get_max_threads() > 1 &&
         !this_thread_is_pool_worker();
}

const char* backend_kind_name(BackendKind k) {
  switch (k) {
    case BackendKind::kAuto:
      return "auto";
    case BackendKind::kScalar:
      return "scalar";
    case BackendKind::kAvx2:
      return "avx2";
    case BackendKind::kAvx512:
      return "avx512";
  }
  return "unknown";
}

namespace {

/// Same gate as the CsrMatrix solve kernels (including the one-thread-team
/// bypass).
bool use_solve_omp(Index rows) { return solve_omp_eligible(rows); }

/// Static partition matching `omp parallel for schedule(static)`.
struct RowRange {
  Index lo, hi;
};
RowRange static_rows(Index n, int nt, int t) {
  const Index chunk = (n + nt - 1) / nt;
  const Index lo = std::min<Index>(n, chunk * t);
  return {lo, std::min<Index>(n, lo + chunk)};
}

// Row-range bodies shared by the serial and OpenMP entry points. Keeping the
// hot loop in one function called from inside the parallel region sidesteps
// the OpenMP outlining pessimization (the outlined body loses aliasing
// information and measures ~30% slower single-thread), and makes the
// serial/parallel bitwise identity true by construction: both run exactly
// this code per row.

// Templated over the stored value type (double/float per the matrix's
// Precision): values widen to double on load and accumulators stay double,
// so the fp64 instantiation is the pre-template code bit for bit.

template <class AV>
void diag_sweep_rows(const Index* rp, const Index* ci, const AV* av,
                     const double* dp, const double* bp, const double* xi,
                     double* xo, Index lo, Index hi) {
  for (Index i = lo; i < hi; ++i) {
    double s = bp[i];
    for (Index k = rp[i]; k < rp[i + 1]; ++k) {
      s -= av[k] * xi[ci[k]];
    }
    xo[i] = xi[i] + dp[i] * s;
  }
}

template <class AV>
void sub_spmv_rows(const Index* rp, const Index* ci, const AV* av,
                   const double* ep, const double* rr, double* tp, Index lo,
                   Index hi) {
  for (Index i = lo; i < hi; ++i) {
    double s = 0.0;
    for (Index k = rp[i]; k < rp[i + 1]; ++k) {
      s += av[k] * ep[ci[k]];
    }
    tp[i] = rr[i] - s;
  }
}

}  // namespace

bool level_prefers_sell(const KernelEngineOptions& opts, Index rows,
                        bool diagonal_smoother, bool coarsest) {
  return opts.use_sell && diagonal_smoother && !coarsest &&
         rows >= opts.sell_min_rows;
}

void fused_diag_sweep(const CsrMatrix& a, const Vector& d, const Vector& b,
                      const Vector& x_in, Vector& x_out) {
  assert(a.rows() == a.cols() && static_cast<Index>(d.size()) == a.rows() &&
         static_cast<Index>(b.size()) == a.rows() &&
         static_cast<Index>(x_in.size()) == a.rows() && &x_in != &x_out);
  const Index n = a.rows();
  x_out.resize(static_cast<std::size_t>(n));
  a.with_values([&](const auto* av) {
    diag_sweep_rows(a.row_ptr().data(), a.col_idx().data(), av, d.data(),
                    b.data(), x_in.data(), x_out.data(), 0, n);
  });
}

void fused_diag_sweep_omp(const CsrMatrix& a, const Vector& d, const Vector& b,
                          const Vector& x_in, Vector& x_out) {
  assert(a.rows() == a.cols() && static_cast<Index>(d.size()) == a.rows() &&
         static_cast<Index>(b.size()) == a.rows() &&
         static_cast<Index>(x_in.size()) == a.rows() && &x_in != &x_out);
  const Index n = a.rows();
  x_out.resize(static_cast<std::size_t>(n));
  const Index* const rp = a.row_ptr().data();
  const Index* const ci = a.col_idx().data();
  const double* const xi = x_in.data();
  const double* const bp = b.data();
  const double* const dp = d.data();
  double* const xo = x_out.data();
  a.with_values([&](const auto* av) {
    if (!use_solve_omp(n)) {
      diag_sweep_rows(rp, ci, av, dp, bp, xi, xo, 0, n);
      return;
    }
#pragma omp parallel
    {
      const RowRange rg =
          static_rows(n, omp_get_num_threads(), omp_get_thread_num());
      diag_sweep_rows(rp, ci, av, dp, bp, xi, xo, rg.lo, rg.hi);
    }
  });
}

void fused_sub_spmv(const CsrMatrix& a, const Vector& r, const Vector& e,
                    Vector& tmp) {
  assert(static_cast<Index>(r.size()) == a.rows() &&
         static_cast<Index>(e.size()) == a.cols());
  const Index n = a.rows();
  tmp.resize(static_cast<std::size_t>(n));
  a.with_values([&](const auto* av) {
    sub_spmv_rows(a.row_ptr().data(), a.col_idx().data(), av, e.data(),
                  r.data(), tmp.data(), 0, n);
  });
}

void fused_sub_spmv_omp(const CsrMatrix& a, const Vector& r, const Vector& e,
                        Vector& tmp) {
  assert(static_cast<Index>(r.size()) == a.rows() &&
         static_cast<Index>(e.size()) == a.cols());
  const Index n = a.rows();
  tmp.resize(static_cast<std::size_t>(n));
  const Index* const rp = a.row_ptr().data();
  const Index* const ci = a.col_idx().data();
  const double* const ep = e.data();
  const double* const rr = r.data();
  double* const tp = tmp.data();
  a.with_values([&](const auto* av) {
    if (!use_solve_omp(n)) {
      sub_spmv_rows(rp, ci, av, ep, rr, tp, 0, n);
      return;
    }
#pragma omp parallel
    {
      const RowRange rg =
          static_rows(n, omp_get_num_threads(), omp_get_thread_num());
      sub_spmv_rows(rp, ci, av, ep, rr, tp, rg.lo, rg.hi);
    }
  });
}

}  // namespace asyncmg
