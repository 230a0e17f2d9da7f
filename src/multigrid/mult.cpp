#include "multigrid/mult.hpp"

#include <cmath>
#include <stdexcept>

#include "sparse/vec.hpp"
#include "telemetry/sink.hpp"
#include "util/timer.hpp"

namespace asyncmg {

MultiplicativeMg::MultiplicativeMg(const MgSetup& setup, bool symmetric,
                                   int pre_sweeps, int post_sweeps, int gamma)
    : s_(&setup),
      be_(&setup.backend()),
      symmetric_(symmetric),
      pre_sweeps_(pre_sweeps),
      post_sweeps_(post_sweeps),
      gamma_(gamma),
      active_(setup.num_levels()),
      ws_(setup) {
  if (pre_sweeps < 0 || post_sweeps < 0 || pre_sweeps + post_sweeps == 0) {
    throw std::invalid_argument(
        "MultiplicativeMg: need nonnegative sweep counts, at least one");
  }
  if (gamma < 1) {
    throw std::invalid_argument("MultiplicativeMg: gamma must be >= 1");
  }
}

void MultiplicativeMg::set_telemetry(TelemetrySink* sink, std::size_t tid) {
  tel_ = sink;
  tel_tid_ = tid;
  if (sink != nullptr) {
    ctr_bytes_ = &sink->metrics().counter("kernel.bytes_moved");
    ctr_sweeps_ = &sink->metrics().counter("kernel.fused_sweeps");
    // Tag the kernel backend once per attach; the scalar oracle emits
    // nothing, keeping the golden trace fixtures byte-identical.
    if (be_->kind() != BackendKind::kScalar) {
      sink->record(tid, EventKind::kBackendSelect,
                   static_cast<std::int64_t>(be_->kind()),
                   static_cast<std::int64_t>(s_->options().engine.backend));
    }
    // Tag reduced-precision levels once per attach. All-fp64 setups emit
    // nothing, keeping the golden trace fixtures byte-identical.
    for (std::size_t k = 0; k < s_->num_levels(); ++k) {
      const Precision p = s_->a(k).precision();
      if (p != Precision::kF64) {
        sink->record(tid, EventKind::kLevelPrecision,
                     static_cast<std::int64_t>(k),
                     static_cast<std::int64_t>(p));
      }
    }
  } else {
    ctr_bytes_ = nullptr;
    ctr_sweeps_ = nullptr;
  }
}

namespace {

/// Detaches an attached-but-disabled sink for the duration of one public
/// call, so the whole call takes the zero-overhead path (no phase records,
/// no counter traffic); restores it on exit. Nested calls see nullptr.
struct QuietIfDisabled {
  explicit QuietIfDisabled(TelemetrySink*& t) : tel(t), saved(t) {
    if (t != nullptr && !t->enabled()) t = nullptr;
  }
  ~QuietIfDisabled() { tel = saved; }
  TelemetrySink*& tel;
  TelemetrySink* const saved;
};

}  // namespace

void MultiplicativeMg::phase_mark(EventKind kind, CyclePhase phase,
                                  std::size_t level) {
  tel_->record(tel_tid_, kind, static_cast<std::int64_t>(phase),
               static_cast<std::int64_t>(level));
}

void MultiplicativeMg::sweep_level(std::size_t k, const Vector& b, Vector& x) {
  const Smoother& sm = s_->smoother(k);
  const SellMatrix* sell = s_->sell(k);
  if (sell != nullptr) {
    // The setup heuristic only builds SELL for diagonal-type smoothers, so
    // the fused Jacobi sweep applies; swap brings the new iterate into x.
    be_->sell_diag_sweep(*sell, sm.inv_diag(), b, x, ws_.swp(k),
                         /*parallel=*/true);
    x.swap(ws_.swp(k));
  } else {
    sm.sweep_ws(b, x, ws_.swp(k));
  }
  if (tel_ != nullptr) {
    ctr_sweeps_->add(1);
    ctr_bytes_->add(sell != nullptr ? sell_pass_bytes(*sell)
                                    : csr_pass_bytes(s_->a(k)));
  }
}

void MultiplicativeMg::coarse_corrections(std::size_t k) {
  Vector& r = ws_.r(k);
  Vector& e = ws_.e(k);
  const SellMatrix* sell = s_->sell(k);
  for (int g = 0; g < gamma_; ++g) {
    pb(CyclePhase::kRestrict, k);
    // tmp = r_k - A_k e_k in one pass over A (spmv accumulation order),
    // then restrict through the stored P^T with a row-parallel SpMV --
    // entry-for-entry the same additions as spmv_transpose, without its
    // scatter writes.
    if (sell != nullptr) {
      be_->sell_sub_spmv(*sell, r, e, ws_.tmp(k), /*parallel=*/true);
    } else {
      be_->csr_sub_spmv(s_->a(k), r, e, ws_.tmp(k), /*parallel=*/true);
    }
    be_->restrict_apply(s_->r(k), ws_.tmp(k), ws_.r(k + 1), /*parallel=*/true);
    pe(CyclePhase::kRestrict, k);
    if (tel_ != nullptr) {
      ctr_bytes_->add((sell != nullptr ? sell_pass_bytes(*sell)
                                       : csr_pass_bytes(s_->a(k))) +
                      csr_pass_bytes(s_->r(k)));
    }
    level_solve(k + 1);
    pb(CyclePhase::kProlong, k);
    // e_k += P e_{k+1}
    be_->prolong_add(s_->p(k), ws_.e(k + 1), e, /*parallel=*/true);
    pe(CyclePhase::kProlong, k);
    if (tel_ != nullptr) ctr_bytes_->add(csr_pass_bytes(s_->p(k)));
  }
}

void MultiplicativeMg::set_active_levels(std::size_t n) {
  if (n < 1 || n > s_->num_levels()) {
    throw std::invalid_argument("set_active_levels: out of range");
  }
  active_ = n;
}

void MultiplicativeMg::level_solve(std::size_t k) {
  const std::size_t coarsest = active_ - 1;
  if (k == coarsest) {
    // Exact solve when available, a smoothing sweep otherwise. A truncated
    // cycle's temporary coarsest never owns the LU, so it smooths.
    pb(CyclePhase::kCoarseSolve, k);
    if (active_ == s_->num_levels() && !s_->coarse_solver().empty()) {
      s_->coarse_solver().solve(ws_.r(k), ws_.e(k));
    } else {
      s_->smoother(k).apply_zero(ws_.r(k), ws_.e(k));
    }
    pe(CyclePhase::kCoarseSolve, k);
    return;
  }
  if (!fused_) {
    level_solve_reference(k);
    return;
  }

  Vector& r = ws_.r(k);
  Vector& e = ws_.e(k);

  // Pre-smooth from a zero initial guess.
  pb(CyclePhase::kPreSmooth, k);
  if (pre_sweeps_ == 0) {
    fill(e, 0.0);
  } else {
    s_->smoother(k).apply_zero(r, e);
    for (int s = 1; s < pre_sweeps_; ++s) sweep_level(k, r, e);
  }
  pe(CyclePhase::kPreSmooth, k);

  coarse_corrections(k);

  // Post-smooth. For SELL levels the smoother is diagonal, so the
  // transposed sweep coincides with the plain one and the fused kernel
  // covers the symmetric cycle too.
  pb(CyclePhase::kPostSmooth, k);
  for (int s = 0; s < post_sweeps_; ++s) {
    if (symmetric_ && s_->sell(k) == nullptr) {
      s_->smoother(k).sweep_transpose_ws(r, e, ws_.swp(k), ws_.tmp(k));
    } else {
      sweep_level(k, r, e);
    }
  }
  pe(CyclePhase::kPostSmooth, k);
}

void MultiplicativeMg::level_solve_reference(std::size_t k) {
  // The original two-pass path: separate spmv/subtract/restrict and
  // allocating smoother sweeps. Kept verbatim as the bitwise oracle for the
  // fused path and as the bench baseline (set_fused(false)).
  Vector& r = ws_.r(k);
  Vector& e = ws_.e(k);
  Vector& tmp = ws_.tmp(k);

  pb(CyclePhase::kPreSmooth, k);
  if (pre_sweeps_ == 0) {
    fill(e, 0.0);
  } else {
    s_->smoother(k).smooth_zero(r, e, pre_sweeps_);
  }
  pe(CyclePhase::kPreSmooth, k);

  for (int g = 0; g < gamma_; ++g) {
    pb(CyclePhase::kRestrict, k);
    s_->a(k).spmv(e, tmp);  // tmp = A_k e_k
    for (std::size_t i = 0; i < tmp.size(); ++i) {
      tmp[i] = r[i] - tmp[i];
    }
    s_->p(k).spmv_transpose(tmp, ws_.r(k + 1));  // r_{k+1} = P^T (r_k - A e_k)
    pe(CyclePhase::kRestrict, k);
    level_solve(k + 1);
    pb(CyclePhase::kProlong, k);
    s_->p(k).spmv(ws_.e(k + 1), tmp);
    axpy(1.0, tmp, e);  // e_k += P e_{k+1}
    pe(CyclePhase::kProlong, k);
  }

  pb(CyclePhase::kPostSmooth, k);
  for (int s = 0; s < post_sweeps_; ++s) {
    if (symmetric_) {
      s_->smoother(k).sweep_transpose(r, e);
    } else {
      s_->smoother(k).sweep(r, e);  // e_k += M^{-1}(r_k - A e_k)
    }
  }
  pe(CyclePhase::kPostSmooth, k);
}

void MultiplicativeMg::residual(const Vector& b, const Vector& x) {
  pb(CyclePhase::kResidual, 0);
  if (!fused_) {
    s_->a(0).residual(b, x, ws_.r(0));
  } else if (s_->sell(0) != nullptr) {
    be_->sell_residual(*s_->sell(0), b, x, ws_.r(0), /*parallel=*/true);
  } else {
    be_->csr_residual(s_->a(0), b, x, ws_.r(0), /*parallel=*/true);
  }
  pe(CyclePhase::kResidual, 0);
}

double MultiplicativeMg::residual_norm_sq(const Vector& b, const Vector& x) {
  const QuietIfDisabled quiet(tel_);
  residual(b, x);
  return be_->dot(ws_.r(0), ws_.r(0));
}

void MultiplicativeMg::correct(Vector& x) {
  const QuietIfDisabled quiet(tel_);
  level_solve(0);
  be_->axpy(1.0, ws_.e(0), x);
}

void MultiplicativeMg::cycle(const Vector& b, Vector& x) {
  const QuietIfDisabled quiet(tel_);
  residual(b, x);
  correct(x);
}

SolveStats MultiplicativeMg::solve(const Vector& b, Vector& x, int t_max,
                                   double tol, Clock::time_point deadline) {
  const QuietIfDisabled quiet(tel_);
  SolveStats stats;
  Timer timer;
  const double bnorm = norm2(b);
  const double scale = bnorm > 0.0 ? 1.0 / bnorm : 1.0;
  // Each check leaves b - A_0 x in ws_.r(0) and correct() starts from it,
  // so the check and the next cycle's residual are one pass over A_0.
  while (!stop_after_check(stats, std::sqrt(residual_norm_sq(b, x)) * scale,
                           t_max, tol, deadline)) {
    correct(x);
    ++stats.cycles;
  }
  stats.seconds = timer.seconds();
  return stats;
}

bool MultiplicativeMg::stop_after_check(SolveStats& stats, double rr,
                                        int t_max, double tol,
                                        Clock::time_point deadline) {
  stats.rel_res_history.push_back(rr);
  if (stats.cycles > 0 && tol > 0.0 && rr < tol) {
    stats.converged = true;
    return true;
  }
  if (!std::isfinite(rr) || stats.cycles >= t_max) return true;
  stats.timed_out = Clock::now() >= deadline;
  return stats.timed_out;
}

}  // namespace asyncmg
