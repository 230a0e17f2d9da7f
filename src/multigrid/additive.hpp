#pragma once
// Additive multigrid methods: BPX (Eq. 1), Multadd (Eq. 2), and AFACx
// (Algorithm 2). The central primitive is the per-grid correction
//
//   c_k = Pbar_k^0 Lambda_k (Pbar_k^0)^T r     (Multadd; plain P for BPX)
//   c_k = P_k^0 e_k                            (AFACx, Alg. 2 lines 8-9)
//
// computed from a fine-grid residual. The synchronous additive cycle sums
// the corrections of all grids; the asynchronous models and the
// shared-memory runtime apply exactly the same per-grid correction with
// out-of-date residuals.

#include <string>

#include "multigrid/setup.hpp"
#include "multigrid/solve_stats.hpp"

namespace asyncmg {

enum class AdditiveKind { kBpx, kMultadd, kAfacx };

std::string additive_kind_name(AdditiveKind k);

struct AdditiveOptions {
  AdditiveKind kind = AdditiveKind::kMultadd;
  /// AFACx V(s1/s2,0): sweeps for e_k (s1) and for e_{k+1} (s2).
  int afacx_s1 = 1;
  int afacx_s2 = 1;
  /// Use the symmetrized smoother Mbar^{-1} as Lambda_k; Multadd then
  /// matches the symmetric multiplicative V(1,1)-cycle exactly.
  bool symmetrized_lambda = false;
};

/// Reusable buffers for AdditiveCorrector::correction -- callers that sit
/// in a per-instant loop (the sequential simulators, the schedule replays)
/// keep one across calls instead of reallocating seven vectors per
/// correction. Contents are scratch; only capacity is reused.
struct CorrectionScratch {
  Vector r, next, e, r_next, u, pu, apu;
  /// Ping-pong buffer for the allocation-free multi-sweep smoothing inside
  /// corrections (smooth_zero_ws / apply_symmetrized_ws spill space).
  Vector swp;
};

class AdditiveCorrector {
 public:
  AdditiveCorrector(const MgSetup& setup, AdditiveOptions opts);

  const MgSetup& setup() const { return *s_; }
  const AdditiveOptions& options() const { return opts_; }
  std::size_t num_grids() const { return s_->num_levels(); }

  /// Fine-grid correction contributed by grid k given fine residual r:
  /// c is resized and overwritten.
  void correction(std::size_t k, const Vector& r_fine, Vector& c) const;
  /// Same computation (identical arithmetic, identical results), buffers
  /// drawn from `ws`.
  void correction(std::size_t k, const Vector& r_fine, Vector& c,
                  CorrectionScratch& ws) const;

  /// Shard-local additive cycle: adds every grid's correction computed from
  /// the fine residual `r` to rows [row_begin, row_end) of `acc` (other
  /// rows untouched). Grid 0 with a Jacobi-type smoother is applied
  /// row-locally (c_0[i] = inv_diag[i] * r[i], the apply_zero formula), so
  /// a shard owning those rows never computes foreign fine-grid rows; the
  /// remaining grids compute the full-length correction -- the replicated
  /// coarse-level work of the sharded executor -- and add only the range.
  /// Per-row arithmetic is identical for every range split: summing the
  /// ranges of any partition reproduces the full-range result bitwise.
  void accumulate_cycle(const Vector& r, Vector& acc, std::size_t row_begin,
                        std::size_t row_end, CorrectionScratch& ws,
                        Vector& c) const;

  /// Per-grid work estimate (flops of one correction) for thread balancing.
  std::vector<double> work() const;

 private:
  void correction_chain(std::size_t k, const Vector& r_fine, Vector& c,
                        CorrectionScratch& ws) const;
  void correction_afacx(std::size_t k, const Vector& r_fine, Vector& c,
                        CorrectionScratch& ws) const;
  /// Interpolant to use between levels j and j+1 for this method.
  const CsrMatrix& interp(std::size_t j) const;
  void solve_coarsest(const Vector& r, Vector& e) const;

  const MgSetup* s_;
  AdditiveOptions opts_;
};

/// Largest eigenvalue of C A, where C r = sum_k c_k(r) is one additive
/// cycle's correction, estimated by 100 power-iteration steps on C A from a
/// fixed random start, read off with the A-inner-product Rayleigh
/// quotient. For BPX and Multadd C is symmetric positive definite, so C A
/// is A-self-adjoint with a real positive spectrum and the estimate
/// approaches lambda_max from below. AFACx's C is not symmetric; there the
/// value is the Rayleigh quotient of the dominant direction, not a bound.
double additive_lambda_max(const AdditiveCorrector& corrector);

/// Synchronous additive driver: one "V-cycle" computes r = b - Ax once and
/// adds every grid's correction (what the paper's sync Multadd / sync AFACx
/// baselines do, minus threading).
class AdditiveMg {
 public:
  AdditiveMg(const MgSetup& setup, AdditiveOptions opts);

  void cycle(const Vector& b, Vector& x);
  SolveStats solve(const Vector& b, Vector& x, int t_max, double tol = 0.0);

  const AdditiveCorrector& corrector() const { return corrector_; }

 private:
  AdditiveCorrector corrector_;
  CorrectionScratch ws_;
  Vector r_, c_;
};

}  // namespace asyncmg
