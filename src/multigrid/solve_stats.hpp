#pragma once
// Result bundle returned by every solver driver.

#include <vector>

#include "sparse/types.hpp"

namespace asyncmg {

struct SolveStats {
  /// Relative residual 2-norms ||b - Ax||/||b||; entry 0 is the initial
  /// residual, entry t is after cycle t.
  std::vector<double> rel_res_history;
  /// Cycles actually carried out.
  int cycles = 0;
  /// True when the final relative residual fell below the requested
  /// tolerance (always false when tol <= 0: no tolerance checking).
  bool converged = false;
  /// True when the solve's deadline passed before the next cycle could
  /// start; x then holds the best-so-far iterate.
  bool timed_out = false;
  /// Wall-clock seconds of the solve loop (excludes setup).
  double seconds = 0.0;

  double final_rel_res() const {
    return rel_res_history.empty() ? 1.0 : rel_res_history.back();
  }
};

}  // namespace asyncmg
