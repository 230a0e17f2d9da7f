#pragma once
// Shared plumbing for the experiment harnesses: paper-default solver
// configurations, problem construction, and run averaging.
//
// Every bench accepts --sizes/--runs/--threads/... so the paper-scale
// parameters are one flag away; the defaults are scaled down to finish
// quickly on a small machine (see EXPERIMENTS.md).

#include <cstdint>
#include <string>
#include <vector>

#include "mesh/problems.hpp"
#include "multigrid/additive.hpp"
#include "multigrid/mult.hpp"
#include "multigrid/setup.hpp"
#include "sparse/vec.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace asyncmg::bench {

/// The paper's BoomerAMG-style options: HMIS coarsening, classical modified
/// interpolation, `aggressive` aggressive levels.
inline MgOptions paper_mg_options(SmootherType st, double omega,
                                  int aggressive) {
  MgOptions mo;
  mo.amg.coarsening = CoarsenAlgo::kHMIS;
  mo.amg.interpolation = InterpAlgo::kClassicalModified;
  mo.amg.num_aggressive_levels = aggressive;
  mo.smoother.type = st;
  mo.smoother.omega = omega;
  mo.smoother.num_blocks = 4;
  return mo;
}

/// omega used by the paper per test set: .9 for the stencils, .5 for the
/// MFEM sets.
inline double paper_omega(TestSet set) {
  return (set == TestSet::kFD7pt || set == TestSet::kFD27pt) ? 0.9 : 0.5;
}

/// Test-set-aware options: elasticity additionally runs unknown-based AMG
/// (BoomerAMG's num_functions = 3 for interleaved displacement components)
/// and skips aggressive coarsening -- at our scaled-down beam sizes a
/// distance-2 pass over-coarsens to a 2-level hierarchy whose multipass
/// interpolation cannot represent the elastic near-nullspace (the paper's
/// 37k-dof beam can afford it; see EXPERIMENTS.md).
inline MgOptions paper_mg_options_for(TestSet set, SmootherType st,
                                      int aggressive) {
  if (set == TestSet::kFemElasticity) aggressive = 0;
  MgOptions mo = paper_mg_options(st, paper_omega(set), aggressive);
  if (set == TestSet::kFemElasticity) mo.amg.num_functions = 3;
  return mo;
}

inline SmootherType smoother_from_name(const std::string& name) {
  if (name == "w-jacobi") return SmootherType::kWeightedJacobi;
  if (name == "l1-jacobi") return SmootherType::kL1Jacobi;
  if (name == "hybrid-jgs") return SmootherType::kHybridJGS;
  if (name == "async-gs") return SmootherType::kAsyncGS;
  throw std::invalid_argument("unknown smoother: " + name);
}

inline TestSet test_set_from_name(const std::string& name) {
  if (name == "7pt") return TestSet::kFD7pt;
  if (name == "27pt") return TestSet::kFD27pt;
  if (name == "mfem-laplace") return TestSet::kFemLaplace;
  if (name == "mfem-elasticity") return TestSet::kFemElasticity;
  throw std::invalid_argument("unknown test set: " + name);
}

/// Where a bench writes the JSON summary named by `flag` (--json,
/// --json-backend): the flag's value; otherwise `fallback` on a full run and
/// nowhere ("") on a --smoke run, so a smoke gate run from the repo root
/// never overwrites a committed reference BENCH_*.json.
inline std::string json_out_path(const Cli& cli, const std::string& flag,
                                 const std::string& fallback, bool smoke) {
  return cli.get(flag, smoke ? "" : fallback);
}

/// Random right-hand side in [-1, 1] (Section V), seeded per run index.
inline Vector paper_rhs(std::size_t n, std::uint64_t run) {
  Rng rng(0x5eed0000ull + run);
  return random_vector(n, rng);
}

}  // namespace asyncmg::bench
