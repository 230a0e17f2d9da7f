// Mixed-precision hierarchy storage tests (DESIGN.md section 12): the
// per-level PrecisionPolicy, demotion wiring through Hierarchy::build and
// MgSetup, serialization round-trips that preserve precision tags bit for
// bit, the fp64 defect-correction oracle discipline (fp32-coarse accepted
// only by error-norm/convergence bounds), cache byte accounting at the
// stored scalar width, and the telemetry level-precision tags.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "amg/hierarchy.hpp"
#include "amg/precision.hpp"
#include "amg/serialize.hpp"
#include "mesh/problems.hpp"
#include "multigrid/mult.hpp"
#include "multigrid/setup.hpp"
#include "service/hierarchy_cache.hpp"
#include "sparse/csr.hpp"
#include "sparse/vec.hpp"
#include "telemetry/sink.hpp"
#include "util/rng.hpp"

namespace asyncmg {
namespace {

// ---------------------------------------------------------------------------
// PrecisionPolicy unit behavior
// ---------------------------------------------------------------------------

TEST(PrecisionPolicy, DefaultIsAllF64) {
  const PrecisionPolicy pol;
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_EQ(pol.level_precision(k, 6, 100, 1000), Precision::kF64);
  }
}

TEST(PrecisionPolicy, F32CoarseDemotesFromFirstLowLevel) {
  PrecisionPolicy pol;
  pol.mode = PrecisionPolicy::Mode::kF32Coarse;
  pol.first_low_level = 2;
  EXPECT_EQ(pol.level_precision(0, 5, 0, 0), Precision::kF64);
  EXPECT_EQ(pol.level_precision(1, 5, 0, 0), Precision::kF64);
  EXPECT_EQ(pol.level_precision(2, 5, 0, 0), Precision::kF32);
  EXPECT_EQ(pol.level_precision(4, 5, 0, 0), Precision::kF32);
}

TEST(PrecisionPolicy, LevelZeroNeverDemotes) {
  PrecisionPolicy pol;
  pol.mode = PrecisionPolicy::Mode::kF32Coarse;
  pol.first_low_level = 0;  // clamped to 1
  EXPECT_EQ(pol.level_precision(0, 4, 0, 0), Precision::kF64);
  EXPECT_EQ(pol.level_precision(1, 4, 0, 0), Precision::kF32);
  pol.per_level = {Precision::kF32};  // explicit override still loses
  EXPECT_EQ(pol.level_precision(0, 4, 0, 0), Precision::kF64);
}

TEST(PrecisionPolicy, AutoDemotesByNnzFraction) {
  PrecisionPolicy pol;
  pol.mode = PrecisionPolicy::Mode::kAuto;
  pol.auto_nnz_fraction = 0.5;
  EXPECT_EQ(pol.level_precision(1, 4, 800, 1000), Precision::kF64);
  EXPECT_EQ(pol.level_precision(1, 4, 500, 1000), Precision::kF32);
  EXPECT_EQ(pol.level_precision(2, 4, 100, 1000), Precision::kF32);
  EXPECT_EQ(pol.level_precision(0, 4, 100, 1000), Precision::kF64);
}

TEST(PrecisionPolicy, PerLevelOverrideWins) {
  PrecisionPolicy pol;
  pol.mode = PrecisionPolicy::Mode::kF32Coarse;
  pol.per_level = {Precision::kF64, Precision::kF64, Precision::kF32};
  EXPECT_EQ(pol.level_precision(1, 5, 0, 0), Precision::kF64);
  EXPECT_EQ(pol.level_precision(2, 5, 0, 0), Precision::kF32);
  // Levels past the override vector fall back to the mode.
  EXPECT_EQ(pol.level_precision(3, 5, 0, 0), Precision::kF32);
}

// ---------------------------------------------------------------------------
// Matrix-level demotion semantics
// ---------------------------------------------------------------------------

TEST(ConvertPrecision, RoundTripEqualsExplicitFloatRounding) {
  Problem prob = make_laplace_7pt(6);
  CsrMatrix demoted = prob.a;
  demoted.convert_precision(Precision::kF32);
  EXPECT_EQ(demoted.precision(), Precision::kF32);
  EXPECT_EQ(demoted.value_bytes(),
            static_cast<std::size_t>(demoted.nnz()) * sizeof(float));

  // Widening back must give exactly double(float(v)).
  CsrMatrix widened = demoted;
  widened.convert_precision(Precision::kF64);
  const auto ref = prob.a.values();
  const auto got = widened.values();
  for (std::size_t k = 0; k < ref.size(); ++k) {
    EXPECT_EQ(got[k], static_cast<double>(static_cast<float>(ref[k]))) << k;
  }
}

TEST(ConvertPrecision, SpmvMatchesPreRoundedF64Bitwise) {
  // fp32 storage + fp64 accumulation must be bit-identical to an fp64
  // matrix whose values were rounded through float first: the float operand
  // promotes to double before every multiply, so the arithmetic is the same.
  Problem prob = make_laplace_27pt(5);
  CsrMatrix f32 = prob.a;
  f32.convert_precision(Precision::kF32);
  CsrMatrix rounded = f32;
  rounded.convert_precision(Precision::kF64);

  Rng rng(7);
  const Vector x = random_vector(static_cast<std::size_t>(prob.a.rows()), rng);
  Vector y32(x.size(), 0.0), y64(x.size(), 0.0);
  f32.spmv(x, y32);
  rounded.spmv(x, y64);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(y32[i], y64[i]) << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// Hierarchy wiring
// ---------------------------------------------------------------------------

AmgOptions f32coarse_amg_options() {
  AmgOptions opts;
  opts.precision = PrecisionPolicy{};
  opts.precision.mode = PrecisionPolicy::Mode::kF32Coarse;
  return opts;
}

TEST(HierarchyPrecision, BuildDemotesCoarseLevelsAndInterpolants) {
  Problem prob = make_laplace_7pt(10);
  Hierarchy h = Hierarchy::build(std::move(prob.a), f32coarse_amg_options());
  ASSERT_GE(h.num_levels(), 3u);
  EXPECT_EQ(h.matrix(0).precision(), Precision::kF64);
  for (std::size_t k = 1; k < h.num_levels(); ++k) {
    EXPECT_EQ(h.matrix(k).precision(), Precision::kF32) << "level " << k;
  }
  // P_k maps level k+1 to level k and follows the coarser level's width.
  for (std::size_t k = 0; k + 1 < h.num_levels(); ++k) {
    EXPECT_EQ(h.interpolation(k).precision(), h.matrix(k + 1).precision())
        << "P_" << k;
  }
}

TEST(HierarchyPrecision, SetupDerivedOperatorsFollowHierarchy) {
  Problem prob = make_laplace_7pt(8);
  MgOptions mo;
  mo.amg = f32coarse_amg_options();
  const MgSetup s(std::move(prob.a), mo);
  ASSERT_GE(s.num_levels(), 2u);
  for (std::size_t k = 0; k + 1 < s.num_levels(); ++k) {
    const Precision pc = s.a(k + 1).precision();
    EXPECT_EQ(s.p(k).precision(), pc) << "p_" << k;
    EXPECT_EQ(s.pbar(k).precision(), pc) << "pbar_" << k;
    EXPECT_EQ(s.r(k).precision(), pc) << "r_" << k;
    EXPECT_EQ(s.rbar(k).precision(), pc) << "rbar_" << k;
  }
}

// ---------------------------------------------------------------------------
// Serialization round-trip
// ---------------------------------------------------------------------------

void expect_same_matrix(const CsrMatrix& a, const CsrMatrix& b,
                        const char* what) {
  ASSERT_EQ(a.precision(), b.precision()) << what;
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.nnz(), b.nnz()) << what;
  // approx_equal with tol 0 widens both sides identically, so this is a
  // bitwise comparison of the stored values at either width.
  EXPECT_TRUE(a.approx_equal(b, 0.0)) << what;
}

TEST(PrecisionSerialize, MixedHierarchyRoundTripsExactly) {
  Problem prob = make_laplace_7pt(9);
  const Hierarchy h =
      Hierarchy::build(std::move(prob.a), f32coarse_amg_options());
  ASSERT_GE(h.num_levels(), 2u);

  const std::string bytes = save_hierarchy_string(h);
  const Hierarchy h2 = load_hierarchy_string(bytes);

  ASSERT_EQ(h2.num_levels(), h.num_levels());
  for (std::size_t k = 0; k < h.num_levels(); ++k) {
    expect_same_matrix(h.matrix(k), h2.matrix(k), "A_k");
    if (k + 1 < h.num_levels()) {
      expect_same_matrix(h.interpolation(k), h2.interpolation(k), "P_k");
    }
  }
  // Serializing the reload reproduces the container byte for byte.
  EXPECT_EQ(save_hierarchy_string(h2), bytes);
}

TEST(PrecisionSerialize, AllF64HierarchyStillRoundTrips) {
  Problem prob = make_laplace_7pt(8);
  AmgOptions opts;
  opts.precision = PrecisionPolicy{};
  const Hierarchy h = Hierarchy::build(std::move(prob.a), opts);
  const Hierarchy h2 = load_hierarchy_string(save_hierarchy_string(h));
  ASSERT_EQ(h2.num_levels(), h.num_levels());
  for (std::size_t k = 0; k < h.num_levels(); ++k) {
    EXPECT_EQ(h2.matrix(k).precision(), Precision::kF64);
    expect_same_matrix(h.matrix(k), h2.matrix(k), "A_k");
  }
}

// ---------------------------------------------------------------------------
// fp64 oracle discipline: fp32-coarse is accepted by error-norm bounds
// ---------------------------------------------------------------------------

std::unique_ptr<MgSetup> solver_setup(Index n, PrecisionPolicy pol) {
  Problem prob = make_laplace_7pt(n);
  MgOptions mo;
  mo.smoother.type = SmootherType::kWeightedJacobi;
  mo.smoother.omega = 0.9;
  mo.amg.precision = pol;
  return std::make_unique<MgSetup>(std::move(prob.a), mo);
}

TEST(PrecisionConvergence, F32CoarseConvergesWithinErrorBounds) {
  const Index n = 12;
  PrecisionPolicy f32;
  f32.mode = PrecisionPolicy::Mode::kF32Coarse;
  auto s64 = solver_setup(n, PrecisionPolicy{});
  auto s32 = solver_setup(n, f32);

  Rng rng(21);
  const Vector b =
      random_vector(static_cast<std::size_t>(s64->a(0).rows()), rng);
  const double tol = 1e-8;

  Vector x64(b.size(), 0.0), x32(b.size(), 0.0);
  MultiplicativeMg mg64(*s64), mg32(*s32);
  const SolveStats st64 = mg64.solve(b, x64, 100, tol);
  const SolveStats st32 = mg32.solve(b, x32, 100, tol);

  // Both must converge; the convergence check itself runs on the fp64 fine
  // level, so st32.converged already certifies the fp64 residual bound.
  ASSERT_TRUE(st64.converged);
  ASSERT_TRUE(st32.converged) << "rel res " << st32.final_rel_res();

  // Rounded coarse corrections may cost extra cycles, but boundedly so.
  EXPECT_LE(st32.cycles, 2 * st64.cycles + 5)
      << "f64 " << st64.cycles << " cycles, f32coarse " << st32.cycles;

  // And the answers agree to well within the solve tolerance's accuracy.
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    num += (x64[i] - x32[i]) * (x64[i] - x32[i]);
    den += x64[i] * x64[i];
  }
  EXPECT_LT(std::sqrt(num / den), 1e-4);
}

TEST(PrecisionConvergence, AutoPolicyAlsoConverges) {
  PrecisionPolicy pol;
  pol.mode = PrecisionPolicy::Mode::kAuto;
  auto s = solver_setup(10, pol);
  Rng rng(22);
  const Vector b =
      random_vector(static_cast<std::size_t>(s->a(0).rows()), rng);
  Vector x(b.size(), 0.0);
  MultiplicativeMg mg(*s);
  EXPECT_TRUE(mg.solve(b, x, 100, 1e-8).converged);
}

// ---------------------------------------------------------------------------
// Cache byte accounting and residency
// ---------------------------------------------------------------------------

TEST(PrecisionCache, DemotedSetupIsSmallerAndResidencyImproves) {
  const Index n = 10;
  MgOptions mo64;
  mo64.amg.precision = PrecisionPolicy{};
  MgOptions mo32 = mo64;
  mo32.amg.precision.mode = PrecisionPolicy::Mode::kF32Coarse;

  // Four same-structure fine matrices with distinct fingerprints.
  std::vector<CsrMatrix> mats;
  for (int i = 0; i < 4; ++i) {
    Problem p = make_laplace_7pt(n);
    p.a.values_mutable()[0] += 1e-9 * (i + 1);
    mats.push_back(std::move(p.a));
  }

  const MgSetup probe64(mats[0], mo64);
  const MgSetup probe32(mats[0], mo32);
  const std::size_t b64 = estimate_setup_bytes(probe64);
  const std::size_t b32 = estimate_setup_bytes(probe32);
  // Coarse operators and all four derived interpolant families halve their
  // value bytes; the fp64 fine level and index arrays are unchanged.
  EXPECT_LT(b32, (b64 * 9) / 10) << "b64=" << b64 << " b32=" << b32;

  // Fixed budget that holds two demoted setups but not two fp64 ones.
  const std::size_t budget = 2 * b32 + b32 / 10;
  ASSERT_LT(budget, 2 * b64);

  const auto residency = [&](const MgOptions& mg) {
    HierarchyCacheOptions co;
    co.mg = mg;
    co.max_bytes = budget;
    HierarchyCache cache(co);
    for (const CsrMatrix& a : mats) cache.get_or_build(a);
    return cache.stats().resident_entries;
  };
  const std::size_t res64 = residency(mo64);
  const std::size_t res32 = residency(mo32);
  EXPECT_GE(res32, 2 * res64) << "res64=" << res64 << " res32=" << res32;
}

TEST(PrecisionCache, SpillReloadMatchesFreshBuildExactly) {
  // Spilled fp32 levels are stored at their fp32 width, so a reloaded setup
  // must equal a fresh build bit for bit.
  Problem prob = make_laplace_7pt(9);
  const Hierarchy fresh =
      Hierarchy::build(prob.a, f32coarse_amg_options());
  const Hierarchy reloaded =
      load_hierarchy_string(save_hierarchy_string(fresh));
  for (std::size_t k = 0; k < fresh.num_levels(); ++k) {
    expect_same_matrix(fresh.matrix(k), reloaded.matrix(k), "A_k");
  }
}

// ---------------------------------------------------------------------------
// Telemetry tags
// ---------------------------------------------------------------------------

TEST(PrecisionTelemetry, LevelTagsEmittedOnlyForDemotedLevels) {
  auto s32 = solver_setup(8, [] {
    PrecisionPolicy p;
    p.mode = PrecisionPolicy::Mode::kF32Coarse;
    return p;
  }());
  auto s64 = solver_setup(8, PrecisionPolicy{});

  TelemetrySink sink;
  MultiplicativeMg mg32(*s32);
  mg32.set_telemetry(&sink, 0);
  std::size_t tags = 0;
  for (const DrainedEvent& de : sink.drain()) {
    if (de.ev.kind == EventKind::kLevelPrecision) {
      ++tags;
      EXPECT_GE(de.ev.a, 1);  // level 0 is never demoted
      EXPECT_EQ(static_cast<Precision>(de.ev.b), Precision::kF32);
    }
  }
  EXPECT_EQ(tags, s32->num_levels() - 1);

  // The all-fp64 oracle emits nothing: golden traces stay byte-identical.
  MultiplicativeMg mg64(*s64);
  mg64.set_telemetry(&sink, 0);
  for (const DrainedEvent& de : sink.drain()) {
    EXPECT_NE(de.ev.kind, EventKind::kLevelPrecision);
  }
}

}  // namespace
}  // namespace asyncmg
