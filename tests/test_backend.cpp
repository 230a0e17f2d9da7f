// Kernel backend properties (DESIGN.md section 15): the SIMD backends are
// bit-identical to the scalar oracle for every SELL solve kernel, on random
// ragged matrices and banded (contiguous fast-path) matrices, in fp64 and
// fp32, serial and parallel, at several thread counts; dispatch resolves
// explicit requests, the ASYNCMG_BACKEND environment override, and
// unsupported requests (graceful fallback, never a failure); and the SELL
// storage honours the 64-byte kernel alignment contract.

#include <gtest/gtest.h>
#include <omp.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "mesh/problems.hpp"
#include "multigrid/mult.hpp"
#include "multigrid/setup.hpp"
#include "sparse/csr.hpp"
#include "sparse/kernels.hpp"
#include "sparse/sellcs.hpp"
#include "sparse/vec.hpp"
#include "telemetry/sink.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace asyncmg {
namespace {

void expect_bitwise(const Vector& ref, const Vector& got, const char* what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i], got[i]) << what << " differs at " << i;
  }
}

CsrMatrix random_csr(Index rows, Index cols, double fill, Rng& rng) {
  std::vector<Triplet> trips;
  const auto target = static_cast<std::size_t>(
      fill * static_cast<double>(rows) * static_cast<double>(cols));
  for (std::size_t k = 0; k < target; ++k) {
    Triplet t;
    t.row = static_cast<Index>(rng.uniform_int(0, rows - 1));
    t.col = static_cast<Index>(rng.uniform_int(0, cols - 1));
    t.value = rng.uniform(-2.0, 2.0);
    trips.push_back(t);
  }
  return CsrMatrix::from_triplets(rows, cols, std::move(trips));
}

/// Tridiagonal operator: every SELL chunk's columns are lane-contiguous, so
/// the conversion takes the unit-stride (ucol) fast path and the SIMD
/// kernels' contiguous x loads get exercised.
CsrMatrix tridiag_csr(Index n) {
  std::vector<Triplet> trips;
  for (Index i = 0; i < n; ++i) {
    if (i > 0) trips.push_back({i, i - 1, -1.0 - 0.001 * i});
    trips.push_back({i, i, 2.0 + 0.01 * i});
    if (i + 1 < n) trips.push_back({i, i + 1, -1.0 + 0.002 * i});
  }
  return CsrMatrix::from_triplets(n, n, std::move(trips));
}

/// Runs all four SELL solve kernels through `be` and asserts each result is
/// bitwise the scalar oracle's, for the given parallel flag.
void check_kernels_bitwise(const KernelBackend& be, const SellMatrix& s,
                           Rng& rng, bool parallel) {
  const KernelBackend& oracle = scalar_backend();
  const auto un = static_cast<std::size_t>(s.rows());
  const Vector x = random_vector(un, rng);
  const Vector b = random_vector(un, rng);
  const Vector d = random_vector(un, rng, 0.1, 1.0);

  Vector ref, got;
  oracle.sell_spmv(s, x, ref, parallel);
  be.sell_spmv(s, x, got, parallel);
  expect_bitwise(ref, got, "sell_spmv");

  oracle.sell_residual(s, b, x, ref, parallel);
  be.sell_residual(s, b, x, got, parallel);
  expect_bitwise(ref, got, "sell_residual");

  oracle.sell_diag_sweep(s, d, b, x, ref, parallel);
  be.sell_diag_sweep(s, d, b, x, got, parallel);
  expect_bitwise(ref, got, "sell_diag_sweep");

  oracle.sell_sub_spmv(s, b, x, ref, parallel);
  be.sell_sub_spmv(s, b, x, got, parallel);
  expect_bitwise(ref, got, "sell_sub_spmv");
}

// ---------------------------------------------------------------------
// Bitwise identity: each compiled+supported SIMD backend vs the scalar
// oracle, across chunk sizes (including non-multiples of the SIMD width,
// which force masked tail lanes), sigma windows, precisions, matrix
// shapes (ragged random with empty rows, banded contiguous fast path,
// rows not a multiple of C), serial and parallel, several thread counts.
// ---------------------------------------------------------------------

class SimdBackendIdentity : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    if (!backend_supported(GetParam())) {
      GTEST_SKIP() << backend_kind_name(GetParam())
                   << " not compiled or not supported by this CPU";
    }
  }
};

TEST_P(SimdBackendIdentity, RandomMatricesMatchScalarBitwise) {
  const KernelBackend& be = backend_for(GetParam());
  ASSERT_EQ(be.kind(), GetParam());
  // C = 6 is deliberately not a multiple of either SIMD width; C = 4 makes
  // every AVX-512 block structurally short. Low fill leaves empty rows.
  const std::pair<Index, Index> shapes[] = {{4, 4},   {6, 24},   {8, 1},
                                            {8, 32},  {16, 256}, {32, 32}};
  for (std::uint64_t seed : {3u, 17u}) {
    for (const auto& [chunk, sigma] : shapes) {
      for (const Precision prec : {Precision::kF64, Precision::kF32}) {
        Rng rng(seed);
        const Index n = static_cast<Index>(rng.uniform_int(50, 230));
        CsrMatrix a = random_csr(n, n, 0.06, rng);
        a.convert_precision(prec);
        const SellMatrix s = SellMatrix::from_csr(a, chunk, sigma);
        check_kernels_bitwise(be, s, rng, /*parallel=*/false);
      }
    }
  }
}

TEST_P(SimdBackendIdentity, ContiguousFastPathMatchesScalarBitwise) {
  const KernelBackend& be = backend_for(GetParam());
  for (const Precision prec : {Precision::kF64, Precision::kF32}) {
    // 119 rows: the tail chunk carries pad slots behind the real lanes.
    for (const Index n : {119, 640}) {
      Rng rng(29);
      CsrMatrix a = tridiag_csr(n);
      a.convert_precision(prec);
      const SellMatrix s = SellMatrix::from_csr(a, 8, 8);
      ASSERT_GT(s.contiguous_chunks(), 0u)
          << "tridiagonal operator should take the unit-stride path";
      check_kernels_bitwise(be, s, rng, /*parallel=*/false);
    }
  }
}

TEST_P(SimdBackendIdentity, ParallelMatchesScalarAtEveryThreadCount) {
  const KernelBackend& be = backend_for(GetParam());
  // Large enough to clear the solve-kernel OpenMP cutoff so the chunk
  // partition actually splits; one writer per row makes every thread count
  // produce identical bits.
  Rng rng(41);
  const Index n = 5000;
  CsrMatrix a = random_csr(n, n, 0.002, rng);
  const SellMatrix s = SellMatrix::from_csr(a, 8, 64);
  const int saved = omp_get_max_threads();
  for (int nt : {1, 2, 4}) {
    omp_set_num_threads(nt);
    check_kernels_bitwise(be, s, rng, /*parallel=*/true);
  }
  omp_set_num_threads(saved);
}

INSTANTIATE_TEST_SUITE_P(Isa, SimdBackendIdentity,
                         ::testing::Values(BackendKind::kAvx2,
                                           BackendKind::kAvx512),
                         [](const ::testing::TestParamInfo<BackendKind>& i) {
                           return std::string(backend_kind_name(i.param));
                         });

// ---------------------------------------------------------------------
// Dispatch: explicit requests, CPUID detection, environment override,
// and graceful fallback for unsupported requests.
// ---------------------------------------------------------------------

TEST(BackendDispatch, NamesRoundTrip) {
  EXPECT_STREQ(backend_kind_name(BackendKind::kAuto), "auto");
  EXPECT_STREQ(backend_kind_name(BackendKind::kScalar), "scalar");
  EXPECT_STREQ(backend_kind_name(BackendKind::kAvx2), "avx2");
  EXPECT_STREQ(backend_kind_name(BackendKind::kAvx512), "avx512");
}

TEST(BackendDispatch, ScalarAlwaysAvailableAndSupportImpliesCompiled) {
  EXPECT_TRUE(backend_compiled(BackendKind::kScalar));
  EXPECT_TRUE(backend_supported(BackendKind::kScalar));
  for (const BackendKind k : {BackendKind::kAvx2, BackendKind::kAvx512}) {
    if (backend_supported(k)) {
      EXPECT_TRUE(backend_compiled(k));
    }
  }
  EXPECT_EQ(scalar_backend().kind(), BackendKind::kScalar);
}

TEST(BackendDispatch, DetectReturnsSupportedKindAndBackendForHonoursIt) {
  const BackendKind k = detect_backend();
  EXPECT_TRUE(backend_supported(k));
  EXPECT_EQ(backend_for(k).kind(), k);
  // Auto resolves to the detected kind when the env override is absent.
  unsetenv("ASYNCMG_BACKEND");
  EXPECT_EQ(resolve_backend_kind(BackendKind::kAuto), k);
}

TEST(BackendDispatch, ExplicitRequestPinsWhenSupportedFallsBackOtherwise) {
  for (const BackendKind k :
       {BackendKind::kScalar, BackendKind::kAvx2, BackendKind::kAvx512}) {
    KernelEngineOptions opts;
    opts.backend = k;
    const KernelBackend& be = resolve_backend(opts);
    if (backend_supported(k)) {
      EXPECT_EQ(be.kind(), k) << backend_kind_name(k);
    } else {
      // Unsupported requests must resolve to something runnable, not fail.
      EXPECT_EQ(be.kind(), detect_backend()) << backend_kind_name(k);
    }
  }
}

TEST(BackendDispatch, EnvOverrideAppliesOnlyToAutoAndInvalidFallsThrough) {
  setenv("ASYNCMG_BACKEND", "scalar", 1);
  EXPECT_EQ(resolve_backend_kind(BackendKind::kAuto), BackendKind::kScalar);
  // An explicit option pins past the env, mirroring PrecisionPolicy.
  if (backend_supported(BackendKind::kAvx2)) {
    EXPECT_EQ(resolve_backend_kind(BackendKind::kAvx2), BackendKind::kAvx2);
  }
  setenv("ASYNCMG_BACKEND", "sse9000", 1);
  EXPECT_EQ(resolve_backend_kind(BackendKind::kAuto), detect_backend());
  unsetenv("ASYNCMG_BACKEND");
}

TEST(BackendDispatch, SupportedBackendsStringListsScalarFirst) {
  const std::string s = supported_backends_string();
  EXPECT_EQ(s.rfind("scalar", 0), 0u) << s;
  for (const BackendKind k : {BackendKind::kAvx2, BackendKind::kAvx512}) {
    EXPECT_EQ(s.find(backend_kind_name(k)) != std::string::npos,
              backend_supported(k))
        << s;
  }
}

// ---------------------------------------------------------------------
// Storage contracts the SIMD kernels rely on: 64-byte alignment of the
// SELL arrays, and the pass-bytes traffic model used by telemetry/bench.
// ---------------------------------------------------------------------

TEST(BackendStorage, SellArraysAre64ByteAligned) {
  Rng rng(5);
  const CsrMatrix a = random_csr(150, 150, 0.05, rng);
  for (const Precision prec : {Precision::kF64, Precision::kF32}) {
    CsrMatrix ap = a;
    ap.convert_precision(prec);
    const SellMatrix s = SellMatrix::from_csr(ap, 8, 16);
    const SellView v = s.view();
    EXPECT_TRUE(is_kernel_aligned(v.col_idx));
    if (prec == Precision::kF64) {
      EXPECT_TRUE(is_kernel_aligned(v.values));
    } else {
      EXPECT_TRUE(is_kernel_aligned(v.values_f32));
    }
  }
  AlignedVector<double> w(33);
  EXPECT_TRUE(is_kernel_aligned(w.data()));
}

TEST(BackendStorage, SellPassBytesCountsStoredWidthAndMetadata) {
  const Index n = 256;
  CsrMatrix a = tridiag_csr(n);
  const SellMatrix s64 = SellMatrix::from_csr(a, 8, 8);
  EXPECT_EQ(sell_pass_bytes(s64), s64.pass_bytes());
  EXPECT_GT(sell_pass_bytes(s64), s64.stored_entries() * sizeof(double));
  a.convert_precision(Precision::kF32);
  const SellMatrix s32 = SellMatrix::from_csr(a, 8, 8);
  // Same structure at half the value width must stream strictly less.
  EXPECT_LT(sell_pass_bytes(s32), sell_pass_bytes(s64));
}

// ---------------------------------------------------------------------
// Integration: MgSetup resolves one backend for the whole solve, cycles
// through a SIMD backend match the scalar backend bitwise, and the
// kBackendSelect telemetry tag is emitted exactly when non-scalar runs.
// ---------------------------------------------------------------------

std::unique_ptr<MgSetup> make_setup(BackendKind backend) {
  Problem prob = make_laplace_7pt(12);
  MgOptions mo;
  mo.smoother.type = SmootherType::kWeightedJacobi;
  mo.engine.backend = backend;
  return std::make_unique<MgSetup>(std::move(prob.a), mo);
}

TEST(BackendIntegration, SimdCycleMatchesScalarCycleBitwise) {
  if (!backend_supported(BackendKind::kAvx2) &&
      !backend_supported(BackendKind::kAvx512)) {
    GTEST_SKIP() << "no SIMD backend on this host";
  }
  const auto scalar = make_setup(BackendKind::kScalar);
  ASSERT_EQ(scalar->backend_kind(), BackendKind::kScalar);
  Rng rng(23);
  const Vector b =
      random_vector(static_cast<std::size_t>(scalar->a(0).rows()), rng);
  Vector x_ref(b.size(), 0.0);
  MultiplicativeMg mg_ref(*scalar);
  for (int t = 0; t < 3; ++t) mg_ref.cycle(b, x_ref);

  for (const BackendKind k : {BackendKind::kAvx2, BackendKind::kAvx512}) {
    if (!backend_supported(k)) continue;
    const auto simd = make_setup(k);
    ASSERT_EQ(simd->backend_kind(), k);
    EXPECT_EQ(&simd->smoother(0).backend(), &simd->backend());
    Vector x(b.size(), 0.0);
    MultiplicativeMg mg(*simd);
    for (int t = 0; t < 3; ++t) mg.cycle(b, x);
    expect_bitwise(x_ref, x, backend_kind_name(k));
  }
}

TEST(BackendIntegration, SolveHistoryMatchesReferenceResidualNorm) {
  // MultiplicativeMg::solve reuses each convergence check's residual as the
  // next cycle's r_0, and takes the norm with the backend dot. Its history
  // and iterate must equal, bit for bit, the plain loop of cycle() plus a
  // reference a(0).residual + norm2 check -- with level 0 on SELL and on
  // CSR, under every backend the host supports.
  constexpr int kCycles = 6;
  for (const bool sell0 : {true, false}) {
    for (const BackendKind k :
         {BackendKind::kScalar, BackendKind::kAvx2, BackendKind::kAvx512}) {
      if (!backend_supported(k)) continue;
      Problem prob = make_laplace_7pt(12);
      MgOptions mo;
      mo.smoother.type = SmootherType::kWeightedJacobi;
      mo.engine.backend = k;
      mo.engine.use_sell = sell0;
      mo.engine.sell_min_rows = 1;
      const MgSetup setup(std::move(prob.a), mo);
      ASSERT_EQ(setup.backend_kind(), k);
      ASSERT_EQ(setup.sell(0) != nullptr, sell0);
      const std::string what =
          std::string(backend_kind_name(k)) + (sell0 ? " sell" : " csr");
      Rng rng(31);
      const Vector b =
          random_vector(static_cast<std::size_t>(setup.a(0).rows()), rng);
      const double scale = 1.0 / norm2(b);

      MultiplicativeMg ref_mg(setup);
      Vector x_ref(b.size(), 0.0);
      Vector r;
      std::vector<double> hist_ref;
      setup.a(0).residual(b, x_ref, r);
      hist_ref.push_back(norm2(r) * scale);
      for (int t = 0; t < kCycles; ++t) {
        ref_mg.cycle(b, x_ref);
        setup.a(0).residual(b, x_ref, r);
        hist_ref.push_back(norm2(r) * scale);
      }

      MultiplicativeMg mg(setup);
      Vector x(b.size(), 0.0);
      const SolveStats st = mg.solve(b, x, kCycles);
      EXPECT_EQ(st.cycles, kCycles) << what;
      ASSERT_EQ(st.rel_res_history.size(), hist_ref.size()) << what;
      for (std::size_t i = 0; i < hist_ref.size(); ++i) {
        EXPECT_EQ(st.rel_res_history[i], hist_ref[i])
            << what << " history " << i;
      }
      expect_bitwise(x_ref, x, what.c_str());
    }
  }
}

TEST(BackendIntegration, BackendSelectEventEmittedOnlyForNonScalar) {
  const auto count_selects = [](BackendKind k, BackendKind* resolved) {
    const auto setup = make_setup(k);
    if (resolved != nullptr) *resolved = setup->backend_kind();
    TelemetrySink sink;
    MultiplicativeMg mg(*setup);
    mg.set_telemetry(&sink, 0);
    std::size_t n = 0;
    for (const DrainedEvent& de : sink.drain()) {
      if (de.ev.kind == EventKind::kBackendSelect) {
        EXPECT_EQ(static_cast<BackendKind>(de.ev.a), setup->backend_kind());
        EXPECT_EQ(static_cast<BackendKind>(de.ev.b), k);
        ++n;
      }
    }
    return n;
  };
  // Scalar setups stay silent: golden traces recorded before the backend
  // subsystem existed must match under ASYNCMG_BACKEND=scalar.
  EXPECT_EQ(count_selects(BackendKind::kScalar, nullptr), 0u);
  for (const BackendKind k : {BackendKind::kAvx2, BackendKind::kAvx512}) {
    if (!backend_supported(k)) continue;
    BackendKind resolved = BackendKind::kAuto;
    EXPECT_EQ(count_selects(k, &resolved), 1u);
    EXPECT_EQ(resolved, k);
  }
}

}  // namespace
}  // namespace asyncmg
