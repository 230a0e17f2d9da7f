// Tests for hierarchy serialization (save the expensive setup phase,
// reload for repeated solves).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <new>
#include <sstream>

#include "amg/serialize.hpp"
#include "mesh/problems.hpp"
#include "multigrid/mult.hpp"
#include "sparse/vec.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

// Largest single heap request while a fuzzed load runs: the loader must not
// let a hostile size field allocate beyond (a small multiple of) the input.
namespace {
std::atomic<bool> g_track_allocs{false};
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_track_allocs.load(std::memory_order_relaxed)) {
    std::size_t prev = g_largest_alloc.load(std::memory_order_relaxed);
    while (n > prev && !g_largest_alloc.compare_exchange_weak(prev, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so GCC does not pair the inlined free() with a new-expression
// and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace asyncmg {
namespace {

Hierarchy make_hierarchy(Index n = 8) {
  Problem prob = make_laplace_7pt(n);
  AmgOptions opts;
  opts.num_aggressive_levels = 1;
  return Hierarchy::build(std::move(prob.a), opts);
}

TEST(Serialize, RoundTripPreservesEverything) {
  const Hierarchy h = make_hierarchy();
  std::stringstream ss;
  save_hierarchy(ss, h);
  const Hierarchy g = load_hierarchy(ss);

  ASSERT_EQ(g.num_levels(), h.num_levels());
  for (std::size_t k = 0; k < h.num_levels(); ++k) {
    EXPECT_TRUE(g.matrix(k).approx_equal(h.matrix(k), 1e-14)) << "A_" << k;
    if (k + 1 < h.num_levels()) {
      EXPECT_TRUE(g.interpolation(k).approx_equal(h.interpolation(k), 1e-14))
          << "P_" << k;
    }
    EXPECT_EQ(g.level(k).split, h.level(k).split) << "split_" << k;
  }
  EXPECT_DOUBLE_EQ(g.operator_complexity(), h.operator_complexity());
}

TEST(Serialize, ReloadedHierarchySolvesIdentically) {
  const Hierarchy h = make_hierarchy();
  std::stringstream ss;
  save_hierarchy(ss, h);
  Hierarchy g = load_hierarchy(ss);

  MgOptions mo;
  mo.smoother.type = SmootherType::kWeightedJacobi;
  mo.smoother.omega = 0.9;
  // Rebuild an identical second hierarchy for the reference setup (the
  // original was consumed conceptually; Hierarchy is copyable via rebuild).
  MgSetup ref(make_hierarchy(), mo);
  MgSetup loaded(std::move(g), mo);

  Rng rng(83);
  const Vector b = random_vector(static_cast<std::size_t>(ref.a(0).rows()), rng);
  Vector x1(b.size(), 0.0), x2(b.size(), 0.0);
  MultiplicativeMg mg1(ref), mg2(loaded);
  const SolveStats s1 = mg1.solve(b, x1, 20);
  const SolveStats s2 = mg2.solve(b, x2, 20);
  EXPECT_NEAR(s1.final_rel_res(), s2.final_rel_res(), 1e-13);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(x1[i], x2[i], 1e-12);
}

TEST(Serialize, FileRoundTrip) {
  const Hierarchy h = make_hierarchy(6);
  const std::string path = "/tmp/asyncmg_test_hierarchy.txt";
  save_hierarchy_file(path, h);
  const Hierarchy g = load_hierarchy_file(path);
  EXPECT_EQ(g.num_levels(), h.num_levels());
  std::remove(path.c_str());
}

TEST(Serialize, StringRoundTripMatchesStreamForm) {
  // The in-memory round-trip (the HierarchyCache spill primitive) must be
  // byte-identical to the stream form and reload losslessly.
  const Hierarchy h = make_hierarchy(6);
  std::stringstream ss;
  save_hierarchy(ss, h);
  const std::string bytes = save_hierarchy_string(h);
  EXPECT_EQ(bytes, ss.str());

  const Hierarchy g = load_hierarchy_string(bytes);
  ASSERT_EQ(g.num_levels(), h.num_levels());
  for (std::size_t k = 0; k < h.num_levels(); ++k) {
    EXPECT_TRUE(g.matrix(k).approx_equal(h.matrix(k), 1e-14)) << "A_" << k;
  }
  EXPECT_THROW(load_hierarchy_string("garbage"), std::runtime_error);
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream ss("not-a-hierarchy at all");
  EXPECT_THROW(load_hierarchy(ss), std::runtime_error);
}

TEST(Serialize, RejectsTruncated) {
  const Hierarchy h = make_hierarchy(6);
  std::stringstream ss;
  save_hierarchy(ss, h);
  std::string text = ss.str();
  text.resize(text.size() / 2);
  std::stringstream half(text);
  EXPECT_THROW(load_hierarchy(half), std::runtime_error);
}

TEST(Serialize, RejectsMissingFile) {
  EXPECT_THROW(load_hierarchy_file("/nonexistent/path/h.txt"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Binary container: properties and fuzzing (run under ASan+UBSan in CI)
// ---------------------------------------------------------------------------

/// Three small levels with interpolants, so every block kind is present.
Hierarchy small_hierarchy(bool f32coarse) {
  AmgOptions opts;
  opts.coarse_size = 8;
  opts.precision = PrecisionPolicy{};
  if (f32coarse) opts.precision.mode = PrecisionPolicy::Mode::kF32Coarse;
  return Hierarchy::build(make_laplace_7pt(5).a, opts);
}

std::string read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

/// Rewrites the trailing checksum so a patched container reaches the
/// structural checks behind it.
void reseal(std::string& bytes) {
  const std::uint64_t h = fnv1a_bytes(bytes.data(), bytes.size() - 8);
  std::memcpy(bytes.data() + bytes.size() - 8, &h, sizeof(h));
}

template <class T>
void patch(std::string& bytes, std::size_t offset, T v) {
  std::memcpy(bytes.data() + offset, &v, sizeof(v));
  reseal(bytes);
}

/// Loads `bytes`, expecting a std::runtime_error, and checks that no single
/// allocation during the attempt exceeded twice the input size (fp32
/// values widen to double before demotion) plus a small constant.
void expect_rejected(const std::string& bytes, const std::string& what) {
  g_largest_alloc.store(0);
  g_track_allocs.store(true);
  EXPECT_THROW(load_hierarchy_string(bytes), std::runtime_error) << what;
  g_track_allocs.store(false);
  EXPECT_LE(g_largest_alloc.load(), 2 * bytes.size() + 4096) << what;
}

// Offsets into the container: 8-byte magic, u32 version, u32 level count,
// then level 0's A block header (i32 rows, i32 cols, i32 nnz, u8 tag).
constexpr std::size_t kLevelCountAt = 12;
constexpr std::size_t kRowsAt = 16;
constexpr std::size_t kColsAt = 20;
constexpr std::size_t kNnzAt = 24;
constexpr std::size_t kTagAt = 28;

TEST(SerializeContainer, ReserializingALoadReproducesTheBytes) {
  for (bool f32 : {false, true}) {
    const Hierarchy h = small_hierarchy(f32);
    ASSERT_GE(h.num_levels(), 3u);
    EXPECT_EQ(h.matrix(1).precision(), f32 ? Precision::kF32 : Precision::kF64);
    const std::string bytes = save_hierarchy_string(h);
    EXPECT_EQ(save_hierarchy_string(load_hierarchy_string(bytes)), bytes)
        << (f32 ? "f32coarse" : "f64");
  }
}

TEST(SerializeContainer, FileRoundTripKeepsTheBits) {
  const Hierarchy h = small_hierarchy(true);
  const std::string bytes = save_hierarchy_string(h);
  const std::string path = "asyncmg_test_container.amgh";
  save_hierarchy_file(path, h);
  EXPECT_EQ(read_bytes(path), bytes);
  EXPECT_EQ(save_hierarchy_string(load_hierarchy_file(path)), bytes);
  std::remove(path.c_str());
}

TEST(SerializeContainer, EveryTruncatedPrefixThrows) {
  const std::string bytes = save_hierarchy_string(small_hierarchy(true));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    expect_rejected(bytes.substr(0, cut), "cut=" + std::to_string(cut));
  }
}

TEST(SerializeContainer, RandomBitFlipsThrow) {
  const std::string bytes = save_hierarchy_string(small_hierarchy(true));
  Rng rng(2026);
  for (int it = 0; it < 2000; ++it) {
    std::string f = bytes;
    const std::size_t bit = rng.next_below(8 * f.size());
    f[bit / 8] = static_cast<char>(f[bit / 8] ^ (1 << (bit % 8)));
    expect_rejected(f, "bit=" + std::to_string(bit));
  }
}

TEST(SerializeContainer, ResealedHostileHeadersThrow) {
  // With the checksum recomputed, every size field and tag is still checked
  // before it is trusted.
  const std::string bytes = save_hierarchy_string(small_hierarchy(true));
  struct Case {
    const char* what;
    std::size_t at;
    std::int32_t value;
  };
  for (const Case& c : {Case{"nnz beyond input", kNnzAt, 1 << 30},
                        Case{"nnz INT32_MAX", kNnzAt, INT32_MAX},
                        Case{"negative nnz", kNnzAt, -1},
                        Case{"rows beyond input", kRowsAt, 1 << 30},
                        Case{"negative rows", kRowsAt, -5},
                        Case{"cols shrunk below col_idx", kColsAt, 1},
                        Case{"zero levels", kLevelCountAt, 0},
                        Case{"1000 levels", kLevelCountAt, 1000},
                        Case{"999 levels", kLevelCountAt, 999}}) {
    std::string f = bytes;
    patch(f, c.at, c.value);
    expect_rejected(f, c.what);
  }
  std::string tag = bytes;
  patch<std::uint8_t>(tag, kTagAt, 2);
  expect_rejected(tag, "precision tag");

  // Level 0's first split entry follows its A and P blocks and the count.
  const Hierarchy h = load_hierarchy_string(bytes);
  ASSERT_FALSE(h.level(0).split.empty());
  const auto block = [](const CsrMatrix& m) {
    return 13 + 4 * (static_cast<std::size_t>(m.rows()) + 1) +
           4 * static_cast<std::size_t>(m.nnz()) + m.value_bytes();
  };
  const std::size_t split0 =
      16 + block(h.matrix(0)) + block(h.interpolation(0)) + 4;
  ASSERT_LE(static_cast<unsigned char>(bytes[split0]), 1);
  std::string split = bytes;
  patch<std::uint8_t>(split, split0, 2);
  expect_rejected(split, "split entry");

  std::string trailing = bytes;
  trailing.insert(trailing.size() - 8, 1, '\0');
  reseal(trailing);
  expect_rejected(trailing, "trailing byte");

  std::string version = bytes;
  patch<std::uint32_t>(version, 8, 2);
  expect_rejected(version, "text-era version");
}

TEST(FromLevels, ValidatesChain) {
  // Mismatched interpolation shape must be rejected.
  Problem p1 = make_laplace_7pt(4);
  Problem p2 = make_laplace_7pt(3);
  std::vector<AmgLevel> levels(2);
  levels[0].a = std::move(p1.a);
  levels[1].a = std::move(p2.a);
  levels[0].p = CsrMatrix::identity(10);  // wrong shape
  EXPECT_THROW(Hierarchy::from_levels(std::move(levels)),
               std::invalid_argument);
  EXPECT_THROW(Hierarchy::from_levels({}), std::invalid_argument);
}

}  // namespace
}  // namespace asyncmg
