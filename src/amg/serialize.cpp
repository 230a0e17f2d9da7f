#include "amg/serialize.hpp"

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/hash.hpp"

namespace asyncmg {

// Bulk arrays are memcpy'd in host representation; the container promises
// little-endian, so a big-endian host would need a byte-swap path first.
static_assert(std::endian::native == std::endian::little,
              "hierarchy container is little-endian only");

namespace {

constexpr char kMagic[8] = {'a', 's', 'y', 'n', 'c', 'm', 'g', 'H'};
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kMaxLevels = 1000;
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 2 * sizeof(std::uint32_t);
constexpr std::size_t kChecksumBytes = sizeof(std::uint64_t);

[[noreturn]] void fail(const std::string& msg) {
  throw std::runtime_error("load_hierarchy: " + msg);
}

std::size_t block_bytes(const CsrMatrix& m) {
  const auto nnz = static_cast<std::size_t>(m.nnz());
  return 3 * sizeof(Index) + 1 +
         (static_cast<std::size_t>(m.rows()) + 1) * sizeof(Index) +
         nnz * sizeof(Index) + m.value_bytes();
}

class Writer {
 public:
  explicit Writer(std::size_t size) { out_.reserve(size); }

  void raw(const void* p, std::size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }
  template <class T>
  void pod(T v) {
    raw(&v, sizeof(v));
  }

  void block(const CsrMatrix& m) {
    pod<Index>(m.rows());
    pod<Index>(m.cols());
    pod<Index>(m.nnz());
    pod<std::uint8_t>(static_cast<std::uint8_t>(m.precision()));
    // A default-constructed matrix has no row_ptr; its 0 x 0 form has {0}.
    const Index zero = 0;
    const std::span<const Index> rp =
        m.row_ptr().empty() ? std::span<const Index>(&zero, 1) : m.row_ptr();
    raw(rp.data(), rp.size_bytes());
    raw(m.col_idx().data(), m.col_idx().size_bytes());
    m.with_values([&](const auto* v) { raw(v, m.value_bytes()); });
  }

  std::string finish() && {
    pod<std::uint64_t>(fnv1a_bytes(out_.data(), out_.size()));
    return std::move(out_);
  }

 private:
  std::string out_;
};

/// Bounds-checked cursor over the container body (checksum excluded).
class Reader {
 public:
  Reader(const char* data, std::size_t size) : p_(data), end_(data + size) {}

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  void raw(void* dst, std::size_t n) {
    if (n > remaining()) fail("truncated");
    if (n > 0) std::memcpy(dst, p_, n);
    p_ += n;
  }
  template <class T>
  T pod() {
    T v;
    raw(&v, sizeof(v));
    return v;
  }

  /// `count` elements of T, checked against the remaining bytes before the
  /// vector is allocated.
  template <class T>
  std::vector<T> array(std::size_t count) {
    if (count > remaining() / sizeof(T)) fail("array overruns the input");
    std::vector<T> v(count);
    raw(v.data(), count * sizeof(T));
    return v;
  }

  /// A size field: must lie in [0, INT32_MAX).
  Index dim(const char* what) {
    const Index v = pod<Index>();
    if (v < 0 || v == std::numeric_limits<Index>::max()) {
      fail(std::string("bad ") + what);
    }
    return v;
  }

  CsrMatrix block() {
    const Index rows = dim("rows");
    const Index cols = dim("cols");
    const Index nnz = dim("nnz");
    const auto tag = pod<std::uint8_t>();
    if (tag > static_cast<std::uint8_t>(Precision::kF32)) {
      fail("bad precision tag");
    }
    const auto prec = static_cast<Precision>(tag);
    const auto n = static_cast<std::size_t>(nnz);
    std::vector<Index> row_ptr =
        array<Index>(static_cast<std::size_t>(rows) + 1);
    std::vector<Index> col_idx = array<Index>(n);
    std::vector<double> values;
    if (prec == Precision::kF32) {
      // Widening is exact, so convert_precision below restores the stored
      // floats bit for bit.
      const std::vector<float> f = array<float>(n);
      values.assign(f.begin(), f.end());
    } else {
      values = array<double>(n);
    }
    CsrMatrix m = CsrMatrix::from_csr(rows, cols, std::move(row_ptr),
                                      std::move(col_idx), std::move(values));
    m.convert_precision(prec);
    return m;
  }

 private:
  const char* p_;
  const char* end_;
};

Hierarchy parse(const char* data, std::size_t size) {
  if (size < kHeaderBytes + kChecksumBytes) fail("truncated");
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) fail("bad magic");
  const std::size_t body = size - kChecksumBytes;
  Reader r(data + sizeof(kMagic), body - sizeof(kMagic));
  if (r.pod<std::uint32_t>() != kVersion) fail("unsupported version");
  std::uint64_t stored;
  std::memcpy(&stored, data + body, sizeof(stored));
  if (fnv1a_bytes(data, body) != stored) fail("checksum mismatch");

  const auto nl = r.pod<std::uint32_t>();
  if (nl == 0 || nl >= kMaxLevels) fail("bad level count");
  std::vector<AmgLevel> levels;  // grows per parsed level: nl is untrusted
  try {
    for (std::uint32_t k = 0; k < nl; ++k) {
      AmgLevel lvl;
      lvl.a = r.block();
      if (k + 1 < nl) lvl.p = r.block();
      const Index ns = r.dim("split size");
      if (ns > lvl.a.rows()) fail("bad split size");
      const std::vector<std::uint8_t> split =
          r.array<std::uint8_t>(static_cast<std::size_t>(ns));
      lvl.split.resize(split.size());
      for (std::size_t i = 0; i < split.size(); ++i) {
        if (split[i] > 1) fail("bad split entry");
        lvl.split[i] = split[i] ? PointType::kCoarse : PointType::kFine;
      }
      levels.push_back(std::move(lvl));
    }
    if (r.remaining() != 0) fail("trailing bytes");
    return Hierarchy::from_levels(std::move(levels));
  } catch (const std::logic_error& e) {
    // from_csr / from_levels reject structurally invalid arrays; to the
    // caller that is one more malformed container.
    fail(e.what());
  }
}

}  // namespace

std::string save_hierarchy_string(const Hierarchy& h) {
  const std::size_t nl = h.num_levels();
  std::size_t size = kHeaderBytes + kChecksumBytes;
  for (std::size_t k = 0; k < nl; ++k) {
    const AmgLevel& lvl = h.level(k);
    size += block_bytes(lvl.a) + sizeof(Index) + lvl.split.size();
    if (k + 1 < nl) size += block_bytes(lvl.p);
  }
  Writer w(size);
  w.raw(kMagic, sizeof(kMagic));
  w.pod<std::uint32_t>(kVersion);
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(nl));
  for (std::size_t k = 0; k < nl; ++k) {
    const AmgLevel& lvl = h.level(k);
    w.block(lvl.a);
    if (k + 1 < nl) w.block(lvl.p);
    w.pod<Index>(static_cast<Index>(lvl.split.size()));
    for (PointType t : lvl.split) {
      w.pod<std::uint8_t>(t == PointType::kCoarse ? 1 : 0);
    }
  }
  return std::move(w).finish();
}

Hierarchy load_hierarchy_string(const std::string& bytes) {
  return parse(bytes.data(), bytes.size());
}

void save_hierarchy(std::ostream& out, const Hierarchy& h) {
  const std::string bytes = save_hierarchy_string(h);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Hierarchy load_hierarchy(std::istream& in) {
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return load_hierarchy_string(bytes);
}

void save_hierarchy_file(const std::string& path, const Hierarchy& h) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("save_hierarchy: cannot open " + path);
  save_hierarchy(f, h);
  if (!f.flush()) {
    throw std::runtime_error("save_hierarchy: write failed " + path);
  }
}

Hierarchy load_hierarchy_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("load_hierarchy: cannot open " + path);
  return load_hierarchy(f);
}

}  // namespace asyncmg
