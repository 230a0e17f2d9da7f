#include "sparse/io.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace asyncmg {

namespace {

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

}  // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("mm: empty stream");
  std::istringstream banner(line);
  std::string tag, object, format, field, symmetry;
  banner >> tag >> object >> format >> field >> symmetry;
  if (tag != "%%MatrixMarket" || lower(object) != "matrix" ||
      lower(format) != "coordinate" || lower(field) != "real") {
    throw std::runtime_error("mm: unsupported banner: " + line);
  }
  const std::string sym = lower(symmetry);
  if (sym != "general" && sym != "symmetric") {
    throw std::runtime_error("mm: unsupported symmetry: " + symmetry);
  }
  // Skip comments.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream dims(line);
  long long rows = 0, cols = 0, nnz = 0;
  if (!(dims >> rows >> cols >> nnz)) {
    throw std::runtime_error("mm: bad dimension line");
  }
  constexpr long long kMaxSize = std::numeric_limits<Index>::max();
  if (rows < 0 || cols < 0 || nnz < 0 || rows >= kMaxSize ||
      cols >= kMaxSize || nnz >= kMaxSize) {
    throw std::runtime_error("mm: dimensions out of range");
  }
  // The header is one untrusted line: reserve at most a modest prefix and
  // let the array grow with the entries actually read.
  constexpr long long kMaxReserve = 1 << 20;
  const bool symmetric = sym == "symmetric";
  std::vector<Triplet> trips;
  trips.reserve(static_cast<std::size_t>(
      std::min(symmetric ? 2 * nnz : nnz, kMaxReserve)));
  for (long long k = 0; k < nnz; ++k) {
    long long i = 0, j = 0;
    double v = 0.0;
    if (!(in >> i >> j >> v)) throw std::runtime_error("mm: truncated entries");
    // Range-check the 1-based indices before narrowing to Index.
    if (i < 1 || i > rows || j < 1 || j > cols) {
      throw std::runtime_error("mm: entry index out of range");
    }
    const auto r = static_cast<Index>(i - 1);
    const auto c = static_cast<Index>(j - 1);
    trips.push_back({r, c, v});
    if (symmetric && r != c) trips.push_back({c, r, v});
  }
  return CsrMatrix::from_triplets(static_cast<Index>(rows),
                                  static_cast<Index>(cols), std::move(trips));
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("mm: cannot open " + path);
  return read_matrix_market(f);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << a.rows() << ' ' << a.cols() << ' ' << a.nnz() << '\n';
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  // fp32 values widen exactly to double; 17 significant digits round-trips
  // either width through the text form.
  out.precision(17);
  a.with_values([&](const auto* v) {
    for (Index i = 0; i < a.rows(); ++i) {
      for (Index k = rp[i]; k < rp[i + 1]; ++k) {
        out << (i + 1) << ' ' << (ci[static_cast<std::size_t>(k)] + 1) << ' '
            << static_cast<double>(v[static_cast<std::size_t>(k)]) << '\n';
      }
    }
  });
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& a) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("mm: cannot open " + path);
  write_matrix_market(f, a);
}

Vector read_vector(std::istream& in) {
  std::size_t n = 0;
  if (!(in >> n)) throw std::runtime_error("vec: bad length");
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!(in >> v[i])) throw std::runtime_error("vec: truncated");
  }
  return v;
}

void write_vector(std::ostream& out, const Vector& v) {
  out << v.size() << '\n';
  out.precision(17);
  for (double x : v) out << x << '\n';
}

}  // namespace asyncmg
