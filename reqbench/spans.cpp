// Shared helpers of the workloads and the raw-result writer.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "reqbench.hpp"
#include "sparse/vec.hpp"
#include "util/rng.hpp"

namespace reqbench {

using asyncmg::CsrMatrix;
using asyncmg::Index;
using asyncmg::Vector;

namespace {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix-style mix so neighbouring (seed, stream) pairs do not share
  // generator state.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string num(double v) {
  return std::isfinite(v) ? format_number(v) : "null";
}

std::string quoted(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

void write_numbers(std::ostream& o, const std::vector<double>& v) {
  o << "[";
  for (std::size_t i = 0; i < v.size(); ++i) o << (i ? "," : "") << num(v[i]);
  o << "]";
}

template <typename Map, typename Fmt>
void write_map(std::ostream& o, const Map& m, Fmt fmt) {
  o << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    o << (first ? "" : ",") << quoted(k) << ":" << fmt(v);
    first = false;
  }
  o << "}";
}

}  // namespace

Vector seeded_rhs(std::size_t n, std::uint64_t seed, std::uint64_t stream) {
  asyncmg::Rng rng(stream_seed(seed, stream));
  return asyncmg::random_vector(n, rng);
}

CsrMatrix perturbed(const CsrMatrix& a, std::uint64_t seed,
                    std::uint64_t stream) {
  asyncmg::Rng rng(stream_seed(seed, stream ^ 0xd1b54a32d192ed03ull));
  std::vector<double> d(static_cast<std::size_t>(a.rows()));
  for (double& v : d) v = 1.0 + 0.01 * rng.next_double();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto av = a.values();
  std::vector<double> vals(av.begin(), av.end());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index k = rp[i]; k < rp[i + 1]; ++k) {
      vals[static_cast<std::size_t>(k)] *=
          d[static_cast<std::size_t>(i)] * d[static_cast<std::size_t>(ci[k])];
    }
  }
  return CsrMatrix::from_csr(a.rows(), a.cols(),
                             std::vector<Index>(rp.begin(), rp.end()),
                             std::vector<Index>(ci.begin(), ci.end()),
                             std::move(vals));
}

double reference_rel_res(const CsrMatrix& a, const Vector& b, const Vector& x) {
  Vector r;
  a.residual(b, x, r);
  const double bn = asyncmg::norm2(b);
  return asyncmg::norm2(r) / (bn > 0.0 ? bn : 1.0);
}

std::string format_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

bool bitwise_equal(const Vector& a, const Vector& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

double median_of(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_self_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double peak_rss_children_mb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void write_result(const Result& r, const std::string& path) {
  std::ofstream o(path);
  if (!o) throw std::runtime_error("cannot write " + path);
  o << "{\"workload\":" << quoted(r.workload) << ",\"seed\":" << r.seed
    << ",\"trace\":" << (r.trace ? "true" : "false")
    << ",\"attempted\":" << r.attempted << ",\"wall\":" << num(r.wall)
    << ",\"peak_rss_mb\":" << num(r.peak_rss_mb) << ",\"failures\":{"
    << "\"rejected\":" << r.failures.rejected
    << ",\"timed_out\":" << r.failures.timed_out
    << ",\"exceptions\":" << r.failures.exceptions
    << ",\"missed_target\":" << r.failures.missed_target
    << ",\"dead_workers\":" << r.failures.dead_workers << "}";
  o << ",\"latencies\":";
  write_numbers(o, r.latencies);
  o << ",\"setups\":";
  write_numbers(o, r.setups);
  o << ",\"traced_latencies\":";
  write_numbers(o, r.traced_latencies);
  o << ",\"layer\":";
  write_map(o, r.layer, [](double v) { return num(v); });
  o << ",\"host\":";
  write_map(o, r.host, [](const std::string& v) { return quoted(v); });
  o << ",\"host_numbers\":";
  write_map(o, r.host_numbers, [](double v) { return num(v); });
  o << ",\"config\":";
  write_map(o, r.config, [](const std::string& v) { return quoted(v); });
  o << ",\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    o << (i ? "," : "") << "{\"name\":" << quoted(c.name)
      << ",\"ok\":" << (c.ok ? "true" : "false")
      << ",\"detail\":" << quoted(c.detail) << "}";
  }
  // Spans as compact rows: [id, parent, req, name, start_ns, end_ns].
  o << "],\"spans\":[";
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const SpanRec& s = r.spans[i];
    o << (i ? "," : "") << "[" << s.id << "," << s.parent << "," << s.req
      << "," << quoted(s.name) << "," << s.start << "," << s.end << "]";
  }
  o << "]}\n";
}

}  // namespace reqbench
