// Host block and the host bandwidth reference. Everything here comes from
// CPUID, the C library and the process environment -- no file outside the
// checkout is read.

#include <cpuid.h>
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "reqbench.hpp"

#ifndef REQBENCH_BUILD_TYPE
#define REQBENCH_BUILD_TYPE "unknown"
#endif
#ifndef REQBENCH_CXX_COMPILER
#define REQBENCH_CXX_COMPILER "unknown"
#endif

namespace reqbench {

namespace {

std::string cpu_brand() {
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

/// Largest cache reported by CPUID leaf 4 (deterministic cache parameters),
/// in bytes; 0 when the leaf is unavailable.
double llc_bytes_cpuid() {
  if (__get_cpuid_max(0, nullptr) < 4) return 0.0;
  double best = 0.0;
  for (unsigned int sub = 0; sub < 16; ++sub) {
    unsigned int a = 0, b = 0, c = 0, d = 0;
    __cpuid_count(4, sub, a, b, c, d);
    if ((a & 0x1f) == 0) break;
    const double ways = ((b >> 22) & 0x3ff) + 1;
    const double parts = ((b >> 12) & 0x3ff) + 1;
    const double line = (b & 0xfff) + 1;
    const double sets = static_cast<double>(c) + 1;
    best = std::max(best, ways * parts * line * sets);
  }
  return best;
}

std::string isa_flags() {
  std::string s;
  const auto add = [&s](bool on, const char* name) {
    if (!on) return;
    if (!s.empty()) s += ' ';
    s += name;
  };
  __builtin_cpu_init();
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
  add(__builtin_cpu_supports("avx512vl"), "avx512vl");
  return s;
}

}  // namespace

void fill_host(Result& r, const Args& args) {
  r.host["cpu_model"] = cpu_brand();
  r.host["isa_flags"] = isa_flags();
  r.host["backends_supported"] = asyncmg::supported_backends_string();
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  r.host["OMP_NUM_THREADS"] = omp_env != nullptr ? omp_env : "unset";
  const char* be_env = std::getenv("ASYNCMG_BACKEND");
  r.host["ASYNCMG_BACKEND"] = be_env != nullptr ? be_env : "unset";
  r.host["build_type"] = REQBENCH_BUILD_TYPE;
  r.host["compiler"] = REQBENCH_CXX_COMPILER;
  r.host["git_commit"] = args.git_commit;
  r.host_numbers["nproc"] = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  r.host_numbers["llc_bytes"] = llc_bytes_cpuid();
  r.host_numbers["omp_max_threads"] = omp_get_max_threads();
}

double measure_stream_gbps(double llc_bytes, double* array_bytes) {
  // 4x the LLC (at least 64 MiB when CPUID reports nothing) of doubles.
  const double target = std::max(4.0 * llc_bytes, 64.0 * 1024 * 1024);
  const std::size_t n = static_cast<std::size_t>(target / sizeof(double)) + 1;
  *array_bytes = static_cast<double>(n * sizeof(double));
  const int threads = std::min(4, omp_get_num_procs());
  std::unique_ptr<double[]> a(new double[n]);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::size_t i = 0; i < n; ++i) a[i] = 1.0 + static_cast<double>(i & 7);

  std::vector<double> gbps;
  volatile double sink = 0.0;
  for (int pass = 0; pass < 7; ++pass) {
    const auto t0 = Clock::now();
    double sum = 0.0;
#pragma omp parallel for num_threads(threads) schedule(static) reduction(+ : sum)
    for (std::size_t i = 0; i < n; ++i) sum += a[i];
    const double s = seconds_between(t0, Clock::now());
    sink = sink + sum;
    gbps.push_back(static_cast<double>(n * sizeof(double)) / s / 1e9);
  }
  (void)sink;
  return median_of(gbps);
}

}  // namespace reqbench
