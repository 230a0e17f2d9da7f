#pragma once
// Request-path benchmark driver: shared types.
//
// One process runs one workload for a fixed wall-clock budget and writes a
// raw result file (samples, span log, counters, output checks, host block)
// as JSON. run.py turns that file into the metrics; the statistics live
// there so they are unit-tested in one place (test_stats.py).
//
// Spans are recorded from the benchmark's side of the public calls into the
// library (service, amg, multigrid, backend, async, net). Nothing inside the
// library is instrumented.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "multigrid/setup.hpp"
#include "sparse/csr.hpp"
#include "sparse/types.hpp"
#include "telemetry/sink.hpp"

namespace reqbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;        // raw result JSON path
  std::string workerd;    // asyncmg_workerd binary (fleet_bsp)
  std::string tmp_dir;    // scratch directory inside the checkout
  std::string git_commit = "unknown";
};

/// One recorded span: [start, end] in ns since the log's epoch. `parent` is
/// the id of the span that caused it (0 = none); `req` groups the spans of
/// one request (0 = not part of a request, e.g. setup).
struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t req = 0;
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// In-memory span log, written out with the result at exit. Thread-safe.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}
  std::uint64_t next_id() { return ++ids_; }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  void add(const SpanRec& s) {
    const std::lock_guard<std::mutex> g(mu_);
    spans_.push_back(s);
  }
  std::vector<SpanRec> snapshot() const {
    const std::lock_guard<std::mutex> g(mu_);
    return spans_;
  }

 private:
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
};

/// RAII span: starts at construction, recorded at destruction (or end()).
/// A null log makes every operation a no-op, so untraced code paths share
/// the traced ones.
class Span {
 public:
  Span(SpanLog* log, const char* name, std::uint64_t parent = 0,
       std::uint64_t req = 0)
      : log_(log) {
    if (log_ == nullptr) return;
    rec_.id = log_->next_id();
    rec_.parent = parent;
    rec_.req = req;
    rec_.name = name;
    rec_.start = log_->now_ns();
  }
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return rec_.id; }
  void end() {
    if (log_ == nullptr || done_) return;
    done_ = true;
    rec_.end = log_->now_ns();
    log_->add(rec_);
  }

 private:
  SpanLog* log_;
  SpanRec rec_;
  bool done_ = false;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Why a solve counted as failed (failed_frac numerator).
struct Failures {
  std::uint64_t rejected = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t exceptions = 0;
  std::uint64_t missed_target = 0;
  std::uint64_t dead_workers = 0;
};

/// Raw output of one run; serialized by write_result().
struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  // Untraced timed loop (both modes run it; in trace mode it is the
  // reference for trace.overhead_frac).
  std::vector<double> latencies;  // seconds per successful solve
  double wall = 0.0;              // seconds of the timed loop
  std::uint64_t attempted = 0;
  Failures failures;
  std::vector<double> setups;     // setup_s samples
  double peak_rss_mb = 0.0;
  // Traced replay (trace mode only).
  std::vector<double> traced_latencies;
  std::vector<SpanRec> spans;
  // Per-layer values measured directly (counts, ratios, derived times);
  // "trace.failed_solves" counts traced solves that failed (run.py warns).
  std::map<std::string, double> layer;
  std::vector<Check> checks;
  std::map<std::string, std::string> host;       // string-valued host facts
  std::map<std::string, double> host_numbers;    // numeric host facts
  std::map<std::string, std::string> config;     // workload parameters
};

// --- setup (mirror.cpp) ----------------------------------------------------

/// The paper's BoomerAMG-style options (HMIS, classical modified
/// interpolation, no aggressive coarsening, weighted Jacobi) with the fp64
/// precision policy pinned so the environment cannot change the hierarchy.
asyncmg::MgOptions paper_options(double omega, int setup_threads);

/// Hierarchy::build replayed through the public phase functions, one span
/// per phase (amg.strength / amg.coarsen / amg.interp / amg.rap).
asyncmg::Hierarchy mirrored_hierarchy(const asyncmg::CsrMatrix& a_fine,
                                      const asyncmg::AmgOptions& opts,
                                      SpanLog* log, std::uint64_t parent,
                                      std::uint64_t req);

/// mirrored_hierarchy + MgSetup(Hierarchy, opts) (span multigrid.mgsetup).
std::shared_ptr<const asyncmg::MgSetup> traced_mgsetup(
    const asyncmg::CsrMatrix& a, const asyncmg::MgOptions& mo, SpanLog* log,
    std::uint64_t parent, std::uint64_t req);

/// Levels, sizes and values of the mirror equal Hierarchy::build's.
Check mirror_matches_build(const asyncmg::CsrMatrix& a,
                           const asyncmg::AmgOptions& opts);

/// Per-setup AMG shape, recorded as amg.levels / amg.operator_complexity.
void record_shape(Result& r, const asyncmg::MgSetup& s);

/// Level-0 seconds of the multiplicative cycles recorded in `sink` (sum of
/// matched kPhaseBegin/kPhaseEnd pairs at level 0); drains the sink.
double drain_level0_seconds(asyncmg::TelemetrySink& sink);

/// Computed bytes one V(1,1) cycle moves through level 0: three passes
/// over A_0 (residual, fused residual+restrict, post-sweep; sell_pass_bytes
/// for SELL levels, csr_pass_bytes otherwise) plus one pass over P_0 and
/// one over P_0^T. Vector traffic is not counted.
double level0_bytes_per_cycle(const asyncmg::MgSetup& s);

// --- helpers shared by the workloads (spans.cpp) ---------------------------

/// Matrix of request i in a two-matrix rotation: three of every four
/// requests use matrix 0. The two matrices' latencies form two modes; an
/// even split would put the median in the gap between them, where it
/// swings with either mode's tail.
inline std::size_t rotation_index(std::size_t i) { return i % 4 == 3 ? 1 : 0; }

/// Seeded right-hand side in [-1, 1): stream `stream` of workload seed.
asyncmg::Vector seeded_rhs(std::size_t n, std::uint64_t seed,
                           std::uint64_t stream);

/// Never-seen variant of `a`: D A D with D = diag(1 + 0.01 u_i), u seeded.
/// Keeps symmetry, definiteness and the sparsity pattern; every value (and
/// so the content fingerprint) changes.
asyncmg::CsrMatrix perturbed(const asyncmg::CsrMatrix& a, std::uint64_t seed,
                             std::uint64_t stream);

/// ||b - A x|| / ||b|| through the reference CSR residual.
double reference_rel_res(const asyncmg::CsrMatrix& a, const asyncmg::Vector& b,
                         const asyncmg::Vector& x);

bool bitwise_equal(const asyncmg::Vector& a, const asyncmg::Vector& b);

/// Decimal form of v that reads back exactly (%.15g, else %.17g).
std::string format_number(double v);

/// Median of a sample (NaN when empty); used for in-process decisions only.
double median_of(std::vector<double> v);

/// Peak resident set of this process in MiB (getrusage RUSAGE_SELF), and of
/// reaped children (RUSAGE_CHILDREN).
double peak_rss_self_mb();
double peak_rss_children_mb();

/// Host block: CPU model, nproc, LLC, ISA flags, OMP threads, build, commit.
void fill_host(Result& r, const Args& args);

/// host.stream_gbps: read bandwidth of a 4-thread sum over an array of at
/// least 4x the last-level cache (median of several passes).
double measure_stream_gbps(double llc_bytes, double* array_bytes);

void write_result(const Result& r, const std::string& path);

// --- workloads --------------------------------------------------------------

void run_warm_service(const Args& args, Result& r);
void run_cold_service(const Args& args, Result& r);
void run_async_teams(const Args& args, Result& r);
void run_fleet_bsp(const Args& args, Result& r);

}  // namespace reqbench
