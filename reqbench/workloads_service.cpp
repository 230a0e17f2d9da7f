// warm_service and cold_service: closed-loop clients against an in-process
// SolveService.
//
// Untraced, each client submits through SolveService::submit and times the
// request from submit() to the resolved future. Traced, the same requests
// are replayed on the service's own pool and cache through their public
// calls -- request copy, matrix_fingerprint, HierarchyCache::lookup, the
// mirrored AMG build + MgSetup + HierarchyCache::insert on a miss,
// MultiplicativeMg construction, cycles and the convergence residual, as
// SolveService::execute runs them -- with a span around each call.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <future>
#include <iostream>
#include <memory>
#include <thread>

#include "mesh/problems.hpp"
#include "multigrid/mult.hpp"
#include "reqbench.hpp"
#include "service/fingerprint.hpp"
#include "service/solve_service.hpp"
#include "sparse/vec.hpp"

namespace reqbench {

using namespace asyncmg;

namespace {

// Setup-phase OpenMP team: the machine's 4 cores.
constexpr int kSetupThreads = 4;
// A request that has not finished after this long counts as timed out
// instead of stalling the run.
constexpr double kRequestTimeoutS = 60.0;

struct ServiceWorkload {
  std::vector<CsrMatrix> mats;   // request rotation (warm: resident)
  std::vector<std::string> mat_names;
  bool fresh_matrix_per_request;  // cold: a never-seen variant each time
  std::size_t lanes;              // SolverPool lanes
  std::size_t clients;            // outstanding requests (closed loop)
  int t_max;
  double tol;
  MgOptions mo;
};

/// What a request's client observed (untraced path: from SolveResponse).
struct Observation {
  double latency = 0.0;
  double submit = 0.0;      // the submit() call, request copy included
  double queue = 0.0;       // SolveResponse::queue_seconds
  double loop = 0.0;        // stats.seconds (solve loop)
  int cycles = 0;
};

/// Output kept for the correctness checks after the timed loop.
struct Sample {
  std::size_t mat = 0;
  CsrMatrix a;  // cold only (the request's own matrix)
  Vector b;
  Vector x;
  int cycles = 0;
};

struct LoopState {
  std::mutex mu;
  std::vector<Observation> obs;
  std::vector<Sample> samples;
  Failures failures;
  std::uint64_t attempted = 0;
};

bool keep_sample(std::size_t i) { return i < 4 || i % 32 == 0; }

/// Runs `clients` closed-loop client threads for `seconds`; each calls
/// one_request(index) with a globally increasing request index. Returns the
/// wall seconds until the last outstanding request finished.
template <typename Fn>
double closed_loop(std::size_t clients, double seconds, std::size_t first,
                   Fn&& one_request) {
  std::atomic<std::size_t> next{first};
  const auto t0 = Clock::now();
  const auto stop = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      while (Clock::now() < stop) one_request(next.fetch_add(1));
    });
  }
  for (std::thread& t : threads) t.join();
  return seconds_between(t0, Clock::now());
}

/// The matrix request i's caller passes: the resident rotation matrix, or
/// (cold) a never-seen variant of it, built into `owned`.
const CsrMatrix& request_matrix(const ServiceWorkload& w, std::uint64_t seed,
                                std::size_t i, CsrMatrix& owned) {
  const CsrMatrix& base = w.mats[rotation_index(i)];
  if (!w.fresh_matrix_per_request) return base;
  owned = perturbed(base, seed, 100000 + i);
  return owned;
}

void clear_dir(const std::string& dir) {
  if (dir.empty()) return;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    std::filesystem::remove(e.path(), ec);
  }
}

/// The untraced timed loop: SolveService::submit -> future.get().
double untraced_loop(SolveService& svc, const ServiceWorkload& w,
                     const Args& args, double seconds, std::size_t first,
                     const std::string& spill_dir, LoopState& st) {
  RequestOptions ro;
  ro.t_max = w.t_max;
  ro.tol = w.tol;
  ro.timeout_seconds = kRequestTimeoutS;
  return closed_loop(w.clients, seconds, first, [&](std::size_t i) {
    CsrMatrix owned;
    const CsrMatrix& a = request_matrix(w, args.seed, i, owned);
    Vector b = seeded_rhs(static_cast<std::size_t>(a.rows()), args.seed, i);
    const bool keep = keep_sample(i);
    Vector b_kept = keep ? b : Vector();

    const auto t0 = Clock::now();
    std::future<SolveResponse> fut;
    try {
      fut = svc.submit(a, std::move(b), ro);
    } catch (const ServiceOverloaded&) {
      const std::lock_guard<std::mutex> g(st.mu);
      ++st.attempted;
      ++st.failures.rejected;
      return;
    }
    const auto t1 = Clock::now();
    SolveResponse resp;
    bool threw = false;
    try {
      resp = fut.get();
    } catch (const std::exception& e) {
      std::cerr << "request " << i << " failed: " << e.what() << "\n";
      threw = true;
    }
    const auto t2 = Clock::now();
    if (!spill_dir.empty()) clear_dir(spill_dir);  // never read back

    const std::lock_guard<std::mutex> g(st.mu);
    ++st.attempted;
    if (threw) {
      ++st.failures.exceptions;
      return;
    }
    if (resp.timed_out) {
      ++st.failures.timed_out;
      return;
    }
    if (!resp.stats.converged || !(resp.stats.final_rel_res() < w.tol)) {
      ++st.failures.missed_target;
      return;
    }
    st.obs.push_back({seconds_between(t0, t2), seconds_between(t0, t1),
                      resp.queue_seconds, resp.stats.seconds,
                      resp.stats.cycles});
    if (keep) {
      st.samples.push_back({rotation_index(i), std::move(owned),
                            std::move(b_kept), std::move(resp.x),
                            resp.stats.cycles});
    }
  });
}

// --- traced replay ----------------------------------------------------------

struct ReplayResponse {
  Vector x;
  int cycles = 0;
  bool converged = false;
  double rel_res = 1.0;
};

/// Level-0 cycle timing on a pool lane (every 4th traced request).
struct Level0Acc {
  std::mutex mu;
  double seconds = 0.0;
  double bytes = 0.0;
  std::uint64_t cycles = 0;
};

TelemetrySink& lane_sink() {
  thread_local std::unique_ptr<TelemetrySink> sink;
  if (!sink) {
    TelemetryOptions o;
    o.max_threads = 1;
    o.ring_capacity = 1u << 16;
    sink = std::make_unique<TelemetrySink>(o);
  }
  return *sink;
}

/// HierarchyCache::get_or_build through its public pieces: fingerprint,
/// lookup, and on a miss the mirrored build, MgSetup and insert (which
/// evicts, spilling through save_hierarchy_string, when over budget).
std::shared_ptr<const MgSetup> traced_get_or_build(HierarchyCache& cache,
                                                   const CsrMatrix& a,
                                                   const MgOptions& mo,
                                                   SpanLog* log,
                                                   std::uint64_t parent,
                                                   std::uint64_t req) {
  MatrixFingerprint key;
  {
    Span sp(log, "service.fingerprint", parent, req);
    key = matrix_fingerprint(a);
  }
  std::shared_ptr<const MgSetup> setup;
  {
    Span sp(log, "cache.lookup", parent, req);
    setup = cache.lookup(key);
  }
  if (setup) return setup;
  setup = traced_mgsetup(a, mo, log, parent, req);
  Span sp(log, "cache.insert", parent, req);
  cache.insert(key, setup);
  return setup;
}

/// One traced request: the client side (copy + post), the lane side
/// (SolveService::execute's steps), and the client's wait.
ReplayResponse traced_request(SolveService& svc, const ServiceWorkload& w,
                              const CsrMatrix& a, Vector b, SpanLog& log,
                              std::uint64_t req, Level0Acc* l0) {
  Span root(&log, "request", 0, req);
  const std::uint64_t root_id = root.id();
  auto promise = std::make_shared<std::promise<ReplayResponse>>();
  std::future<ReplayResponse> fut = promise->get_future();
  {
    Span sp(&log, "service.submit", root_id, req);
    CsrMatrix copy = a;
    const std::int64_t posted = log.now_ns();
    svc.pool().post([&svc, &w, &log, copy = std::move(copy), b = std::move(b),
                     posted, root_id, req, l0, promise]() mutable {
      SpanRec q;
      q.id = log.next_id();
      q.parent = root_id;
      q.req = req;
      q.name = "service.queue_wait";
      q.start = posted;
      q.end = log.now_ns();
      log.add(q);
      try {
        std::shared_ptr<const MgSetup> setup = traced_get_or_build(
            svc.cache(), copy, w.mo, &log, root_id, req);
        copy = CsrMatrix();
        std::unique_ptr<MultiplicativeMg> mg;
        {
          Span sp2(&log, "multigrid.solver_build", root_id, req);
          mg = std::make_unique<MultiplicativeMg>(*setup);
        }
        TelemetrySink* sink = l0 != nullptr ? &lane_sink() : nullptr;
        if (sink != nullptr) mg->set_telemetry(sink, 0);
        ReplayResponse resp;
        resp.x.assign(b.size(), 0.0);
        const double bnorm = norm2(b);
        const double scale = bnorm > 0.0 ? 1.0 / bnorm : 1.0;
        Vector r;
        const auto residual_check = [&] {
          Span sp3(&log, "multigrid.residual_check", root_id, req);
          setup->a(0).residual(b, resp.x, r);
          return norm2(r) * scale;
        };
        resp.rel_res = residual_check();
        for (int t = 0; t < w.t_max; ++t) {
          {
            Span sp3(&log, "multigrid.cycle", root_id, req);
            mg->cycle(b, resp.x);
          }
          ++resp.cycles;
          resp.rel_res = residual_check();
          if (resp.rel_res < w.tol) {
            resp.converged = true;
            break;
          }
        }
        if (sink != nullptr) {
          mg->set_telemetry(nullptr);
          const double secs = drain_level0_seconds(*sink);
          const std::lock_guard<std::mutex> g(l0->mu);
          l0->seconds += secs;
          l0->bytes += level0_bytes_per_cycle(*setup) * resp.cycles;
          l0->cycles += static_cast<std::uint64_t>(resp.cycles);
        }
        promise->set_value(std::move(resp));
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    });
  }
  ReplayResponse resp = fut.get();
  root.end();
  return resp;
}

double traced_loop(SolveService& svc, const ServiceWorkload& w,
                   const Args& args, double seconds, std::size_t first,
                   const std::string& spill_dir, SpanLog& log, Result& r,
                   Level0Acc& l0) {
  std::mutex mu;
  return closed_loop(w.clients, seconds, first, [&](std::size_t i) {
    CsrMatrix owned;
    const CsrMatrix& a = request_matrix(w, args.seed, i, owned);
    Vector b = seeded_rhs(static_cast<std::size_t>(a.rows()), args.seed, i);
    const auto t0 = Clock::now();
    ReplayResponse resp;
    bool threw = false;
    try {
      resp = traced_request(svc, w, a, std::move(b), log, i + 1,
                            i % 4 == 0 ? &l0 : nullptr);
    } catch (const std::exception& e) {
      std::cerr << "traced request " << i << " failed: " << e.what() << "\n";
      threw = true;
    }
    const double lat = seconds_between(t0, Clock::now());
    if (!spill_dir.empty()) clear_dir(spill_dir);
    const std::lock_guard<std::mutex> g(mu);
    if (!threw && resp.converged) {
      r.traced_latencies.push_back(lat);
    } else {
      r.layer["trace.failed_solves"] += 1;
    }
  });
}

// --- the two workloads ------------------------------------------------------

void run_service(const Args& args, ServiceWorkload& w, Result& r,
                 std::size_t cache_bytes, const std::string& spill_dir) {
  ServiceOptions so;
  so.num_threads = w.lanes;
  so.max_queue = 64;
  so.cache.mg = w.mo;
  so.cache.max_bytes = cache_bytes;
  so.cache.spill_dir = spill_dir;
  so.default_t_max = w.t_max;
  so.default_tol = w.tol;
  SolveService svc(so);
  r.config["pool_lanes"] = std::to_string(w.lanes);
  r.config["clients"] = std::to_string(w.clients);
  r.config["t_max"] = std::to_string(w.t_max);
  r.config["tol"] = format_number(w.tol);
  r.config["setup_threads"] = std::to_string(w.mo.amg.setup_threads);
  r.config["cache_max_bytes"] = std::to_string(cache_bytes);
  r.config["spill"] = spill_dir.empty() ? "off" : "on";

  SpanLog log;
  SpanLog* tlog = args.trace ? &log : nullptr;

  // setup_s: kSetups never-seen variants of the primary matrix through the
  // service's own cache (get_or_build; traced: its mirrored replay). One
  // family keeps the median a sample of one distribution. Cold first fills
  // the cache untimed, so every sample's insert evicts and spills as a cold
  // request's does; warm builds its resident matrices last (the final
  // sample is the primary one), after dropping the variants.
  const auto build = [&](const CsrMatrix& a) {
    const std::shared_ptr<const MgSetup> s =
        args.trace ? traced_get_or_build(svc.cache(), a, w.mo, tlog, 0, 0)
                   : svc.cache().get_or_build(a);
    clear_dir(spill_dir);
    return s;
  };
  const auto record_bytes = [&](std::size_t m, const MgSetup& s) {
    r.host_numbers["hierarchy_bytes." + w.mat_names[m]] =
        static_cast<double>(estimate_setup_bytes(s));
  };
  const std::size_t kSetups = 7;
  const bool warm = !w.fresh_matrix_per_request;
  if (args.trace) r.checks.push_back(mirror_matches_build(w.mats[0], w.mo.amg));
  if (!warm) record_bytes(1, *build(perturbed(w.mats[1], args.seed, 899)));
  for (std::size_t k = 0; k < kSetups; ++k) {
    const bool resident = warm && k + 1 == kSetups;
    if (resident) svc.cache().clear();
    const CsrMatrix a =
        resident ? w.mats[0] : perturbed(w.mats[0], args.seed, 900 + k);
    const auto t0 = Clock::now();
    const std::shared_ptr<const MgSetup> s = build(a);
    r.setups.push_back(seconds_between(t0, Clock::now()));
    if (k == 0) {
      r.host["backend"] = backend_kind_name(s->backend_kind());
      record_shape(r, *s);
      record_bytes(0, *s);
    }
  }
  if (warm) record_bytes(1, *build(w.mats[1]));

  LoopState st;
  const double loop_seconds = args.trace ? 0.5 * args.seconds : args.seconds;
  r.wall = untraced_loop(svc, w, args, loop_seconds, 0, spill_dir, st);
  r.attempted = st.attempted;
  r.failures = st.failures;
  for (const Observation& o : st.obs) r.latencies.push_back(o.latency);

  if (args.trace) {
    // SolveResponse-derived layers of the untraced path.
    double submit = 0, queue = 0, other = 0, loop = 0, cycles = 0;
    for (const Observation& o : st.obs) {
      submit += o.submit;
      queue += o.queue;
      other += o.latency - o.queue - o.loop;
      loop += o.loop;
      cycles += o.cycles;
    }
    const double n = std::max<double>(1.0, static_cast<double>(st.obs.size()));
    r.layer["service.submit_s"] = submit / n;
    r.layer["service.queue_wait_s"] = queue / n;
    r.layer["service.other_s"] = other / n;
    r.layer["pool.busy_frac"] = loop / (static_cast<double>(w.lanes) * r.wall);
    r.layer["multigrid.cycles_per_solve"] = cycles / n;

    const HierarchyCacheStats c1 = svc.cache().stats();
    // Same request stream as the untraced loop; cold requests must stay
    // never-seen, so they continue the stream instead of repeating it.
    Level0Acc l0;
    traced_loop(svc, w, args, 0.5 * args.seconds,
                w.fresh_matrix_per_request ? st.attempted + w.clients : 0,
                spill_dir, log, r, l0);
    const HierarchyCacheStats c2 = svc.cache().stats();
    const double solves = std::max<double>(1.0, r.traced_latencies.size());
    const double lookups =
        static_cast<double>((c2.hits - c1.hits) + (c2.misses - c1.misses));
    r.layer["cache.hit_ratio"] =
        lookups > 0 ? static_cast<double>(c2.hits - c1.hits) / lookups : 0.0;
    r.layer["cache.evictions"] =
        static_cast<double>(c2.evictions - c1.evictions) / solves;
    r.layer["cache.spill_writes"] =
        static_cast<double>(c2.spill_writes - c1.spill_writes) / solves;
    r.layer["cache.resident_mb"] =
        static_cast<double>(c2.resident_bytes) / (1024.0 * 1024.0);
    r.layer["backend.level0_bytes_per_cycle"] =
        l0.cycles > 0 ? l0.bytes / static_cast<double>(l0.cycles) : 0.0;
    r.layer["backend.level0_gbps"] =
        l0.seconds > 0 ? l0.bytes / l0.seconds / 1e9 : 0.0;
  }

  // Output checks on the kept samples: the reference CSR residual, and (for
  // resident matrices) bitwise equality with a standalone MultiplicativeMg
  // running the same number of cycles on the same cached setup.
  Check res{"reference_residual_below_tol", true, ""};
  Check bit{"bitwise_equal_standalone_mult", true, ""};
  for (const Sample& s : st.samples) {
    const CsrMatrix& a = w.fresh_matrix_per_request ? s.a : w.mats[s.mat];
    const double rr = reference_rel_res(a, s.b, s.x);
    if (!(rr <= w.tol)) {
      res.ok = false;
      res.detail = "rel res " + format_number(rr) + " > tol";
    }
    if (!w.fresh_matrix_per_request) {
      std::shared_ptr<const MgSetup> setup = svc.cache().get_or_build(a);
      MultiplicativeMg mg(*setup);
      Vector x(s.b.size(), 0.0);
      for (int c = 0; c < s.cycles; ++c) mg.cycle(s.b, x);
      if (!bitwise_equal(x, s.x)) {
        bit.ok = false;
        bit.detail = "iterate differs from standalone solve";
      }
    }
  }
  res.detail += " (" + std::to_string(st.samples.size()) + " samples)";
  if (st.samples.empty()) res.ok = false;
  r.checks.push_back(res);
  if (!w.fresh_matrix_per_request) {
    bit.detail += " (" + std::to_string(st.samples.size()) + " samples)";
    if (st.samples.empty()) bit.ok = false;
    r.checks.push_back(bit);
  }
  if (args.trace) r.spans = log.snapshot();
}

}  // namespace

void run_warm_service(const Args& args, Result& r) {
  ServiceWorkload w{{}, {}, false, 4, 4, 100, 1e-8,
                    paper_options(0.9, kSetupThreads)};
  w.mats.push_back(make_laplace_27pt(32).a);
  w.mat_names.push_back("27pt_n32");
  w.mats.push_back(make_fem_laplace_sphere(40).a);
  w.mat_names.push_back("fem_sphere_n40");
  for (std::size_t m = 0; m < w.mats.size(); ++m) {
    r.config["matrix." + w.mat_names[m]] =
        std::to_string(w.mats[m].rows()) + " rows, " +
        std::to_string(w.mats[m].nnz()) + " nnz";
  }
  run_service(args, w, r, 1ull << 30, "");
}

void run_cold_service(const Args& args, Result& r) {
  // 12 cycles: the 7pt family contracts by ~0.5 per cycle with these
  // options and needs 9-10 to reach 1e-3; 27pt needs 3.
  // One lane: with one request outstanding, more lanes would only idle.
  ServiceWorkload w{{}, {}, true, 1, 1, 12, 1e-3,
                    paper_options(0.9, kSetupThreads)};
  w.mats.push_back(make_laplace_27pt(16).a);
  w.mat_names.push_back("27pt_n16");
  w.mats.push_back(make_laplace_7pt(16).a);
  w.mat_names.push_back("7pt_n16");
  std::size_t smallest = 0;
  for (std::size_t m = 0; m < w.mats.size(); ++m) {
    r.config["matrix." + w.mat_names[m]] =
        std::to_string(w.mats[m].rows()) + " rows, " +
        std::to_string(w.mats[m].nnz()) + " nnz";
    // Size the budget from an untimed build of each family: 1.5x the
    // smaller setup holds fewer than two setups of any kind, so every
    // insert evicts (and spills) the previous entry.
    const MgSetup probe(w.mats[m], w.mo);
    const std::size_t bytes = estimate_setup_bytes(probe);
    smallest = m == 0 ? bytes : std::min(smallest, bytes);
  }
  const std::string spill = args.tmp_dir + "/spill";
  std::filesystem::create_directories(spill);
  run_service(args, w, r, smallest + smallest / 2, spill);
  std::error_code ec;
  std::filesystem::remove_all(spill, ec);
}

}  // namespace reqbench
