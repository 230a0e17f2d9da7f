#include "service/solve_service.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "service/background_setup.hpp"
#include "sparse/vec.hpp"
#include "telemetry/sink.hpp"
#include "util/stats.hpp"

namespace asyncmg {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Cold-path loop against a BackgroundSetup: each iteration tries one
/// cooperative builder step (try-lock; returns instantly while the lane is
/// mid-step), re-snapshots when new levels landed, and cycles on the
/// deepest ready prefix. Converges on whatever depth is available; once the
/// build completes the loop runs the full cycle, LU coarse solve included.
/// Runs MultiplicativeMg::solve's residual/correct pair and stop rule: the
/// convergence check is the next cycle's residual, recomputed only when a
/// deeper snapshot replaces the solver (and its workspace).
SolveStats solve_with_background(BackgroundSetup& bg, const Vector& b,
                                 Vector& x, int t_max, double tol,
                                 Clock::time_point deadline,
                                 std::size_t& partial_cycles) {
  SolveStats stats;
  const double bnorm = norm2(b);
  const double scale = bnorm > 0.0 ? 1.0 / bnorm : 1.0;
  const auto t0 = Clock::now();

  std::shared_ptr<const MgSetup> setup = bg.snapshot();
  auto mg = std::make_unique<MultiplicativeMg>(*setup);
  while (!MultiplicativeMg::stop_after_check(
      stats, std::sqrt(mg->residual_norm_sq(b, x)) * scale, t_max, tol,
      deadline)) {
    bg.advance();
    if (bg.ready_levels() > setup->num_levels()) {
      std::shared_ptr<const MgSetup> deeper = bg.snapshot();
      if (deeper != setup) {
        setup = std::move(deeper);
        mg = std::make_unique<MultiplicativeMg>(*setup);
        mg->residual_norm_sq(b, x);
      }
    }
    if (setup != bg.full()) ++partial_cycles;  // this cycle's hierarchy
    mg->correct(x);
    ++stats.cycles;
  }
  stats.seconds = seconds_since(t0);
  return stats;
}

}  // namespace

std::string ServiceStats::to_json() const {
  std::ostringstream o;
  o.precision(9);
  o << "{"
    << "\"submitted\":" << submitted << ","
    << "\"completed\":" << completed << ","
    << "\"rejected\":" << rejected << ","
    << "\"timed_out\":" << timed_out << ","
    << "\"queue_depth\":" << queue_depth << ","
    << "\"background\":{"
    << "\"partial_solves\":" << partial_solves << ","
    << "\"partial_cycles\":" << partial_cycles << ","
    << "\"setup_fallbacks\":" << setup_fallbacks << "},"
    << "\"cache\":{"
    << "\"hits\":" << cache.hits << ","
    << "\"misses\":" << cache.misses << ","
    << "\"setups_built\":" << cache.setups_built << ","
    << "\"evictions\":" << cache.evictions << ","
    << "\"spill_writes\":" << cache.spill_writes << ","
    << "\"spill_loads\":" << cache.spill_loads << ","
    << "\"spill_failures\":" << cache.spill_failures << ","
    << "\"resident_bytes\":" << cache.resident_bytes << ","
    << "\"resident_entries\":" << cache.resident_entries << "},"
    << "\"latency_p50\":" << latency_p50 << ","
    << "\"latency_p95\":" << latency_p95 << ","
    << "\"latency_mean\":" << latency_mean << ","
    << "\"latency_samples\":" << latency_samples << "}";
  return o.str();
}

SolveService::SolveService(ServiceOptions opts) : opts_(std::move(opts)) {
  // Cache-miss setups run under the cache mutex (one at a time), so they may
  // use the pool's whole thread budget without oversubscribing the machine.
  if (opts_.cache.mg.amg.setup_threads == 0) {
    opts_.cache.mg.amg.setup_threads = static_cast<int>(opts_.num_threads);
  }
  if (opts_.cache.telemetry == nullptr) {
    opts_.cache.telemetry = opts_.telemetry;
  }
  cache_ = std::make_unique<HierarchyCache>(opts_.cache);
  pool_ = std::make_unique<SolverPool>(opts_.num_threads);
  pool_->set_telemetry(opts_.telemetry);
}

SolveService::~SolveService() {
  pool_->wait_idle();
  // pool_ is the first member destroyed; its destructor joins the workers.
}

std::future<SolveResponse> SolveService::submit(CsrMatrix a, Vector b,
                                                RequestOptions ropts) {
  TelemetrySink* const tel =
      (opts_.telemetry != nullptr && opts_.telemetry->enabled())
          ? opts_.telemetry
          : nullptr;
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> g(stats_mu_);
    if (in_flight_ >= opts_.max_queue) {
      ++rejected_;
      if (tel != nullptr) {
        tel->metrics().counter("service.rejected").add(1);
      }
      throw ServiceOverloaded();
    }
    ++in_flight_;
    ++submitted_;
    depth = in_flight_;
  }
  if (tel != nullptr) {
    tel->record_control(EventKind::kQueueDepth,
                        static_cast<std::int64_t>(depth));
    tel->metrics().gauge("service.queue_depth").set(
        static_cast<double>(depth));
    tel->metrics().counter("service.submitted").add(1);
  }
  auto promise = std::make_shared<std::promise<SolveResponse>>();
  std::future<SolveResponse> fut = promise->get_future();
  const auto submitted_at = Clock::now();
  pool_->post([this, a = std::move(a), b = std::move(b), ropts, submitted_at,
               promise]() mutable {
    execute(std::move(a), std::move(b), ropts, submitted_at,
            std::move(promise));
  });
  return fut;
}

void SolveService::execute(
    CsrMatrix a, Vector b, RequestOptions ropts,
    std::chrono::steady_clock::time_point submitted,
    std::shared_ptr<std::promise<SolveResponse>> promise) {
  SolveResponse resp;
  std::exception_ptr error;
  try {
    resp.queue_seconds = seconds_since(submitted);

    const auto deadline =
        ropts.timeout_seconds > 0.0
            ? submitted + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  ropts.timeout_seconds))
            : Clock::time_point::max();

    if (Clock::now() >= deadline) {
      // Expired while queued: the zero initial guess is the best-so-far
      // iterate, with exact relative residual 1. Skips the setup entirely.
      resp.x.assign(b.size(), 0.0);
      resp.stats.rel_res_history.push_back(1.0);
      resp.timed_out = true;
    } else {
      const int t_max = ropts.t_max > 0 ? ropts.t_max : opts_.default_t_max;
      const double tol = ropts.tol > 0.0 ? ropts.tol : opts_.default_tol;
      resp.x.assign(b.size(), 0.0);

      std::shared_ptr<BackgroundSetup> bg;
      std::shared_ptr<const MgSetup> setup;
      MatrixFingerprint key{};
      if (opts_.background_setup) {
        key = matrix_fingerprint(a);
        setup = cache_->lookup(key, &resp.cache_hit);
        if (!setup) {
          BackgroundSetupOptions bo;
          bo.mg = opts_.cache.mg;
          bo.pool = pool_.get();
          bo.telemetry = opts_.telemetry;
          bo.fail_after_levels = opts_.background_fail_after_levels;
          bg = std::make_shared<BackgroundSetup>(std::move(a), bo);
          bg->start();
        }
      } else {
        setup = cache_->get_or_build(a, &resp.cache_hit);
      }
      a = CsrMatrix();  // the setup/builder owns its own copy

      if (bg) {
        resp.stats = solve_with_background(*bg, b, resp.x, t_max, tol,
                                           deadline, resp.partial_cycles);
        resp.partial_setup = resp.partial_cycles > 0;
        // Register the finished setup so later requests are warm. If the
        // solve converged before the build did, a detached pool task
        // finishes it -- pool tasks may block on the step lock (that holder
        // is making progress), just never on the pool itself.
        if (std::shared_ptr<const MgSetup> built = bg->full()) {
          cache_->insert(key, std::move(built));
        } else {
          pool_->post([bg, key, cache = cache_.get()]() {
            cache->insert(key, bg->wait_full());
          });
        }
        const bool fell_back = bg->fell_back();
        const std::lock_guard<std::mutex> g(stats_mu_);
        if (resp.partial_setup) ++partial_solves_;
        partial_cycles_ += resp.partial_cycles;
        if (fell_back) ++setup_fallbacks_;
      } else {
        MultiplicativeMg mg(*setup);
        resp.stats = mg.solve(b, resp.x, t_max, tol, deadline);
      }
      resp.timed_out = resp.stats.timed_out;
    }
  } catch (...) {
    error = std::current_exception();
  }
  // Bookkeeping strictly before the promise resolves: a client that calls
  // stats() right after future.get() must see this request as completed.
  const double latency = seconds_since(submitted);
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> g(stats_mu_);
    --in_flight_;
    ++completed_;
    if (!error && resp.timed_out) ++timed_out_;
    latencies_.add(latency);
    depth = in_flight_;
  }
  if (TelemetrySink* const tel = opts_.telemetry;
      tel != nullptr && tel->enabled()) {
    tel->record_control(EventKind::kQueueDepth,
                        static_cast<std::int64_t>(depth));
    tel->metrics().gauge("service.queue_depth").set(
        static_cast<double>(depth));
    tel->metrics().counter("service.completed").add(1);
    tel->metrics().histogram("service.latency_seconds").observe(latency);
  }
  if (error) {
    promise->set_exception(error);
  } else {
    promise->set_value(std::move(resp));
  }
}

std::vector<BatchResult> SolveService::solve_batch(
    const CsrMatrix& a, const std::vector<Vector>& rhs, BatchOptions opts) {
  if (opts.t_max <= 0) opts.t_max = opts_.default_t_max;
  if (opts.tol <= 0.0) opts.tol = opts_.default_tol;
  BatchSolver batch(cache_->get_or_build(a), pool_.get(), opts);
  return batch.solve_all(rhs);
}

ServiceStats SolveService::stats() const {
  ServiceStats s;
  std::vector<double> lat;
  {
    const std::lock_guard<std::mutex> g(stats_mu_);
    s.submitted = submitted_;
    s.completed = completed_;
    s.rejected = rejected_;
    s.timed_out = timed_out_;
    s.queue_depth = in_flight_;
    s.partial_solves = partial_solves_;
    s.partial_cycles = partial_cycles_;
    s.setup_fallbacks = setup_fallbacks_;
    lat = latencies_.samples();
  }
  s.cache = cache_->stats();
  if (!lat.empty()) {
    s.latency_mean = mean(lat);
    s.latency_p50 = percentile(lat, 50.0);
    s.latency_p95 = percentile(lat, 95.0);
    s.latency_samples = lat.size();
  }
  return s;
}

std::string SolveService::stats_json() const {
  std::string json = stats().to_json();
  if (opts_.telemetry == nullptr) return json;
  // Splice the metrics dump into the closing brace of the stats object.
  json.pop_back();
  json += ",\"telemetry\":" + opts_.telemetry->metrics().to_json() + "}";
  return json;
}

}  // namespace asyncmg
