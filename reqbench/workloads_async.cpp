// async_teams: the paper's Section IV solver. Asynchronous Multadd with
// lock-write, local-res and Criterion 2, run by run_shared_memory as a
// 3-thread gang on a persistent SolverPool, against one MgSetup and
// AdditiveCorrector built before the timed loop. One solve at a time, each
// with a fresh seeded right-hand side.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "async/runtime.hpp"
#include "mesh/problems.hpp"
#include "multigrid/additive.hpp"
#include "reqbench.hpp"
#include "service/hierarchy_cache.hpp"
#include "service/solver_pool.hpp"

namespace reqbench {

using namespace asyncmg;

namespace {

// Three threads, one core left free: with a 4-thread gang on the 4-core
// host, latency_p90_s spread 0.35 (IQR/median over 10 seeds) in two of
// four sets; interleaved 3-thread runs kept p90 within +-3%.
constexpr std::size_t kThreads = 3;
constexpr int kTMax = 25;
// Relative residual every solve must reach. With kTMax corrections per grid
// the runs land two or more orders of magnitude below it.
constexpr double kTarget = 1e-6;

}  // namespace

void run_async_teams(const Args& args, Result& r) {
  const CsrMatrix a = make_laplace_27pt(24).a;
  const MgOptions mo = paper_options(0.9, static_cast<int>(kThreads));
  AdditiveOptions ao;
  ao.kind = AdditiveKind::kMultadd;
  r.config["matrix.27pt_n24"] = std::to_string(a.rows()) + " rows, " +
                                std::to_string(a.nnz()) + " nnz";
  r.config["method"] = "async Multadd, lock-write, local-res, Criterion 2";
  r.config["threads"] = std::to_string(kThreads);
  r.config["t_max"] = std::to_string(kTMax);
  r.config["target_rel_res"] = format_number(kTarget);

  SpanLog log;
  SpanLog* tlog = args.trace ? &log : nullptr;
  if (args.trace) r.checks.push_back(mirror_matches_build(a, mo.amg));

  // setup_s: MgSetup constructor + AdditiveCorrector on never-seen variants,
  // then on the solved matrix itself (kept).
  std::shared_ptr<const MgSetup> setup;
  std::unique_ptr<AdditiveCorrector> corr;
  std::vector<double> corrector_build;
  const std::size_t kSetups = 7;
  for (std::size_t k = 0; k < kSetups; ++k) {
    const bool last = k + 1 == kSetups;
    const CsrMatrix m = last ? a : perturbed(a, args.seed, 900 + k);
    const auto t0 = Clock::now();
    std::shared_ptr<const MgSetup> s =
        args.trace ? traced_mgsetup(m, mo, tlog, 0, 0)
                   : std::make_shared<const MgSetup>(m, mo);
    const auto t1 = Clock::now();
    auto c = std::make_unique<AdditiveCorrector>(*s, ao);
    const auto t2 = Clock::now();
    r.setups.push_back(seconds_between(t0, t2));
    corrector_build.push_back(seconds_between(t1, t2));
    if (k == 0) {
      r.host["backend"] = backend_kind_name(s->backend_kind());
      record_shape(r, *s);
    }
    if (last) {
      setup = std::move(s);
      corr = std::move(c);
    }
  }
  r.host_numbers["hierarchy_bytes.27pt_n24"] =
      static_cast<double>(estimate_setup_bytes(*setup));

  SolverPool pool(kThreads);
  RuntimeOptions ro;
  ro.mode = ExecMode::kAsynchronous;
  ro.rescomp = ResComp::kLocal;
  ro.write = WritePolicy::kLockWrite;
  ro.criterion = StopCriterion::kMaster;
  ro.t_max = kTMax;
  ro.num_threads = kThreads;
  ro.pool = &pool;
  const std::size_t n = static_cast<std::size_t>(a.rows());

  struct Kept {
    Vector b, x;
    double reported = 0.0;
  };
  std::vector<Kept> kept;

  const auto loop = [&](double seconds, SpanLog* lg,
                        std::vector<double>& lats,
                        std::vector<RuntimeResult>* results) {
    const auto t0 = Clock::now();
    const auto stop = t0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
    for (std::size_t i = 0; Clock::now() < stop; ++i) {
      const Vector b = seeded_rhs(n, args.seed, i);
      Vector x(n, 0.0);
      const auto s0 = Clock::now();
      RuntimeResult rr;
      bool threw = false;
      {
        Span root(lg, "request", 0, i + 1);
        Span run(lg, "async.run", root.id(), i + 1);
        try {
          rr = run_shared_memory(*corr, b, x, ro);
        } catch (const std::exception& e) {
          std::cerr << "solve " << i << " failed: " << e.what() << "\n";
          threw = true;
        }
      }
      const double lat = seconds_between(s0, Clock::now());
      if (lg == nullptr) ++r.attempted;
      if (threw || !(rr.final_rel_res <= kTarget)) {
        if (lg != nullptr) {
          r.layer["trace.failed_solves"] += 1;
        } else if (threw) {
          ++r.failures.exceptions;
        } else {
          ++r.failures.missed_target;
        }
        continue;
      }
      lats.push_back(lat);
      if (results != nullptr) results->push_back(rr);
      if (lg == nullptr && (i < 2 || i % 32 == 0)) {
        kept.push_back({b, x, rr.final_rel_res});
      }
    }
    return seconds_between(t0, Clock::now());
  };

  const double loop_seconds = args.trace ? 0.5 * args.seconds : args.seconds;
  r.wall = loop(loop_seconds, nullptr, r.latencies, nullptr);

  if (args.trace) {
    std::vector<RuntimeResult> results;
    loop(0.5 * args.seconds, &log, r.traced_latencies, &results);
    double run_s = 0, mean_corr = 0, spread = 0, corrections = 0;
    std::vector<double> final_res;
    for (const RuntimeResult& rr : results) {
      run_s += rr.seconds;
      mean_corr += rr.mean_corrections();
      const auto [lo, hi] =
          std::minmax_element(rr.corrections.begin(), rr.corrections.end());
      spread += *lo > 0 ? static_cast<double>(*hi) / *lo : 0.0;
      for (int c : rr.corrections) corrections += c;
      final_res.push_back(rr.final_rel_res);
    }
    const double k = std::max<double>(1.0, static_cast<double>(results.size()));
    r.layer["async.run_s"] = run_s / k;
    r.layer["async.mean_corrections"] = mean_corr / k;
    r.layer["async.correction_spread"] = spread / k;
    r.layer["async.corrections_per_s"] = run_s > 0 ? corrections / run_s : 0.0;
    r.layer["async.final_rel_res"] = median_of(final_res);
    r.layer["async.corrector_build_s"] = median_of(corrector_build);
    r.spans = log.snapshot();
  }

  // Output check: the reported residual is the true one (reference CSR
  // residual recomputed here) and meets the target.
  Check c{"reference_residual_meets_target", !kept.empty(), ""};
  for (const Kept& kp : kept) {
    const double rr = reference_rel_res(a, kp.b, kp.x);
    const bool finite = std::all_of(kp.x.begin(), kp.x.end(),
                                    [](double v) { return std::isfinite(v); });
    if (!finite || !(rr <= kTarget) ||
        std::abs(rr - kp.reported) > 1e-6 * std::max(rr, 1e-300) + 1e-15) {
      c.ok = false;
      c.detail = "reference rel res " + format_number(rr) + " vs reported " +
                 format_number(kp.reported);
    }
  }
  c.detail += " (" + std::to_string(kept.size()) + " samples)";
  r.checks.push_back(c);
}

}  // namespace reqbench
