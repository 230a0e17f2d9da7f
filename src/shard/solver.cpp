#include "shard/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include <sstream>

#include "async/model.hpp"
#include "shard/worker.hpp"
#include "sparse/vec.hpp"
#include "telemetry/sink.hpp"
#include "util/timer.hpp"

namespace asyncmg {

std::string shard_mode_name(ShardMode m) {
  switch (m) {
    case ShardMode::kSynchronous:
      return "sync";
    case ShardMode::kAsynchronous:
      return "async";
    case ShardMode::kScripted:
      return "scripted";
    case ShardMode::kSyncTransport:
      return "sync-transport";
  }
  return "unknown";
}

void ShardOptions::validate() const {
  if (num_shards < 1) {
    throw std::invalid_argument("ShardOptions: num_shards must be >= 1");
  }
  if (t_max < 1) {
    throw std::invalid_argument("ShardOptions: t_max must be >= 1");
  }
  if (channel_capacity < 1) {
    throw std::invalid_argument(
        "ShardOptions: channel_capacity must be >= 1");
  }
  if (!(latency_us >= 0.0) || !std::isfinite(latency_us)) {
    throw std::invalid_argument(
        "ShardOptions: latency_us must be finite and >= 0");
  }
  if (max_lag < 0) {
    throw std::invalid_argument("ShardOptions: max_lag must be >= 0");
  }
  if (!(script_alpha > 0.0) || script_alpha > 1.0) {
    throw std::invalid_argument(
        "ShardOptions: script_alpha must be in (0, 1]");
  }
  if (script_max_delay < 0) {
    throw std::invalid_argument(
        "ShardOptions: script_max_delay must be >= 0");
  }
}

double ShardResult::mean_corrections() const {
  if (corrections.empty()) return 0.0;
  double s = 0.0;
  for (int c : corrections) s += c;
  return s / static_cast<double>(corrections.size());
}

std::string ShardResult::to_json() const {
  std::ostringstream o;
  o << "{\"final_rel_res\":" << final_rel_res << ",\"seconds\":" << seconds
    << ",\"instants\":" << instants
    << ",\"mean_corrections\":" << mean_corrections()
    << ",\"packets_sent\":" << packets_sent
    << ",\"packets_dropped\":" << packets_dropped
    << ",\"reads_dropped\":" << reads_dropped << ",\"killed_shards\":[";
  for (std::size_t i = 0; i < killed_shards.size(); ++i) {
    if (i != 0) o << ",";
    o << killed_shards[i];
  }
  o << "]}";
  return o.str();
}

namespace {

/// Ring buffer of the last `depth` snapshots, indexed by absolute instant
/// (same shape as the model simulator's history window).
class History {
 public:
  History(int depth, const Vector& initial)
      : depth_(depth),
        snapshots_(static_cast<std::size_t>(depth), initial) {}

  const Vector& at(int t) const {
    return snapshots_[static_cast<std::size_t>(t % depth_)];
  }
  void push(int t, const Vector& state) {
    snapshots_[static_cast<std::size_t>(t % depth_)] = state;
  }

 private:
  int depth_;
  std::vector<Vector> snapshots_;
};

/// Per-shard working set (scripted: reused across the shard's events;
/// async: owned by the shard's thread, never shared).
struct ShardState {
  Vector x_local;   // [owned rows; ghosts]
  Vector r_view;    // full-length residual view (async)
  Vector r_read;    // assembled per-event residual view (scripted)
  Vector staging;   // full length; only the owned range is written
  Vector ctmp;
  CorrectionScratch ws;
  int corrections = 0;
  int reads_dropped = 0;
  bool killed = false;
};

void fill_ghosts(const ShardPlan& plan, std::size_t s, const Vector& from,
                 Vector& x_local) {
  const std::size_t owned_size = plan.owned[s].size();
  const auto& h = plan.halo[s];
  for (std::size_t pos = 0; pos < h.size(); ++pos) {
    x_local[owned_size + pos] = from[static_cast<std::size_t>(h[pos])];
  }
}

}  // namespace

ShardedSolver::ShardedSolver(const MgSetup& setup, AdditiveOptions ao,
                             ShardOptions so)
    : setup_(&setup), corrector_(setup, ao), opts_(so) {
  opts_.validate();
  plan_ = make_shard_plan(setup.a(0), opts_.num_shards);
  // One shard reads only its own, always fresh, rows: nothing to damp.
  if (opts_.mode == ShardMode::kAsynchronous && opts_.num_shards > 1) {
    lambda_max_ = additive_lambda_max(corrector_);
  }
}

void ShardedSolver::initial_residual(const Vector& b, const Vector& x,
                                     Vector& r) const {
  shard_initial_residual(plan_, b, x, r);
}

double ShardedSolver::rel_res(const Vector& b, const Vector& x) const {
  Vector r;
  setup_->a(0).residual(b, x, r);
  const double bnorm = norm2(b);
  return norm2(r) * (bnorm > 0.0 ? 1.0 / bnorm : 1.0);
}

ShardResult ShardedSolver::solve(const Vector& b, Vector& x) {
  if (b.size() != static_cast<std::size_t>(plan_.n) || x.size() != b.size()) {
    throw std::invalid_argument("ShardedSolver: b/x size mismatch");
  }
  switch (opts_.mode) {
    case ShardMode::kSynchronous:
      return run_scripted(full_schedule(plan_.num_shards, opts_.t_max), b, x);
    case ShardMode::kScripted: {
      if (opts_.schedule != nullptr) {
        return run_scripted(*opts_.schedule, b, x);
      }
      AsyncModelOptions mo;
      mo.alpha = opts_.script_alpha;
      mo.max_delay = opts_.script_max_delay;
      mo.updates_per_grid = opts_.t_max;
      mo.seed = opts_.seed;
      return run_scripted(sample_schedule(plan_.num_shards, mo), b, x);
    }
    case ShardMode::kAsynchronous:
      return run_async(b, x, /*bsp=*/false);
    case ShardMode::kSyncTransport:
      return run_async(b, x, /*bsp=*/true);
  }
  throw std::logic_error("ShardedSolver: unknown mode");
}

ShardResult ShardedSolver::run_scripted(const Schedule& sched, const Vector& b,
                                        Vector& x) {
  const ScheduleCheck check = validate_schedule(sched, plan_.num_shards);
  if (!check.ok) {
    throw std::invalid_argument("ShardedSolver: schedule invalid: " +
                                check.error);
  }
  const std::size_t n = b.size();
  Timer timer;

  ShardResult result;
  result.corrections.assign(plan_.num_shards, 0);

  Vector published_r;
  initial_residual(b, x, published_r);
  const int depth = check.max_staleness + 1;
  History hx(depth, x);
  History hr(depth, published_r);

  std::vector<ShardState> st(plan_.num_shards);
  for (std::size_t s = 0; s < plan_.num_shards; ++s) {
    st[s].x_local.resize(plan_.local_size(s));
    st[s].staging.assign(n, 0.0);
  }

  TelemetrySink* const tel =
      (opts_.telemetry != nullptr && opts_.telemetry->enabled())
          ? opts_.telemetry
          : nullptr;
  std::vector<bool> killed(plan_.num_shards, false);

  int t = 0;
  for (const std::vector<ScheduleEvent>& inst : sched.instants) {
    if (tel != nullptr) tel->record_at(0, t, EventKind::kInstant, t, 1);
    // Phase 1 -- residual publish: every scheduled shard computes its own
    // residual rows from its current owned block and the ghost snapshot of
    // its read instant, and publishes them. hr snapshot t is the published
    // state *after* this phase, so a fresh read (z = t) sees every row of
    // this instant's exchange -- the BSP semantics that make the S-shard
    // synchronous run bitwise-equal to the single-shard oracle.
    for (const ScheduleEvent& ev : inst) {
      const std::size_t s = ev.grid;
      if (killed[s] || (opts_.faults != nullptr &&
                        opts_.faults->kills_grid(s, result.corrections[s]))) {
        if (!killed[s]) {
          killed[s] = true;
          result.killed_shards.push_back(s);
        }
        continue;
      }
      const Range rg = plan_.owned[s];
      ShardState& sh = st[s];
      std::copy(x.begin() + static_cast<std::ptrdiff_t>(rg.begin),
                x.begin() + static_cast<std::ptrdiff_t>(rg.end),
                sh.x_local.begin());
      fill_ghosts(plan_, s, hx.at(ev.read_instant), sh.x_local);
      plan_.local_a[s].residual_into(b, sh.x_local, published_r);
    }
    hr.push(t, published_r);
    // Phase 2 -- correct and commit: each shard assembles its residual view
    // (foreign rows from its read-instant snapshot, own rows always the
    // fresh ones it just published), forms the full additive correction,
    // and commits its owned rows. Ownership is disjoint and reads come from
    // snapshots, so committing in event order is the joint per-instant
    // apply of the semi-async model.
    for (const ScheduleEvent& ev : inst) {
      const std::size_t s = ev.grid;
      if (killed[s]) continue;
      const Range rg = plan_.owned[s];
      ShardState& sh = st[s];
      sh.r_read = hr.at(ev.read_instant);
      std::copy(published_r.begin() + static_cast<std::ptrdiff_t>(rg.begin),
                published_r.begin() + static_cast<std::ptrdiff_t>(rg.end),
                sh.r_read.begin() + static_cast<std::ptrdiff_t>(rg.begin));
      std::fill(sh.staging.begin() + static_cast<std::ptrdiff_t>(rg.begin),
                sh.staging.begin() + static_cast<std::ptrdiff_t>(rg.end),
                0.0);
      corrector_.accumulate_cycle(sh.r_read, sh.staging, rg.begin, rg.end,
                                  sh.ws, sh.ctmp);
      for (std::size_t i = rg.begin; i < rg.end; ++i) x[i] += sh.staging[i];
      ++result.corrections[s];
      if (tel != nullptr) {
        tel->record_at(0, t, EventKind::kShardStep,
                       static_cast<std::int64_t>(s), 1);
        tel->record_at(0, t, EventKind::kShardExchange,
                       static_cast<std::int64_t>(s), ev.read_instant);
      }
    }
    ++t;
    hx.push(t, x);
    if (opts_.record_history) {
      result.rel_res_history.push_back(rel_res(b, x));
    }
  }

  result.instants = t;
  result.seconds = timer.seconds();
  result.final_rel_res = rel_res(b, x);
  return result;
}

ShardResult ShardedSolver::run_async(const Vector& b, Vector& x, bool bsp) {
  const std::size_t S = plan_.num_shards;
  Timer timer;

  ChannelTransportOptions to;
  to.num_shards = S;
  to.capacity = opts_.channel_capacity;
  to.latency_us = bsp ? 0.0 : opts_.latency_us;
  to.seed = opts_.seed;
  if (opts_.telemetry != nullptr) {
    to.metrics = &opts_.telemetry->metrics();
  }
  ChannelTransport transport(to);

  Vector r0;
  initial_residual(b, x, r0);

  std::vector<ShardState> st(S);
  for (std::size_t s = 0; s < S; ++s) {
    const Range rg = plan_.owned[s];
    st[s].x_local.resize(plan_.local_size(s));
    std::copy(x.begin() + static_cast<std::ptrdiff_t>(rg.begin),
              x.begin() + static_cast<std::ptrdiff_t>(rg.end),
              st[s].x_local.begin());
    fill_ghosts(plan_, s, x, st[s].x_local);
    st[s].r_view = r0;
  }

  // Shared progress board: commits feed the staleness gate, dead marks a
  // shard that will never commit again (killed or finished) so peers must
  // not wait for it (Criterion-2 recovery). The slowest live shard never
  // waits, so neither the gate nor the BSP round waits can form a cycle.
  LocalPeerBoard board(S);
  std::vector<ShardWorkerResult> wr(S);

  auto shard_main = [&](std::size_t s) {
    ShardWorkerOptions wo;
    wo.shard = s;
    wo.t_max = opts_.t_max;
    wo.max_lag = opts_.max_lag;
    wo.lambda_max = lambda_max_;
    wo.bsp = bsp;
    wo.faults = opts_.faults;
    wo.telemetry = opts_.telemetry;
    wr[s] = run_shard_worker(plan_, corrector_, b, st[s].x_local,
                             st[s].r_view, transport, board, wo);
  };

  std::vector<std::thread> threads;
  threads.reserve(S);
  for (std::size_t s = 0; s < S; ++s) threads.emplace_back(shard_main, s);
  for (std::thread& th : threads) th.join();

  ShardResult result;
  result.corrections.resize(S);
  for (std::size_t s = 0; s < S; ++s) {
    const Range rg = plan_.owned[s];
    std::copy(st[s].x_local.begin(),
              st[s].x_local.begin() + static_cast<std::ptrdiff_t>(rg.size()),
              x.begin() + static_cast<std::ptrdiff_t>(rg.begin));
    result.corrections[s] = wr[s].corrections;
    result.reads_dropped += wr[s].reads_dropped;
    if (wr[s].killed) result.killed_shards.push_back(s);
  }
  result.packets_sent = transport.packets_sent();
  result.packets_dropped = transport.packets_dropped();
  result.seconds = timer.seconds();
  result.final_rel_res = rel_res(b, x);
  return result;
}

}  // namespace asyncmg
