// fleet_bsp: three asyncmg_workerd processes on loopback, fork/exec'd by
// this process. A ClusterRouter places each solve on two of them
// (shards_per_solve = 2, consistent-hash ring keyed by the matrix
// fingerprint) in deterministic BSP mode; the rotation runs over two
// matrices, each landing on its warm ring-home workers. One solve at a time.
//
// The traced run cannot see inside ClusterRouter::solve, so after each
// traced solve it replays the wire layers on the same inputs through the
// public calls: routing (endpoints_for), the request encode the coordinator
// performs (save_hierarchy_string + encode_solve_request per shard), the
// warm worker's request decode, halo frame encode/decode for the solve's
// relayed frame count, and the coordinator's final residual.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <stdexcept>

#include "amg/serialize.hpp"
#include "mesh/problems.hpp"
#include "net/cluster.hpp"
#include "net/wire.hpp"
#include "reqbench.hpp"
#include "service/hierarchy_cache.hpp"
#include "shard/partition.hpp"
#include "shard/solver.hpp"
#include "sparse/vec.hpp"

namespace reqbench {

using namespace asyncmg;

namespace {

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kShardsPerSolve = 2;
// Few BSP rounds keep the solve dominated by shipping the request rather
// than by per-round process wakeups, whose cost swings with the host's
// scheduling. Both matrices are 27pt, which converges fast enough for that:
// after 8 rounds the worst of 20 right-hand sides sits near 1.2e-4, so the
// target holds with margin (BSP runs are deterministic per right-hand side).
constexpr int kTMax = 8;
constexpr double kTarget = 1e-3;

/// The worker processes; the destructor shuts them down and reaps them on
/// every exit path.
class Fleet {
 public:
  Fleet(const std::string& bin, const std::string& log_dir) {
    try {
      for (std::size_t i = 0; i < kWorkers; ++i) spawn(bin, log_dir, i);
    } catch (...) {
      stop();  // the destructor does not run for a half-built fleet
      throw;
    }
  }
  ~Fleet() { stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::vector<Endpoint> endpoints() const {
    std::vector<Endpoint> e;
    for (const auto& [pid, port] : procs_) e.push_back({"127.0.0.1", port});
    return e;
  }

  /// kShutdown to every worker, then reap; stragglers are SIGKILLed.
  void stop() {
    if (procs_.empty()) return;
    try {
      ClusterOptions co;
      co.endpoints = endpoints();
      co.connect_attempts = 2;
      ClusterCoordinator(co).shutdown_workers();
    } catch (const std::exception&) {
    }
    for (const auto& [pid, port] : procs_) {
      int status = 0;
      for (int t = 0; t < 200; ++t) {  // up to 2 s for an orderly exit
        if (waitpid(pid, &status, WNOHANG) == pid) break;
        if (t == 199) {
          kill(pid, SIGKILL);
          waitpid(pid, &status, 0);
        }
        usleep(10000);
      }
    }
    procs_.clear();
  }

 private:
  void spawn(const std::string& bin, const std::string& log_dir,
             std::size_t i) {
    // Appended, not "w" + to_string(i): GCC 12 raises a false -Wrestrict
    // on operator+ with a literal left operand.
    std::string name = "w";
    name += std::to_string(i);
    const std::string log = log_dir + "/" + name + ".log";
    // Everything the child needs is built before fork(): between fork and
    // exec it only calls async-signal-safe functions.
    std::vector<std::string> args = {bin, "--port", "0", "--name", name};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    int out[2];
    if (pipe(out) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = fork();
    if (pid < 0) {
      close(out[0]);
      close(out[1]);
      throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
      dup2(out[1], STDOUT_FILENO);
      close(out[0]);
      close(out[1]);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(out[1]);
    std::string line;
    char c = 0;
    while (true) {
      pollfd pfd{out[0], POLLIN, 0};
      if (poll(&pfd, 1, 10000) <= 0) break;
      if (read(out[0], &c, 1) <= 0 || c == '\n') break;
      line.push_back(c);
    }
    close(out[0]);
    std::uint16_t port = 0;
    if (line.rfind("LISTENING ", 0) == 0) {
      port = static_cast<std::uint16_t>(std::stoi(line.substr(10)));
    }
    procs_.emplace_back(pid, port);
    if (port == 0) {
      throw std::runtime_error("workerd " + name + " did not announce a port (" +
                               bin + ")");
    }
  }

  std::vector<std::pair<pid_t, std::uint16_t>> procs_;
};

/// The per-shard request ClusterCoordinator::solve sends.
SolveRequestMsg make_request(const MgSetup& s, const std::string& hierarchy,
                             const Vector& b, const ClusterSolveOptions& so,
                             std::size_t shard) {
  SolveRequestMsg req;
  req.shard = static_cast<std::uint32_t>(shard);
  req.num_shards = static_cast<std::uint32_t>(kShardsPerSolve);
  req.bsp = so.bsp ? 1 : 0;
  req.t_max = so.t_max;
  req.max_lag = so.max_lag;
  req.seed = so.seed;
  req.additive_kind = static_cast<std::uint8_t>(so.additive.kind);
  req.symmetrized_lambda = so.additive.symmetrized_lambda ? 1 : 0;
  req.afacx_s1 = so.additive.afacx_s1;
  req.afacx_s2 = so.additive.afacx_s2;
  req.smoother_type = static_cast<std::uint8_t>(s.options().smoother.type);
  req.smoother_omega = s.options().smoother.omega;
  req.smoother_blocks =
      static_cast<std::uint32_t>(s.options().smoother.num_blocks);
  req.max_dense_coarse = static_cast<std::int64_t>(s.options().max_dense_coarse);
  req.hierarchy = hierarchy;
  req.b = b;
  req.x0.assign(b.size(), 0.0);
  return req;
}

/// The worker's cold-cache rebuild on the request bytes (WorkerDaemon's
/// setup path): decode + load_hierarchy_string + MgSetup.
double worker_rebuild_seconds(const std::vector<std::uint8_t>& payload) {
  const auto t0 = Clock::now();
  const SolveRequestMsg req = decode_solve_request(payload);
  MgOptions mo;
  mo.smoother.type = static_cast<SmootherType>(req.smoother_type);
  mo.smoother.omega = req.smoother_omega;
  mo.smoother.num_blocks = req.smoother_blocks;
  mo.max_dense_coarse = static_cast<Index>(req.max_dense_coarse);
  const MgSetup s(load_hierarchy_string(req.hierarchy), mo);
  (void)s;
  return seconds_between(t0, Clock::now());
}

struct WireReplay {
  double request_bytes = 0.0;
};

/// Replays the wire layers of one solve (see the file comment) as spans
/// under `root`.
WireReplay replay_wire(const ClusterRouter& router, const MgSetup& s,
                       const ShardPlan& plan, const Vector& b,
                       const Vector& x, const ClusterSolveOptions& so,
                       const ClusterResult& res, SpanLog& log,
                       std::uint64_t root, std::uint64_t req) {
  WireReplay w;
  {
    Span sp(&log, "net.route", root, req);
    (void)router.endpoints_for(s.a(0));
  }
  std::vector<std::uint8_t> first_payload;
  {
    Span sp(&log, "net.request_encode", root, req);
    const std::string h = save_hierarchy_string(s.hierarchy());
    for (std::size_t shard = 0; shard < kShardsPerSolve; ++shard) {
      std::vector<std::uint8_t> p =
          encode_solve_request(make_request(s, h, b, so, shard));
      w.request_bytes += static_cast<double>(p.size() + kFrameHeaderBytes);
      if (shard == 0) first_payload = std::move(p);
    }
  }
  {
    Span sp(&log, "net.request_decode", root, req);
    (void)decode_solve_request(first_payload);
  }
  // Relayed frames alternate residual blocks (owned rows) and boundary
  // blocks (send list) per shard pair and round.
  const std::size_t frames = static_cast<std::size_t>(res.frames_relayed);
  HaloPacket resid;
  resid.data.assign(static_cast<std::size_t>(plan.owned[0].size()), 0.5);
  HaloPacket bound;
  bound.data.assign(plan.send[0][1].size(), 0.25);
  std::vector<std::vector<std::uint8_t>> encoded;
  {
    Span sp(&log, "net.halo_encode", root, req);
    for (std::size_t f = 0; f < frames; ++f) {
      const bool is_resid = f % 2 == 0;
      const HaloFrameMsg m =
          halo_to_wire(0, 1, is_resid ? HaloTag::kResidualBlock : HaloTag::kBoundaryX,
                       is_resid ? resid : bound, WireWidth::kF64);
      std::vector<std::uint8_t> frame =
          encode_frame(MsgType::kHaloFrame, encode_halo_frame(m));
      if (f < 2) encoded.push_back(std::move(frame));
    }
  }
  {
    Span sp(&log, "net.halo_decode", root, req);
    for (std::size_t f = 0; f < frames && !encoded.empty(); ++f) {
      const std::vector<std::uint8_t>& frame = encoded[f % encoded.size()];
      const FrameHeader h = decode_frame_header(frame.data(), frame.size());
      verify_frame_payload(h, frame.data() + kFrameHeaderBytes);
      const std::vector<std::uint8_t> payload(
          frame.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes),
          frame.end());
      (void)wire_to_halo(decode_halo_frame(payload));
    }
  }
  {
    Span sp(&log, "multigrid.residual_check", root, req);
    Vector r;
    s.a(0).residual(b, x, r);
    (void)norm2(r);
  }
  return w;
}

}  // namespace

void run_fleet_bsp(const Args& args, Result& r) {
  Fleet fleet(args.workerd, args.tmp_dir);

  const MgOptions mo = paper_options(0.9, 4);
  std::vector<CsrMatrix> mats{make_laplace_27pt(16).a, make_laplace_27pt(12).a};
  const std::vector<std::string> names{"27pt_n16", "27pt_n12"};
  for (std::size_t m = 0; m < mats.size(); ++m) {
    r.config["matrix." + names[m]] = std::to_string(mats[m].rows()) +
                                     " rows, " + std::to_string(mats[m].nnz()) +
                                     " nnz";
  }
  r.config["workers"] = std::to_string(kWorkers);
  r.config["shards_per_solve"] = std::to_string(kShardsPerSolve);
  r.config["mode"] = "bsp";
  r.config["t_max"] = std::to_string(kTMax);
  r.config["target_rel_res"] = format_number(kTarget);

  SpanLog log;
  SpanLog* tlog = args.trace ? &log : nullptr;
  if (args.trace) r.checks.push_back(mirror_matches_build(mats[0], mo.amg));

  // setup_s: the coordinator's MgSetup constructor on never-seen variants
  // of the primary matrix, then on the primary matrix itself; the second
  // served matrix is built after, untimed.
  const auto build = [&](const CsrMatrix& a) {
    return args.trace ? traced_mgsetup(a, mo, tlog, 0, 0)
                      : std::make_shared<const MgSetup>(a, mo);
  };
  std::vector<std::shared_ptr<const MgSetup>> setups(mats.size());
  const std::size_t kSetups = 7;
  for (std::size_t k = 0; k < kSetups; ++k) {
    const bool served = k + 1 == kSetups;
    const CsrMatrix a =
        served ? mats[0] : perturbed(mats[0], args.seed, 900 + k);
    const auto t0 = Clock::now();
    std::shared_ptr<const MgSetup> s = build(a);
    r.setups.push_back(seconds_between(t0, Clock::now()));
    if (k == 0) {
      r.host["backend"] = backend_kind_name(s->backend_kind());
      record_shape(r, *s);
    }
    if (served) setups[0] = std::move(s);
  }
  setups[1] = build(mats[1]);
  for (std::size_t m = 0; m < mats.size(); ++m) {
    r.host_numbers["hierarchy_bytes." + names[m]] =
        static_cast<double>(estimate_setup_bytes(*setups[m]));
  }

  ClusterRouterOptions cro;
  cro.endpoints = fleet.endpoints();
  cro.shards_per_solve = kShardsPerSolve;
  ClusterRouter router(cro);
  ClusterSolveOptions cso;
  cso.bsp = true;
  cso.t_max = kTMax;
  cso.additive.kind = AdditiveKind::kMultadd;

  const auto oracle = [&](std::size_t m, const Vector& b) {
    ShardOptions so;
    so.num_shards = 1;
    so.mode = ShardMode::kSynchronous;
    so.t_max = kTMax;
    ShardedSolver solver(*setups[m], cso.additive, so);
    Vector x(b.size(), 0.0);
    solver.solve(b, x);
    return x;
  };

  // First solve per matrix (cold ring-home workers) against the
  // in-process BSP oracle; it also warms the workers' setup caches.
  Check first{"first_solve_bitwise_equal_bsp_oracle", true, ""};
  for (std::size_t m = 0; m < mats.size(); ++m) {
    const Vector b = seeded_rhs(static_cast<std::size_t>(mats[m].rows()),
                                args.seed, 1000000 + m);
    Vector x(b.size(), 0.0);
    const ClusterResult res = router.solve(*setups[m], b, x, cso);
    if (!res.dead_workers.empty() || !bitwise_equal(x, oracle(m, b))) {
      first.ok = false;
      first.detail = "matrix " + names[m] + " differs from the oracle";
    }
  }
  r.checks.push_back(first);

  struct Kept {
    std::size_t m;
    Vector b, x;
  };
  std::vector<Kept> kept;
  double frames_dropped = 0, connect_retries = 0, dead_workers = 0;
  double bytes = 0, frames = 0, request_bytes = 0;
  std::size_t traced_solves = 0;

  const auto loop = [&](double seconds, SpanLog* lg,
                        std::vector<double>& lats) {
    const auto t0 = Clock::now();
    const auto stop = t0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
    std::vector<ShardPlan> plans;
    if (lg != nullptr) {
      for (const auto& s : setups) {
        plans.push_back(make_shard_plan(s->a(0), kShardsPerSolve));
      }
    }
    for (std::size_t i = 0; Clock::now() < stop; ++i) {
      const std::size_t m = rotation_index(i);
      const Vector b =
          seeded_rhs(static_cast<std::size_t>(mats[m].rows()), args.seed, i);
      Vector x(b.size(), 0.0);
      ClusterResult res;
      bool threw = false;
      Span root(lg, "request", 0, i + 1);
      const auto s0 = Clock::now();
      try {
        res = router.solve(*setups[m], b, x, cso);
      } catch (const std::exception& e) {
        std::cerr << "solve " << i << " failed: " << e.what() << "\n";
        threw = true;
      }
      const double lat = seconds_between(s0, Clock::now());
      root.end();
      frames_dropped += static_cast<double>(res.frames_dropped);
      connect_retries += static_cast<double>(res.connect_retries);
      dead_workers += static_cast<double>(res.dead_workers.size());
      if (lg == nullptr) ++r.attempted;
      const bool dead = !threw && !res.dead_workers.empty();
      if (threw || dead || !(res.final_rel_res <= kTarget)) {
        if (lg != nullptr) {
          r.layer["trace.failed_solves"] += 1;
        } else if (threw) {
          ++r.failures.exceptions;
        } else if (dead) {
          ++r.failures.dead_workers;
        } else {
          ++r.failures.missed_target;
        }
        continue;
      }
      lats.push_back(lat);
      if (lg == nullptr) {
        if (i < 2 || i % 16 == 0) kept.push_back({m, b, x});
        continue;
      }
      const WireReplay w = replay_wire(router, *setups[m], plans[m], b, x, cso,
                                       res, *lg, root.id(), i + 1);
      ++traced_solves;
      bytes += static_cast<double>(res.bytes_sent + res.bytes_received);
      frames += static_cast<double>(res.frames_relayed);
      request_bytes += w.request_bytes;
    }
    return seconds_between(t0, Clock::now());
  };

  const double loop_seconds = args.trace ? 0.5 * args.seconds : args.seconds;
  r.wall = loop(loop_seconds, nullptr, r.latencies);

  if (args.trace) {
    loop(0.5 * args.seconds, &log, r.traced_latencies);
    const double k = std::max<double>(1.0, static_cast<double>(traced_solves));
    r.layer["net.request_bytes"] = request_bytes / k;
    r.layer["net.bytes_per_solve"] = bytes / k;
    r.layer["net.frames_relayed_per_solve"] = frames / k;
    r.layer["net.frames_dropped"] = frames_dropped;
    r.layer["net.connect_retries"] = connect_retries;
    r.layer["net.dead_workers"] = dead_workers;
    std::vector<double> rebuild;
    for (std::size_t m = 0; m < mats.size(); ++m) {
      const std::string h = save_hierarchy_string(setups[m]->hierarchy());
      const Vector b(static_cast<std::size_t>(mats[m].rows()), 1.0);
      const std::vector<std::uint8_t> p =
          encode_solve_request(make_request(*setups[m], h, b, cso, 0));
      for (int rep = 0; rep < 3; ++rep) rebuild.push_back(worker_rebuild_seconds(p));
    }
    r.layer["net.worker_rebuild_s"] = median_of(rebuild);
    r.spans = log.snapshot();
  }

  // Output checks: sampled solves bitwise against the in-process oracle.
  Check later{"sampled_solves_bitwise_equal_bsp_oracle", !kept.empty(), ""};
  for (const Kept& kp : kept) {
    if (!bitwise_equal(kp.x, oracle(kp.m, kp.b))) {
      later.ok = false;
      later.detail = "a sampled solve differs from the oracle";
    }
  }
  later.detail += " (" + std::to_string(kept.size()) + " samples)";
  r.checks.push_back(later);

  fleet.stop();
  r.peak_rss_mb = std::max(peak_rss_self_mb(), peak_rss_children_mb());
}

}  // namespace reqbench
