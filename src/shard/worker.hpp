#pragma once
// The per-shard execution loop of the sharded asynchronous solver, factored
// out of ShardedSolver so the SAME loop body runs in-process (one thread per
// shard over the lock-free ChannelTransport) and out-of-process (one worker
// process per shard over the TCP SocketTransport, src/net). Everything the
// loop touches is behind two seams:
//
//   Transport  (shard/transport.hpp)  halo/residual packet exchange
//   PeerBoard  (below)                peer progress + liveness
//
// Every correction is one round of six steps; the two disciplines differ
// only in how step 2 reads peers and in the damping theta of step 5:
//
//   1. fault hooks (kill, stall, drop-read);
//   2. read peers --
//        bulk-synchronous (bsp = true): FIFO-await every live peer's
//          boundary frame of this round (ghosts now hold x after round
//          c-1);
//        free-running (bsp = false): bounded-skew gate against the slowest
//          LIVE peer, then a newest-wins drain (stale views on drops);
//   3. compute own residual rows, publish the residual block (seq c);
//   4. BSP only: await every live peer's residual block of THIS round (the
//      residual view is globally fresh at round c);
//   5. correct -- free-running corrections are damped for the staleness
//      the gate admits (ShardWorkerOptions::lambda_max); undamped, stale
//      residual views make the iteration diverge whenever the shards run in
//      lockstep. BSP commits are undamped;
//   6. commit owned rows, publish boundaries (seq c+1; skipped after the
//      last BSP round, which no round reads), publish commits, telemetry.
//
// In BSP every read is uniquely determined by the round structure, never by
// message timing, so the iterates are bitwise identical on ANY transport --
// and identical to ShardedSolver's kSynchronous scripted oracle (the
// full-schedule semantics replayed over messages). Frames are consumed in
// FIFO order (Transport::recv_next) one per round, so a fast peer can run at
// most one round ahead and a default-capacity ring never drops a BSP frame.
// A dead peer is exempted from both waits after one final drain (its
// published frames happen-before its death), so a killed worker degrades
// the view instead of deadlocking the round -- Criterion-2 across
// processes. Free-running shards recover the same way: the gate exempts
// dead peers.

#include <atomic>
#include <cstdint>
#include <vector>

#include "async/schedule.hpp"
#include "multigrid/additive.hpp"
#include "shard/partition.hpp"
#include "shard/transport.hpp"

namespace asyncmg {

class TelemetrySink;

/// Peer progress and liveness, the control-plane seam of the shard loop.
/// commits(p) is peer p's committed correction count (the bounded-skew
/// gate's input); dead(p) means p will never commit again -- killed,
/// finished, or its process lost -- so gates and BSP waits must exempt it.
class PeerBoard {
 public:
  virtual ~PeerBoard() = default;

  /// Publishes this shard's committed correction count.
  virtual void publish_commits(std::size_t self, int commits) = 0;
  /// Marks this shard permanently done (finished or killed).
  virtual void publish_dead(std::size_t self) = 0;

  virtual int commits(std::size_t peer) const = 0;
  virtual bool dead(std::size_t peer) const = 0;
};

/// Shared-atomics board for in-process shards (one thread per shard). The
/// release/acquire pairs are the same ones ShardedSolver used inline; a
/// publish is one store, a read one load.
class LocalPeerBoard final : public PeerBoard {
 public:
  explicit LocalPeerBoard(std::size_t num_shards)
      : commits_(num_shards), dead_(num_shards) {}

  void publish_commits(std::size_t self, int commits) override {
    commits_[self].store(commits, std::memory_order_release);
  }
  void publish_dead(std::size_t self) override {
    dead_[self].store(true, std::memory_order_release);
  }
  int commits(std::size_t peer) const override {
    return commits_[peer].load(std::memory_order_acquire);
  }
  bool dead(std::size_t peer) const override {
    return dead_[peer].load(std::memory_order_acquire);
  }

 private:
  std::vector<std::atomic<int>> commits_;
  std::vector<std::atomic<bool>> dead_;
};

struct ShardWorkerOptions {
  std::size_t shard = 0;
  int t_max = 20;
  /// Free-running mode: run at most max_lag corrections ahead of the
  /// slowest live peer (ignored when bsp).
  int max_lag = 3;
  /// Free-running mode: lambda_max(C A) of the corrector
  /// (additive_lambda_max), which sets the damping theta of every
  /// correction together with max_lag. A shard at correction c may read a
  /// peer's residual block from before that peer's correction
  /// c - max_lag - 1, so the stalest residual is d = max_lag + 1
  /// corrections old. The delayed Richardson recurrence
  /// e_{c+1} = e_c - theta*lambda*e_{c-d} is stable iff
  /// 0 < theta*lambda < 2 cos(d pi / (2d + 1)) (Levin & May, 1976), so
  /// theta puts theta*lambda_max on that bound, never above 1. A single
  /// shard reads only its own, always fresh, rows and is not damped;
  /// neither are BSP rounds. 0 = undamped.
  double lambda_max = 0.0;
  /// Bulk-synchronous rounds (see header comment); deterministic on any
  /// transport.
  bool bsp = false;
  /// Fault injection; grid ids are shard ids. Not owned; may be null.
  const FaultPlan* faults = nullptr;
  /// Per-shard wall-time events on tid = shard. Not owned; may be null.
  TelemetrySink* telemetry = nullptr;
};

struct ShardWorkerResult {
  int corrections = 0;
  int reads_dropped = 0;
  bool killed = false;
};

/// Runs one shard's correction loop to completion. `x_local` is the shard's
/// [owned; ghosts] block prefilled from the initial iterate; `r_view` the
/// full-length initial residual (identical in every participant: both are
/// deterministic functions of the problem, so processes agree without any
/// startup exchange). On return x_local holds the shard's final owned block
/// (+ last ghost view).
ShardWorkerResult run_shard_worker(const ShardPlan& plan,
                                   const AdditiveCorrector& corrector,
                                   const Vector& b, Vector& x_local,
                                   Vector& r_view, Transport& transport,
                                   PeerBoard& board,
                                   const ShardWorkerOptions& opts);

/// Fills shard s's [owned; ghosts] block from the full-length iterate `x`
/// (resizing x_local to plan.local_size(s)).
void shard_local_view(const ShardPlan& plan, std::size_t s, const Vector& x,
                      Vector& x_local);

/// Full-length residual b - A x assembled shard by shard from the local
/// stencils -- bitwise equal in every process that holds the same plan, b,
/// and x, which is why a multi-process solve needs no startup residual
/// exchange.
void shard_initial_residual(const ShardPlan& plan, const Vector& b,
                            const Vector& x, Vector& r);

}  // namespace asyncmg
