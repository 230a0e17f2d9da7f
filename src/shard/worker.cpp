#include "shard/worker.hpp"

#include <chrono>
#include <cmath>
#include <numbers>
#include <thread>

#include "telemetry/sink.hpp"

namespace asyncmg {

namespace {

/// BSP wait: FIFO-pops the next frame from `p`, yielding until one arrives
/// or `p` is dead. Publishes happen-before a peer's death (its frames were
/// queued before the dead flag was raised and transports deliver per-edge
/// in order), so one final recv after observing death is enough to consume
/// anything it managed to publish; after that the caller keeps its stale
/// view -- lost-message semantics, never a deadlock.
bool await_frame(Transport& transport, const PeerBoard& board, std::size_t s,
                 std::size_t p, HaloTag tag, HaloPacket& pkt) {
  int spins = 0;
  for (;;) {
    if (transport.recv_next(s, p, tag, pkt)) return true;
    if (board.dead(p)) return transport.recv_next(s, p, tag, pkt);
    if (++spins < 256) {
      std::this_thread::yield();
    } else {
      // Socket transports fill mailboxes from a reader thread; back off a
      // little so the wait does not starve it on oversubscribed hosts.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

/// Free-running damping theta (ShardWorkerOptions::lambda_max): the
/// Levin-May bound 2 cos(d pi / (2d + 1)) for the stalest residual age
/// d = max_lag + 1, divided by lambda_max, capped at 1.
double free_running_damping(std::size_t num_shards, double lambda_max,
                            int max_lag) {
  if (num_shards < 2) return 1.0;
  const double d = static_cast<double>(max_lag) + 1.0;
  const double bound = 2.0 * std::cos(d * std::numbers::pi / (2.0 * d + 1.0));
  return lambda_max > bound ? bound / lambda_max : 1.0;
}

}  // namespace

ShardWorkerResult run_shard_worker(const ShardPlan& plan,
                                   const AdditiveCorrector& corrector,
                                   const Vector& b, Vector& x_local,
                                   Vector& r_view, Transport& transport,
                                   PeerBoard& board,
                                   const ShardWorkerOptions& opts) {
  const std::size_t s = opts.shard;
  const std::size_t S = plan.num_shards;
  const Range rg = plan.owned[s];
  // BSP rounds commit the undamped correction: 1.0 * v == v exactly, so
  // theta = 1 keeps them bitwise equal to the scripted oracle.
  const double theta =
      opts.bsp ? 1.0
               : free_running_damping(S, opts.lambda_max, opts.max_lag);
  const FaultPlan* const faults = opts.faults;
  TelemetrySink* const tel =
      (opts.telemetry != nullptr && opts.telemetry->enabled())
          ? opts.telemetry
          : nullptr;

  ShardWorkerResult result;
  Vector staging(b.size(), 0.0);
  Vector ctmp;
  CorrectionScratch ws;
  HaloPacket pkt;

  // Apply the packet in `pkt` from peer p to the ghosts / the residual
  // view; each returns the number of packets applied. A packet whose length
  // disagrees with the plan is discarded -- lost-message semantics, so no
  // Transport implementation can make the loop read or write outside the
  // plan's ranges (socket transports additionally validate at delivery).
  auto apply_boundary = [&](std::size_t p) {
    const auto& slots = plan.ghost_slots[s][p];
    if (pkt.data.size() != slots.size()) return 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      x_local[slots[i]] = pkt.data[i];
    }
    return 1;
  };
  auto apply_residual = [&](std::size_t p) {
    const Range prg = plan.owned[p];
    if (pkt.data.size() != prg.size()) return 0;
    std::copy(pkt.data.begin(), pkt.data.end(),
              r_view.begin() + static_cast<std::ptrdiff_t>(prg.begin));
    return 1;
  };
  // Free-running read: newest-wins refresh of ghosts and foreign residual
  // rows (also the gate's drain while waiting).
  auto drain = [&]() {
    int got = 0;
    for (std::size_t p = 0; p < S; ++p) {
      if (p == s) continue;
      if (transport.recv_latest(s, p, HaloTag::kBoundaryX, pkt)) {
        got += apply_boundary(p);
      }
      if (transport.recv_latest(s, p, HaloTag::kResidualBlock, pkt)) {
        got += apply_residual(p);
      }
    }
    return got;
  };
  // BSP read: FIFO-awaits this round's `tag` frame from every peer that
  // sends one (dead peers are exempt after a final drain, await_frame).
  auto await_round = [&](HaloTag tag) {
    const bool boundary = tag == HaloTag::kBoundaryX;
    int got = 0;
    for (std::size_t p = 0; p < S; ++p) {
      if (p == s || (boundary && plan.send[p][s].empty())) continue;
      if (await_frame(transport, board, s, p, tag, pkt)) {
        got += boundary ? apply_boundary(p) : apply_residual(p);
      }
    }
    return got;
  };
  auto within_lag = [&](int c) {
    for (std::size_t p = 0; p < S; ++p) {
      if (p == s || board.dead(p)) continue;
      if (board.commits(p) < c - opts.max_lag) return false;
    }
    return true;
  };
  // A failed send (full ring, lost connection) or a dropped read (peer -1).
  auto record_drop = [&](std::int64_t peer) {
    if (tel != nullptr) {
      tel->record(s, EventKind::kShardDrop, static_cast<std::int64_t>(s),
                  peer);
    }
  };
  auto publish_residual = [&](int c) {
    for (std::size_t p = 0; p < S; ++p) {
      if (p == s) continue;
      HaloPacket out;
      out.seq = static_cast<std::uint64_t>(c);
      out.data.assign(
          r_view.begin() + static_cast<std::ptrdiff_t>(rg.begin),
          r_view.begin() + static_cast<std::ptrdiff_t>(rg.end));
      if (!transport.send(s, p, HaloTag::kResidualBlock, std::move(out))) {
        record_drop(static_cast<std::int64_t>(p));
      }
    }
  };
  auto publish_boundary = [&](int c) {
    for (std::size_t p = 0; p < S; ++p) {
      if (p == s || plan.send[s][p].empty()) continue;
      HaloPacket out;
      out.seq = static_cast<std::uint64_t>(c + 1);
      out.data.resize(plan.send[s][p].size());
      for (std::size_t i = 0; i < out.data.size(); ++i) {
        out.data[i] =
            x_local[static_cast<std::size_t>(plan.send[s][p][i]) - rg.begin];
      }
      if (!transport.send(s, p, HaloTag::kBoundaryX, std::move(out))) {
        record_drop(static_cast<std::int64_t>(p));
      }
    }
  };

  for (int c = 0; c < opts.t_max; ++c) {
    // 1. Fault hooks.
    if (faults != nullptr && faults->kills_grid(s, c)) {
      result.killed = true;
      break;
    }
    if (faults != nullptr) {
      const double ms = faults->stall_ms(s, c);
      if (ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
      }
    }
    const bool drop_read = faults != nullptr && faults->drops_read(s, c);
    if (drop_read) {
      ++result.reads_dropped;
      record_drop(-1);
    }

    // 2. Read peers; a dropped read keeps the stale view (lost message).
    // BSP: this round's boundary frames (ghosts = x after round c - 1;
    // round 0 starts from the shared initial iterate). Free-running: the
    // staleness gate -- run at most max_lag corrections ahead of the
    // slowest live peer, draining while waiting, the executor's bounded
    // read delay -- then a newest-wins refresh of whatever has arrived.
    int got = 0;
    if (opts.bsp) {
      if (c > 0 && !drop_read) got += await_round(HaloTag::kBoundaryX);
    } else {
      while (!within_lag(c)) {
        drain();
        std::this_thread::yield();
      }
      if (!drop_read) got += drain();
    }

    // 3. Own residual rows from the halo; publish the block (pre-
    // correction) before any wait, so the BSP residual exchange can never
    // cycle-wait.
    const std::int64_t t0 = tel != nullptr ? tel->clock().now_ns() : 0;
    plan.local_a[s].residual_into(b, x_local, r_view);
    publish_residual(c);

    // 4. BSP: every live peer's residual block of THIS round -- the view is
    // globally fresh, which is what makes the rounds replay the scripted
    // full-schedule oracle bitwise.
    if (opts.bsp && !drop_read) got += await_round(HaloTag::kResidualBlock);
    if (tel != nullptr && got > 0) {
      tel->record(s, EventKind::kShardExchange, static_cast<std::int64_t>(s),
                  got);
    }

    // 5. Full additive correction from the shard's residual view, damped by
    // theta for the staleness a free-running view may carry.
    std::fill(staging.begin() + static_cast<std::ptrdiff_t>(rg.begin),
              staging.begin() + static_cast<std::ptrdiff_t>(rg.end), 0.0);
    corrector.accumulate_cycle(r_view, staging, rg.begin, rg.end, ws, ctmp);

    // 6. Commit the owned rows and publish them. No BSP round reads the
    // boundary of the last round; free-running peers may still drain it.
    for (std::size_t i = rg.begin; i < rg.end; ++i) {
      x_local[i - rg.begin] += theta * staging[i];
    }
    if (!opts.bsp || c + 1 < opts.t_max) publish_boundary(c);
    ++result.corrections;
    board.publish_commits(s, c + 1);
    if (tel != nullptr) {
      tel->record_at(s, t0, EventKind::kShardStep,
                     static_cast<std::int64_t>(s),
                     tel->clock().now_ns() - t0);
    }
  }
  board.publish_dead(s);
  return result;
}

void shard_local_view(const ShardPlan& plan, std::size_t s, const Vector& x,
                      Vector& x_local) {
  const Range rg = plan.owned[s];
  x_local.resize(plan.local_size(s));
  std::copy(x.begin() + static_cast<std::ptrdiff_t>(rg.begin),
            x.begin() + static_cast<std::ptrdiff_t>(rg.end), x_local.begin());
  const auto& h = plan.halo[s];
  for (std::size_t pos = 0; pos < h.size(); ++pos) {
    x_local[rg.size() + pos] = x[static_cast<std::size_t>(h[pos])];
  }
}

void shard_initial_residual(const ShardPlan& plan, const Vector& b,
                            const Vector& x, Vector& r) {
  r.resize(b.size());
  Vector x_local;
  for (std::size_t s = 0; s < plan.num_shards; ++s) {
    shard_local_view(plan, s, x, x_local);
    plan.local_a[s].residual_into(b, x_local, r);
  }
}

}  // namespace asyncmg
