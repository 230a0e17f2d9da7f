// Telemetry subsystem tests: SPSC ring semantics, metrics registry, the
// Chrome trace / CSV exporters, and the end-to-end determinism guarantee --
// a scripted Multadd replay records a logical-time event stream whose
// exported trace is bitwise identical across runs and thread counts, and a
// golden copy of that trace is a checked-in regression artifact.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "async/model.hpp"
#include "async/runtime.hpp"
#include "mesh/problems.hpp"
#include "multigrid/mult.hpp"
#include "service/solve_service.hpp"
#include "sparse/vec.hpp"
#include "telemetry/export.hpp"
#include "telemetry/sink.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace asyncmg {
namespace {

struct Fixture {
  explicit Fixture(Index n = 10) {
    Problem prob = make_laplace_7pt(n);
    MgOptions mo;
    mo.smoother.type = SmootherType::kWeightedJacobi;
    mo.smoother.omega = 0.9;
    setup = std::make_unique<MgSetup>(std::move(prob.a), mo);
    AdditiveOptions ao;
    ao.kind = AdditiveKind::kMultadd;
    corr = std::make_unique<AdditiveCorrector>(*setup, ao);
    Rng rng(13);
    b = random_vector(static_cast<std::size_t>(setup->a(0).rows()), rng);
  }
  std::unique_ptr<MgSetup> setup;
  std::unique_ptr<AdditiveCorrector> corr;
  Vector b;
};

TelemetryOptions logical_sink_options() {
  TelemetryOptions to;
  to.logical_time = true;
  return to;
}

RuntimeOptions scripted_options(std::uint64_t seed, std::size_t threads,
                                int t_max = 8) {
  RuntimeOptions ro;
  ro.mode = ExecMode::kScripted;
  ro.script_alpha = 0.7;
  ro.script_max_delay = 2;
  ro.seed = seed;
  ro.t_max = t_max;
  ro.num_threads = threads;
  return ro;
}

// ---------------------------------------------------------------------------
// EventRing
// ---------------------------------------------------------------------------

TEST(EventRing, PreservesPushOrderAndCountsOverflowDrops) {
  EventRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    const bool ok = ring.push({i, i * 10, 0, EventKind::kRelax});
    EXPECT_EQ(ok, i < 8) << "push " << i;
  }
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.dropped(), 12u);

  std::vector<Event> out;
  EXPECT_EQ(ring.drain(out), 8u);
  ASSERT_EQ(out.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].t, i);
    EXPECT_EQ(out[static_cast<std::size_t>(i)].a, i * 10);
  }
  // Drained capacity is reusable.
  EXPECT_TRUE(ring.push({99, 0, 0, EventKind::kRelax}));
  out.clear();
  EXPECT_EQ(ring.drain(out), 1u);
  EXPECT_EQ(out[0].t, 99);
}

TEST(EventRing, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(EventRing(1).capacity(), 2u);
  EXPECT_EQ(EventRing(5).capacity(), 8u);
  EXPECT_EQ(EventRing(64).capacity(), 64u);
}

TEST(EventRing, ConcurrentProducerConsumerLosesNothingButDrops) {
  constexpr std::int64_t kPushes = 200000;
  EventRing ring(1u << 10);
  std::vector<Event> got;
  std::atomic<bool> done{false};

  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) ring.drain(got);
    ring.drain(got);
  });
  for (std::int64_t i = 0; i < kPushes; ++i) {
    ring.push({i, 0, 0, EventKind::kRelax});
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(got.size() + ring.dropped(), static_cast<std::size_t>(kPushes));
  // Whatever arrived arrived in order.
  for (std::size_t i = 1; i < got.size(); ++i) {
    ASSERT_LT(got[i - 1].t, got[i].t) << "out of order at " << i;
  }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, HistogramSnapshotAgreesWithUtilPercentile) {
  MetricsRegistry reg;
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) {
    xs.push_back(static_cast<double>(i));
    reg.histogram("lat").observe(static_cast<double>(i));
  }
  const HistogramSnapshot s = reg.histogram("lat").snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, mean(xs));
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.p50, percentile(xs, 50.0));
  EXPECT_DOUBLE_EQ(s.p95, percentile(xs, 95.0));
  EXPECT_DOUBLE_EQ(s.p99, percentile(xs, 99.0));
}

TEST(MetricsRegistry, EmptyHistogramSnapshotsToZerosNotNaN) {
  MetricsRegistry reg;
  const HistogramSnapshot s = reg.histogram("empty").snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
  EXPECT_NE(reg.to_json().find("\"empty\""), std::string::npos);
  EXPECT_EQ(reg.to_json().find("nan"), std::string::npos);
}

TEST(MetricsRegistry, JsonIsSortedIndependentOfRegistrationOrder) {
  MetricsRegistry a, b;
  a.counter("zeta").add(3);
  a.counter("alpha").add(1);
  a.gauge("mid").set(2.5);
  b.gauge("mid").set(2.5);
  b.counter("alpha").add(1);
  b.counter("zeta").add(3);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_NE(a.to_json().find("{\"counters\":{\"alpha\":1,\"zeta\":3}"),
            std::string::npos);
}

TEST(MetricsRegistry, HandlesAreStableAcrossLaterRegistrations) {
  MetricsRegistry reg;
  Counter& first = reg.counter("first");
  for (int i = 0; i < 100; ++i) {
    reg.counter("other" + std::to_string(i));
  }
  first.add(7);
  EXPECT_EQ(reg.counter("first").value(), 7u);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ChromeTrace, MapsEventKindsToTracksAndPhases) {
  std::vector<DrainedEvent> evs;
  evs.push_back({{1000, 2, 500, EventKind::kRelax}, 4});
  evs.push_back({{1500, 2, -1, EventKind::kSharedRead}, 4});
  evs.push_back({{2000, 7, 0, EventKind::kQueueDepth}, kControlTid});
  evs.push_back({{2500,
                  static_cast<std::int64_t>(CyclePhase::kPreSmooth), 1,
                  EventKind::kPhaseBegin},
                 3});

  const std::string json = chrome_trace_json(evs);
  // Relax: complete slice on the grid's track, fractional-µs wall stamps.
  EXPECT_NE(json.find("\"name\":\"relax\",\"cat\":\"grid\",\"ph\":\"X\","
                      "\"ts\":1.000,\"dur\":0.500,\"pid\":1,\"tid\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"read\""), std::string::npos);
  // Queue depth: counter track.
  EXPECT_NE(json.find("\"name\":\"queue-depth\",\"cat\":\"service\","
                      "\"ph\":\"C\""),
            std::string::npos);
  // Phase: B slice named after the phase, on the recording thread's track.
  EXPECT_NE(json.find("\"name\":\"pre-smooth\",\"cat\":\"cycle\","
                      "\"ph\":\"B\",\"ts\":2.500,\"pid\":1,\"tid\":3"),
            std::string::npos);
  // Track metadata: the grid track is named, the control track is named.
  EXPECT_NE(json.find("\"args\":{\"name\":\"grid 2\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"control\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"thread 3\"}"), std::string::npos);
  // Valid JSON shape.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
}

TEST(ChromeTrace, LogicalTimeExportsIntegerTicks) {
  std::vector<DrainedEvent> evs;
  evs.push_back({{3, 1, 1, EventKind::kRelax}, 0});
  ChromeTraceOptions opts;
  opts.logical_time = true;
  const std::string json = chrome_trace_json(evs, opts);
  EXPECT_NE(json.find("\"ts\":3,\"dur\":1"), std::string::npos);
}

TEST(ResidualCsv, FormatsExactlyAndValidatesLengths) {
  const std::string csv = residual_csv({0.0, 0.5}, {1.0, 0.25});
  EXPECT_EQ(csv,
            "step,seconds,rel_res\n"
            "0,0.000000000e+00,1.000000000e+00\n"
            "1,5.000000000e-01,2.500000000e-01\n");
  EXPECT_THROW(residual_csv({0.0}, {1.0, 0.5}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Sink semantics
// ---------------------------------------------------------------------------

TEST(TelemetrySink, DrainMergesRingsSortedByTimestamp) {
  TelemetrySink sink;
  sink.record_at(1, 20, EventKind::kRelax, 1, 1);
  sink.record_at(0, 10, EventKind::kRelax, 0, 1);
  sink.record_at(0, 30, EventKind::kRelax, 0, 1);
  sink.record_control(EventKind::kQueueDepth, 5);

  const std::vector<DrainedEvent> evs = sink.drain();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs[0].ev.t, 10);
  EXPECT_EQ(evs[0].tid, 0u);
  EXPECT_EQ(evs[1].ev.t, 20);
  EXPECT_EQ(evs[1].tid, 1u);
  EXPECT_EQ(evs[2].ev.t, 30);
  // The control event carries a session-clock stamp (>= 0) and the control
  // tid; drain() consumed everything.
  EXPECT_EQ(evs[3].tid, kControlTid);
  EXPECT_TRUE(sink.drain().empty());
}

TEST(TelemetrySink, DisabledSinkRecordsNothing) {
  TelemetryOptions to;
  to.start_enabled = false;
  TelemetrySink sink(to);
  sink.record(0, EventKind::kRelax, 1, 1);
  sink.record_control(EventKind::kQueueDepth, 2);
  EXPECT_TRUE(sink.drain().empty());
  EXPECT_EQ(sink.dropped_total(), 0u);

  sink.set_enabled(true);
  sink.record(0, EventKind::kRelax, 1, 1);
  EXPECT_EQ(sink.drain().size(), 1u);
}

TEST(TelemetrySink, OutOfRangeTidFallsBackToControlRing) {
  TelemetryOptions to;
  to.max_threads = 2;
  TelemetrySink sink(to);
  sink.record_at(17, 5, EventKind::kRelax, 0, 1);
  const std::vector<DrainedEvent> evs = sink.drain();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].tid, kControlTid);
}

// ---------------------------------------------------------------------------
// Runtime instrumentation
// ---------------------------------------------------------------------------

TEST(RuntimeTelemetry, FreeRunRecordsOneRelaxPerCorrection) {
  Fixture f;
  TelemetrySink sink;
  RuntimeOptions ro;
  ro.mode = ExecMode::kAsynchronous;
  ro.write = WritePolicy::kAtomicWrite;
  ro.t_max = 6;
  ro.num_threads = 4;
  ro.telemetry = &sink;
  Vector x(f.b.size(), 0.0);
  const RuntimeResult rr = run_shared_memory(*f.corr, f.b, x, ro);

  int total = 0;
  for (int c : rr.corrections) total += c;
  const std::vector<DrainedEvent> evs = sink.drain();
  int relaxes = 0;
  int reads = 0;
  for (const DrainedEvent& de : evs) {
    if (de.ev.kind == EventKind::kRelax) {
      ++relaxes;
      EXPECT_GE(de.ev.t, 0);
      EXPECT_GE(de.ev.b, 0);  // duration
    }
    if (de.ev.kind == EventKind::kSharedRead) ++reads;
  }
  EXPECT_EQ(relaxes, total);
  EXPECT_EQ(reads, total);  // no dropped reads in this run
  EXPECT_EQ(sink.metrics().counter("runtime.relaxations").value(),
            static_cast<std::uint64_t>(total));
}

TEST(RuntimeTelemetry, NullAndDisabledSinksAreEquivalentNoOps) {
  for (const bool use_disabled_sink : {false, true}) {
    Fixture f;
    TelemetryOptions to;
    to.start_enabled = false;
    TelemetrySink sink(to);
    RuntimeOptions ro = scripted_options(42, 4);
    ro.telemetry = use_disabled_sink ? &sink : nullptr;
    Vector x(f.b.size(), 0.0);
    run_shared_memory(*f.corr, f.b, x, ro);
    EXPECT_TRUE(sink.drain().empty());
  }
}

TEST(RuntimeTelemetry, ScriptedTraceMatchesSequentialModelStream) {
  Fixture f;
  const Schedule sched = [&] {
    AsyncModelOptions mo;
    mo.alpha = 0.7;
    mo.max_delay = 2;
    mo.updates_per_grid = 8;
    mo.seed = 7;
    return sample_schedule(f.corr->num_grids(), mo);
  }();

  TelemetrySink model_sink(logical_sink_options());
  Vector x_model(f.b.size(), 0.0);
  replay_semiasync_schedule(*f.corr, f.b, x_model, sched, false, &model_sink);

  TelemetrySink run_sink(logical_sink_options());
  RuntimeOptions ro = scripted_options(7, 4);
  ro.schedule = &sched;
  ro.telemetry = &run_sink;
  Vector x_run(f.b.size(), 0.0);
  run_shared_memory(*f.corr, f.b, x_run, ro);

  const std::vector<DrainedEvent> me = model_sink.drain();
  const std::vector<DrainedEvent> re = run_sink.drain();
  ASSERT_FALSE(me.empty());
  ASSERT_EQ(me.size(), re.size());
  for (std::size_t i = 0; i < me.size(); ++i) {
    EXPECT_EQ(me[i].ev.t, re[i].ev.t) << i;
    EXPECT_EQ(me[i].ev.a, re[i].ev.a) << i;
    EXPECT_EQ(me[i].ev.b, re[i].ev.b) << i;
    EXPECT_EQ(static_cast<int>(me[i].ev.kind),
              static_cast<int>(re[i].ev.kind))
        << i;
    EXPECT_EQ(me[i].tid, re[i].tid) << i;
  }
}

// The tentpole acceptance criterion: a scripted Multadd solve with telemetry
// enabled exports Chrome trace JSON that is bitwise identical across runs
// AND across thread counts.
TEST(RuntimeTelemetry, ScriptedChromeTraceIsBitwiseReproducible) {
  std::string ref;
  for (const std::size_t threads : {2u, 5u}) {
    for (int rep = 0; rep < 2; ++rep) {
      Fixture f;
      TelemetrySink sink(logical_sink_options());
      RuntimeOptions ro = scripted_options(42, threads);
      ro.telemetry = &sink;
      Vector x(f.b.size(), 0.0);
      run_shared_memory(*f.corr, f.b, x, ro);
      ChromeTraceOptions copts;
      copts.logical_time = true;
      const std::string json = chrome_trace_json(sink.drain(), copts);
      EXPECT_EQ(sink.dropped_total(), 0u);
      if (ref.empty()) {
        ref = json;
        ASSERT_NE(ref.find("\"name\":\"relax\""), std::string::npos);
      } else {
        ASSERT_EQ(json, ref) << "threads=" << threads << " rep=" << rep;
      }
    }
  }
}

TEST(RuntimeTelemetry, GoldenChromeTraceMatchesFixture) {
  const std::string path =
      std::string(ASYNCMG_FIXTURE_DIR) + "/golden_chrome_trace_seed42.json";

  Fixture f;
  TelemetrySink sink(logical_sink_options());
  RuntimeOptions ro = scripted_options(42, 4, 6);
  ro.telemetry = &sink;
  Vector x(f.b.size(), 0.0);
  run_shared_memory(*f.corr, f.b, x, ro);
  ChromeTraceOptions copts;
  copts.logical_time = true;
  const std::string json = chrome_trace_json(sink.drain(), copts);

  if (std::getenv("ASYNCMG_REGEN_GOLDEN") != nullptr) {
    write_text_file(path, json);
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing fixture " << path
                         << " (run with ASYNCMG_REGEN_GOLDEN=1)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(json, buf.str());
}

// ---------------------------------------------------------------------------
// Cycle-phase and service instrumentation
// ---------------------------------------------------------------------------

TEST(CycleTelemetry, PhasesAreBalancedAndOnTheConfiguredTid) {
  Fixture f;
  TelemetrySink sink;
  MultiplicativeMg mg(*f.setup);
  mg.set_telemetry(&sink, 3);
  Vector x(f.b.size(), 0.0);
  mg.cycle(f.b, x);

  const std::vector<DrainedEvent> evs = sink.drain();
  ASSERT_FALSE(evs.empty());
  int begins = 0;
  int ends = 0;
  bool saw_residual = false;
  bool saw_coarse = false;
  for (const DrainedEvent& de : evs) {
    EXPECT_EQ(de.tid, 3u);
    if (de.ev.kind == EventKind::kPhaseBegin) ++begins;
    if (de.ev.kind == EventKind::kPhaseEnd) ++ends;
    if (de.ev.a == static_cast<std::int64_t>(CyclePhase::kResidual)) {
      saw_residual = true;
    }
    if (de.ev.a == static_cast<std::int64_t>(CyclePhase::kCoarseSolve)) {
      saw_coarse = true;
    }
  }
  EXPECT_EQ(begins, ends);
  EXPECT_TRUE(saw_residual);
  EXPECT_TRUE(saw_coarse);

  // Disabled sink: the whole cycle takes the zero-overhead path.
  sink.set_enabled(false);
  mg.cycle(f.b, x);
  EXPECT_TRUE(sink.drain().empty());
}

TEST(CycleTelemetry, SolveRecordsOneLevel0ResidualPerCheck) {
  // The solve loop's convergence check is the next cycle's residual: a t-cycle
  // solve runs exactly t+1 level-0 residual passes (the initial check, then
  // one after each cycle, each reused by the cycle that follows).
  Fixture f;
  TelemetrySink sink;
  MultiplicativeMg mg(*f.setup);
  mg.set_telemetry(&sink, 0);
  for (const int t : {0, 1, 4}) {
    Vector x(f.b.size(), 0.0);
    const SolveStats st = mg.solve(f.b, x, t);
    ASSERT_EQ(st.cycles, t);
    int residual_begins = 0;
    int residual_ends = 0;
    for (const DrainedEvent& de : sink.drain()) {
      if (de.ev.a != static_cast<std::int64_t>(CyclePhase::kResidual) ||
          de.ev.b != 0) {
        continue;
      }
      if (de.ev.kind == EventKind::kPhaseBegin) ++residual_begins;
      if (de.ev.kind == EventKind::kPhaseEnd) ++residual_ends;
    }
    EXPECT_EQ(residual_begins, t + 1) << "t=" << t;
    EXPECT_EQ(residual_ends, t + 1) << "t=" << t;
  }

  // Disabled sink: the whole solve takes the zero-overhead path.
  sink.set_enabled(false);
  Vector x(f.b.size(), 0.0);
  mg.solve(f.b, x, 2);
  EXPECT_TRUE(sink.drain().empty());
}

TEST(ServiceTelemetry, MergedStatsJsonCarriesCacheAndLatencyMetrics) {
  TelemetrySink sink;
  ServiceOptions so;
  so.num_threads = 2;
  so.telemetry = &sink;
  SolveService svc(so);

  Problem prob = make_laplace_7pt(6);
  Rng rng(5);
  const Vector rhs =
      random_vector(static_cast<std::size_t>(prob.a.rows()), rng);
  RequestOptions ropts;
  ropts.t_max = 3;
  for (int i = 0; i < 3; ++i) {
    svc.submit(prob.a, rhs, ropts).get();
  }

  // Request path: one miss then hits, latencies observed, queue depth seen.
  EXPECT_EQ(sink.metrics().counter("service.submitted").value(), 3u);
  EXPECT_EQ(sink.metrics().counter("service.completed").value(), 3u);
  EXPECT_EQ(sink.metrics().counter("cache.misses").value(), 1u);
  EXPECT_EQ(sink.metrics().counter("cache.hits").value(), 2u);
  EXPECT_EQ(
      sink.metrics().histogram("service.latency_seconds").snapshot().count,
      3u);
  bool saw_queue_depth = false;
  for (const DrainedEvent& de : sink.drain()) {
    if (de.ev.kind == EventKind::kQueueDepth) saw_queue_depth = true;
  }
  EXPECT_TRUE(saw_queue_depth);

  const std::string json = svc.stats_json();
  EXPECT_NE(json.find("\"telemetry\":{\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"cache.misses\":1"), std::string::npos);
  EXPECT_NE(json.find("\"service.latency_seconds\":{\"count\":3"),
            std::string::npos);
  // The plain stats JSON is still a prefix-compatible object.
  EXPECT_NE(json.find("\"submitted\":3"), std::string::npos);
}

}  // namespace
}  // namespace asyncmg
