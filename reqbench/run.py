#!/usr/bin/env python3
"""Request-path benchmark of asyncmg: one command, four workloads.

    python3 reqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an asyncmg checkout. The first run configures and
builds the reqbench package (this directory's CMakeLists.txt, which builds
the library from ../src) into $CARGO_TARGET_DIR or .bench_build. The binary
runs the workload for S seconds on inputs generated from the seed and
writes a raw result; this script checks the outputs, prints the host block
and every metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (see
README.md). A wrong output prints "correct": false and exits 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import stats  # noqa: E402

WORKLOADS = ("warm_service", "cold_service", "async_teams", "fleet_bsp")
RUN_TIMEOUT_S = 170
COVERAGE_BAND = (0.9, 1.1)


def fail(msg, code=2):
    print("reqbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def source_digest(root):
    """sha256 over the library and benchmark sources; it identifies the
    code in a copy of the sources that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, root)):
        for d, dirs, files in os.walk(os.path.join(root, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build(root, build_dir):
    """Configure once, then build the driver and the worker daemon. Build
    output goes to stderr only when the build fails."""
    cmds = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        cmds.append(cfg)
    cmds.append(["cmake", "--build", build_dir, "-j", "4", "--target",
                 "reqbench", "asyncmg_workerd"])
    for cmd in cmds:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=850)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-8000:] + p.stderr[-8000:])
            fail("build failed: " + " ".join(cmd))


def end_to_end(raw, units):
    lat = raw["latencies"]
    if not lat:
        fail("no successful solve in the timed loop", 1)
    beyond = stats.samples_beyond(lat, 90)
    if beyond < stats.MIN_BEYOND:
        print(f"WARN latency_p90_s: only {beyond} samples beyond p90 "
              f"(n={len(lat)}); it needs >= {stats.MIN_BEYOND}")
    values = {
        "solves_per_s": len(lat) / raw["wall"],
        "latency_p50_s": stats.median(lat),
        "latency_p90_s": stats.percentile(lat, 90),
        "setup_s": stats.median(raw["setups"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    print(f"samples: {len(lat)} solves, {beyond} beyond p90, "
          f"{len(raw['setups'])} setups")
    print(f"failed_frac = {stats.failed_frac(raw['failures'], raw['attempted']):.6g} "
          f"({stats.failed_count(raw['failures'])} of {raw['attempted']}: "
          f"{json.dumps(raw['failures'])})")
    return {k: values[k] for k in units}


def per_layer(raw, units):
    span = stats.SpanSummary(raw["spans"])
    layer = dict(raw["layer"])
    setups = max(1, span.count("multigrid.mgsetup", everywhere=True))
    from_spans = {
        "service.fingerprint_s": span.per_request("service.fingerprint"),
        "cache.lookup_s": span.per_request("cache.lookup"),
        "cache.spill_write_s": span.per_request("cache.insert"),
        "multigrid.solver_build_s": span.per_request("multigrid.solver_build"),
        "multigrid.cycle_s": span.per_span("multigrid.cycle"),
        "multigrid.residual_check_s": span.per_span("multigrid.residual_check"),
        "multigrid.mgsetup_s": span.per_span("multigrid.mgsetup",
                                             everywhere=True),
        "net.request_encode_s": span.per_request("net.request_encode"),
        "net.request_decode_s": span.per_request("net.request_decode"),
        "net.halo_encode_s": span.per_request("net.halo_encode"),
        "net.halo_decode_s": span.per_request("net.halo_decode"),
    }
    for phase in ("strength", "coarsen", "interp", "rap"):
        from_spans[f"amg.{phase}_s"] = span.total(
            f"amg.{phase}", everywhere=True) / setups
    layer.update(from_spans)

    traced, untraced = raw["traced_latencies"], raw["latencies"]
    layer["trace.coverage"] = span.coverage()
    layer["trace.overhead_frac"] = (
        stats.median(traced) / stats.median(untraced) - 1.0
        if traced and untraced else 0.0)
    lo, hi = COVERAGE_BAND
    if not lo <= layer["trace.coverage"] <= hi:
        print(f"WARN trace.coverage = {layer['trace.coverage']:.3f} is outside "
              f"{lo}-{hi}: the layers leave {1 - layer['trace.coverage']:+.1%} "
              "of a median request's latency unattributed")
    print(f"trace: {span.requests} traced requests, {len(raw['spans'])} spans")
    if layer.get("trace.failed_solves"):
        print(f"WARN {layer['trace.failed_solves']:.0f} traced solves failed; "
              "the per-layer numbers cover the successful ones")
    # Metrics no span or counter of this workload's path reached are 0.
    return {k: float(layer.get(k, 0.0)) for k in units}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"{root} holds no asyncmg sources (src/CMakeLists.txt); run from "
             "the root of an asyncmg checkout")
    e2e_units, layer_units = load_spec(root)
    build_dir = os.path.abspath(
        os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(root, build_dir)

    run_dir = os.path.join(build_dir, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    out = os.path.join(run_dir, "result.json")
    cmd = [os.path.join(build_dir, "reqbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out, "--tmp-dir", os.path.join(run_dir, "tmp"),
           "--workerd", os.path.join(build_dir, "asyncmg_workerd"),
           "--git-commit", git_commit(root)]
    # Own process group, so a timeout also ends fleet_bsp's worker daemons.
    p = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        _, err = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        for _ in range(100):  # until the orphaned workers are gone too
            try:
                os.killpg(p.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(err[-4000:])
    if p.returncode != 0 or not os.path.exists(out):
        fail(f"reqbench exited with {p.returncode}", 1)
    with open(out) as f:
        raw = json.load(f)
    shutil.rmtree(run_dir, ignore_errors=True)

    raw["host"]["source_sha256"] = source_digest(root)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    for k, v in sorted(raw["host"].items()):
        print(f"host.{k} = {v}")
    for k, v in sorted(raw["host_numbers"].items()):
        print(f"host.{k} = {v:.17g}")
    for k, v in sorted(raw["config"].items()):
        print(f"config.{k} = {v}")

    correct = True
    for c in raw["checks"]:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'} {c['detail']}")
        correct = correct and c["ok"]

    if args.trace:
        values, units = per_layer(raw, layer_units), layer_units
    else:
        values, units = end_to_end(raw, e2e_units), e2e_units
    for k in units:
        print(f"{k} = {values[k]:.17g} {units[k]}")

    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": stats.failed_count(raw["failures"]),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
