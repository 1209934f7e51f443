#!/usr/bin/env python3
"""Two-clock benchmark of the pgasq simulator: host cost and modelled BG/Q time.

    python3 perfbench/run.py --workload scf|coll|kvs --seed N --seconds S --trace 0|1

Builds perfbench/ (pgasq_perfbench plus the simulator libraries from src/) into
.bench_build/perfbench, then runs pgasq_perfbench on the workload as many times as
S seconds buy at the workload's nominal run cost (at least three runs), each run
a fresh process. Every virtual-time figure and every count must repeat exactly
across those runs. Each run cuts its host time into slices at fixed points of
the deterministic simulation (every 2^15 swapcontext calls), so a slice covers
the same simulated work in every run. Host times are reported as the sum over
slices of each slice's fastest run: on a shared machine the noise only ever
adds time, and it comes and goes within a run, so this is the steadiest
estimate of what the work costs. Peak memory is the median. With --trace 1 one
more run records spans around every call into a layer and the per-layer
metrics are printed instead, together with the tracing overhead.

A human-readable table goes to stdout; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. Exits non-zero, without
a result, when the simulator cannot be built or a bench run crashes.
See perfbench/README.md for the workloads and the metric map.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "pgasq_perfbench"
TRACES = ROOT / ".bench_build" / "traces"

# The default seed of each workload, and a held-out seed kept for
# confirming a claimed change only (never used while writing one).
SEEDS = {
    "scf": {"default": 1, "held_out": 7919},
    "coll": {"default": 1, "held_out": 104729},
    "kvs": {"default": 1, "held_out": 1299709},
}

# End-to-end metrics: (name, unit, how the runs are summarised). Exact
# figures must be identical in every run.
END_TO_END = [
    ("setup_s", "s", "slices"),
    ("host_s", "s", "slices"),
    ("peak_rss_mb", "MB", "median"),
    ("virt_ms", "ms", "exact"),
    ("virt_op_us.p50", "us", "exact"),
    ("virt_op_us.p99", "us", "exact"),
    ("ops", "count", "exact"),
]

# Per-layer metrics and their units, printed by the traced run.
COLL_OPS = ("barrier", "broadcast", "allreduce", "alltoall")


def family(prefix, names, unit):
    return [(prefix + n, unit) for n in names]


PER_LAYER = (
    [("sim.events", "count"),
     ("sim.host_ns_per_event", "ns"),
     ("sim.events_per_msg", "events/msg"),
     ("sim.fiber_switches", "count"),
     ("noc.messages", "count"),
     ("noc.bytes", "B"),
     ("pami.advance_calls", "count"),
     ("pami.empty_advance_ratio", "ratio"),
     ("pami.ams_dispatched", "count"),
     ("pami.rmws_serviced", "count"),
     ("pami.service_delay_us.mean", "us")]
    + family("armci.", ("gets", "puts", "accs", "rmws", "forced_fences"), "count")
    + [("armci.region_cache_hit_ratio", "ratio")]
    + family("armci.virt_ms.", ("get", "acc", "rmw", "wait", "barrier"), "ms")
    + family("armci.host_us_per_call.", ("wait", "compute", "barrier"), "us")
    + family("coll.calls.", COLL_OPS, "count")
    + family("coll.virt_us_per_call.", COLL_OPS, "us")
    + family("coll.host_ms_per_call.", COLL_OPS, "ms")
    + family("coll.events_per_call.", COLL_OPS, "events")
    + [("coll.scratch_reallocs", "count"),
       ("nbc.ops", "count"),
       ("nbc.hops_sent", "count"),
       ("nbc.host_us_per_op", "us"),
       ("nbc.virt_us_per_op", "us"),
       ("ga.construct_ms", "ms")]
    + family("ga.host_us_per_call.", ("next", "nb_get", "acc"), "us")
    + family("ga.virt_us.next.", ("p50", "p99"), "us")
    + family("kvs.host_us_per_call.", ("get", "put", "faa"), "us")
    + family("kvs.virt_us.", ("get.p50", "get.p99", "put.p50", "put.p99", "faa.p50",
                              "faa.p99"), "us")
    + family("kvs.", ("cas_lost", "version_retries", "probe_steps"), "count")
    + [("kvs.useful_ratio", "ratio"),
       ("app.compute_virt_ms", "ms"),
       ("trace.overhead", "x")]
)

MIN_RUNS = 3
# Nominal wall seconds of one untraced run of each workload (set-up, timed
# region and teardown) on a 4-vCPU Xeon; --seconds buys this many runs.
RUN_COST_S = {"scf": 5.5, "coll": 5.5, "kvs": 9.5}
RUN_TIMEOUT_S = 150  # one bench run; the whole benchmark must end in 180 s
STOP_STARTING_S = 110  # start no further run after this much wall time


class BenchError(Exception):
    pass


def build():
    """Configures (once) and builds pgasq_perfbench; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources not found at %s" % (ROOT / "src"))
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            raise BenchError("cannot run %s: %s" % (cmd[0], e))
        if done.returncode != 0:
            raise BenchError("build step failed: %s" % " ".join(cmd))


def drive(*args):
    """Runs pgasq_perfbench once; returns the finished process."""
    try:
        done = subprocess.run([str(BINARY), *args], capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("bench run timed out: %s" % " ".join(args))
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stderr)
        raise BenchError("bench run crashed (exit %d): %s" % (done.returncode, " ".join(args)))
    return done


def measure(workload, seed, trace, trace_out=None):
    args = ["--workload", workload, "--seed", str(seed), "--trace", "1" if trace else "0"]
    if trace_out is not None:
        args += ["--trace-out", str(trace_out)]
    done = drive(*args)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError("bench run failed: %s" % " ".join(args))
    return json.loads(done.stdout.strip().splitlines()[-1])


def exact_view(result):
    """Everything that must repeat bit for bit: virtual time and counts."""
    view = {k: result["e2e"][k] for k, _, how in END_TO_END if how == "exact"}
    view["ops_failed"] = result["e2e"]["ops_failed"]
    view["op_samples"] = result["op_samples"]
    view.update(result["exact"])
    return view


def diff(a, b):
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SEEDS))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's default seed)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="how long to repeat untraced runs, at nominal run cost")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seed = SEEDS[args.workload]["default"] if args.seed is None else args.seed

    start = time.monotonic()
    try:
        build()
        # Failed checks of the benchmark itself; each counts one failed op.
        checks = []
        if args.workload == "scf":
            # The scf workload code must reproduce apps::run_scf on a reduced deck.
            mirror = drive("--check-scf-mirror")
            if mirror.returncode != 0:
                checks.append("scf workload code does not mirror apps::run_scf:\n" +
                              mirror.stdout)

        # The number of runs depends on --seconds only, never on how fast
        # the runs go: the fastest of n runs reads lower as n grows, so two
        # commits must be compared on equally many runs.
        want = max(MIN_RUNS, int(args.seconds // RUN_COST_S[args.workload]))
        runs = []
        t0 = time.monotonic()
        while len(runs) < want:
            if len(runs) >= MIN_RUNS and time.monotonic() - start > STOP_STARTING_S:
                break
            runs.append(measure(args.workload, seed, False))
        traced = None
        if args.trace:
            TRACES.mkdir(parents=True, exist_ok=True)
            traced = measure(args.workload, seed, True,
                             TRACES / ("%s-seed%d.json" % (args.workload, seed)))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    # Self-check: repeated runs of one seed, and the traced run, must agree
    # on every virtual figure and count.
    ref = exact_view(runs[0])
    for i, r in enumerate(runs[1:], start=2):
        d = diff(ref, exact_view(r))
        if d:
            checks.append("run %d differs from run 1 in: %s" % (i, ", ".join(d)))
        cuts = {k: len(v) for k, v in r["slices"].items()}
        if cuts != {k: len(v) for k, v in runs[0]["slices"].items()}:
            checks.append("run %d cuts its host time into other slices than run 1" % i)
    if traced is not None:
        d = diff(ref, exact_view(traced))
        if d:
            checks.append("traced run differs from untraced in: %s" % ", ".join(d))
    everything = runs + ([traced] if traced else [])
    failures = checks + [f for r in everything for f in r["failures"]]
    attempted = sum(int(r["e2e"]["ops"]) for r in everything)
    failed = sum(int(r["e2e"]["ops_failed"]) for r in everything) + len(checks)

    def fastest_slices(name):
        return sum(min(cut) for cut in zip(*(r["slices"][name] for r in runs)))

    summarise = {"median": statistics.median, "exact": lambda v: v[0]}
    e2e = {name: (fastest_slices(name) if how == "slices" else
                  summarise[how]([r["e2e"][name] for r in runs]), unit)
           for name, unit, how in END_TO_END}
    fastest_run_s = min(r["e2e"]["host_s"] for r in runs)

    print("perfbench %s seed %d: %d untraced runs in %.1f s%s" % (
        args.workload, seed, len(runs), time.monotonic() - t0,
        ", plus one traced run" if traced else ""))
    print("%-34s %18s  %s" % ("end-to-end (host: fastest slices)", "value", "unit"))
    for name, (value, unit) in e2e.items():
        print("%-34s %18.6f  %s" % (name, value, unit))
    print("%-34s %18.6f  %s" % ("host_s of the fastest whole run", fastest_run_s, "s"))
    print("%-34s %18d  %s" % ("ops_failed (all runs)", failed, "count"))
    for f in failures:
        print("FAIL: %s" % f)

    if traced is None:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    else:
        layer = dict(traced["exact"])
        layer.update(traced["traced"])
        host_s = e2e["host_s"][0]
        layer["sim.host_ns_per_event"] = (host_s * 1e9 / layer["sim.events"]
                                          if layer["sim.events"] else 0.0)
        layer["trace.overhead"] = traced["e2e"]["host_s"] / fastest_run_s
        missing = [n for n, _ in PER_LAYER if n not in layer]
        if missing:
            print("perfbench: pgasq_perfbench did not report %s" % ", ".join(missing),
                  file=sys.stderr)
            return 1
        print("\n%-34s %18s  %s" % ("per-layer (traced run)", "value", "unit"))
        for name, unit in PER_LAYER:
            print("%-34s %18.6f  %s" % (name, layer[name], unit))
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}

    print(json.dumps({"correct": not failures and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
