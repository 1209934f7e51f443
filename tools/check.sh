#!/usr/bin/env bash
# Gate script: the tree must build and pass ctest twice — a plain
# RelWithDebInfo build, then an UndefinedBehaviorSanitizer build
# (PGASQ_SANITIZE=undefined) — and the benchmark driver (perfbench/,
# its own CMake package over src/) must build and pass its ctest. Run
# from anywhere; builds live in build-check/, build-check-ubsan/ and
# build-check-perfbench/ at the repo root.
#
# Usage: tools/check.sh [--asan]
#   --asan  additionally run an AddressSanitizer pass (slower; fiber
#           switches are ASan-annotated via sim/fiber.hpp).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
run_asan=0
[[ "${1:-}" == "--asan" ]] && run_asan=1

pass() {
  local dir="$1"; shift
  echo "=== configure+build+test: ${dir} ($*)" >&2
  cmake -B "${repo}/${dir}" -S "${repo}" "$@" >/dev/null
  cmake --build "${repo}/${dir}" -j "${jobs}"
  ctest --test-dir "${repo}/${dir}" --output-on-failure -j "${jobs}"
}

perfbench_pass() {
  # The benchmark driver compiles the simulator from src/ itself, so a
  # src/ change can break it without breaking the main build; its
  # ctest (perfbench_scf_mirror) checks the scf workload still mirrors
  # apps::run_scf.
  local dir="build-check-perfbench"
  echo "=== configure+build+test: ${dir} (perfbench)" >&2
  cmake -B "${repo}/${dir}" -S "${repo}/perfbench" >/dev/null
  cmake --build "${repo}/${dir}" -j "${jobs}"
  if ! ctest --test-dir "${repo}/${dir}" --output-on-failure -j "${jobs}"; then
    cat >&2 <<'MSG'
perfbench_scf_mirror failed. Its two forked runs already register
different per-task buffers (memory registrations are keyed by host
address; ROADMAP direction 2), so the check passes only while those
buffers stay off the critical path, and a change that only moves
allocations can flip it. src/sim/engine.hpp's kClosureChunk (128) is
pinned to a size at which it passes. Before reading a MISMATCH as a
logic change, compare both runs' Process::create_memregion calls
(rank, virtual time, size) under setarch -R.
MSG
    return 1
  fi
}

obs_gate() {
  # Observability gate: a traced SCF run must produce a trace whose
  # flows pair up (with cross-track put/get/coll-hop/ack arrows) and a
  # schema-valid machine-readable report, and two benches must emit
  # BENCH_*.json. Artifacts land in the build dir.
  local dir="$1" out="${repo}/$1/obs-gate"
  echo "=== observability gate: ${dir}" >&2
  mkdir -p "${out}"
  # --distributed_guess routes the initial density through ga_put
  # (put/ack flows); pinning a software allreduce gives the energy
  # reduction per-hop messages (the hw model has none to trace).
  "${repo}/${dir}/examples/scf_walkthrough" --ranks=8 --nbf=24 --block=8 \
    --task_us=50 --distributed_guess=1 --coll.algo.allreduce=recdbl \
    "--trace.json_path=${out}/scf_trace.json" \
    "--report.json_path=${out}/scf_report.json" --obs.links=1 >/dev/null
  python3 "${repo}/tools/validate_trace.py" --require-ops \
    --trace "${out}/scf_trace.json" --report "${out}/scf_report.json"
  "${repo}/${dir}/bench/bench_fig3_latency" \
    "--report.json_path=${out}/BENCH_fig3.json" >/dev/null
  "${repo}/${dir}/bench/bench_fig4_bandwidth" --obs.links=1 \
    "--report.json_path=${out}/BENCH_fig4.json" >/dev/null
  python3 "${repo}/tools/validate_trace.py" --report "${out}/BENCH_fig3.json"
  python3 "${repo}/tools/validate_trace.py" --report "${out}/BENCH_fig4.json"
  # Hierarchical-collective gate: the same SCF at 8 ranks/node with the
  # allreduce pinned to the two-level schedule must emit coll-hop flows
  # on the per-group 'grp/...' tracks (node + leaders stages).
  "${repo}/${dir}/examples/scf_walkthrough" --ranks=16 --ranks_per_node=8 \
    --nbf=24 --block=8 --task_us=50 --distributed_guess=1 \
    --coll.algo.allreduce=hier \
    "--trace.json_path=${out}/scf_hier_trace.json" \
    "--report.json_path=${out}/scf_hier_report.json" >/dev/null
  python3 "${repo}/tools/validate_trace.py" --require-grp \
    --trace "${out}/scf_hier_trace.json" \
    --report "${out}/scf_hier_report.json"
  # End-to-end integrity gate (docs/faults.md): the chaos soak must
  # converge bit-for-bit under randomized combined fault plans, and a
  # traced corrupt run must pair every planted flip ('packet corrupt'
  # instant) with a transport-CRC catch ('corruption nack' instant)
  # while the report agrees (flips_detected == flips_injected).
  python3 "${repo}/tools/chaos_soak.py" --quick \
    --bin "${repo}/${dir}/examples/scf_walkthrough" --outdir "${out}"
  "${repo}/${dir}/examples/scf_walkthrough" --ranks=16 --ranks_per_node=8 \
    --nbf=24 --block=8 --task_us=50 --iterations=3 --distributed_guess=1 \
    --coll.algo.allreduce=hier --fault.seed=3 --fault.corrupt_prob=0.1 \
    "--trace.json_path=${out}/scf_corrupt_trace.json" \
    "--report.json_path=${out}/scf_corrupt_report.json" >/dev/null
  python3 "${repo}/tools/validate_trace.py" --require-integrity \
    --trace "${out}/scf_corrupt_trace.json" \
    --report "${out}/scf_corrupt_report.json"
}

kvs_gate() {
  # KV durability + determinism gate (docs/kvs.md): the sharded KV
  # bench must survive a soak with packet loss, corruption, AND a
  # mid-run node death (the bench exits 1 on any lost acked write or a
  # faa exactly-once mismatch), with every injected flip caught by the
  # transport CRC; and two identical runs must emit bitwise-identical
  # kvs.* metrics.
  local dir="$1" out="${repo}/$1/kvs-gate"
  echo "=== kvs gate: ${dir}" >&2
  mkdir -p "${out}"
  "${repo}/${dir}/bench/bench_abl_kvs" --ranks=32 --requests=16 \
    --failstop_ranks=32 --fault.seed=5 --fault.drop_prob=0.005 \
    --fault.corrupt_prob=0.005 \
    "--report.json_path=${out}/BENCH_kvs_soak.json" >/dev/null
  python3 - "${out}/BENCH_kvs_soak.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
m = {}
for e in doc["metrics"]:
    m.setdefault(e["name"], []).append(e)
for name in ("kvs.lost_acked_writes", "kvs.torn_reads"):
    for e in m[name]:
        assert e.get("value", 0) == 0, (name, e)
inj = sum(e.get("value", 0) for e in m["integrity.flips_injected"])
det = sum(e.get("value", 0) for e in m["integrity.flips_detected"])
assert inj > 0 and inj == det, (inj, det)
mixes = {(e.get("labels") or {}).get("mix") for e in m["kvs.acked_ops"]}
assert {"zipfian", "uniform", "failstop"} <= mixes, mixes
print(f"kvs soak OK: flips {det}/{inj} caught, mixes {sorted(mixes)}")
PY
  "${repo}/${dir}/bench/bench_abl_kvs" --ranks=24 --requests=16 \
    --failstop=0 "--report.json_path=${out}/BENCH_kvs_a.json" >/dev/null
  "${repo}/${dir}/bench/bench_abl_kvs" --ranks=24 --requests=16 \
    --failstop=0 "--report.json_path=${out}/BENCH_kvs_b.json" >/dev/null
  python3 "${repo}/tools/bench_diff.py" --fail-over 0 --metric kvs. \
    "${out}/BENCH_kvs_a.json" "${out}/BENCH_kvs_b.json"
}

overload_gate() {
  # Overload-control gate (docs/overload.md): past saturation the
  # flow-on arm must hold its goodput plateau (>= 85% of the on-arm
  # peak at 2x load) while the uncontrolled arm collapses (< 50% of
  # its own peak); the metastability soak must recover with the
  # controls on (>= 90% of pre-stall goodput) and stay degraded with
  # them off; and two identical runs must emit bitwise-identical
  # flow.* metrics.
  local dir="$1" out="${repo}/$1/overload-gate"
  echo "=== overload gate: ${dir}" >&2
  mkdir -p "${out}"
  "${repo}/${dir}/bench/bench_abl_overload" --hedge=0 \
    "--report.json_path=${out}/BENCH_overload.json" >/dev/null
  python3 - "${out}/BENCH_overload.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
goodput, soak = {}, {}
for e in doc["metrics"]:
    lab = e.get("labels") or {}
    if e["name"] == "kvs.goodput_mops" and "load" in lab:
        goodput[(lab["arm"], lab["load"])] = e["value"]
    if e["name"].startswith("overload.soak_"):
        soak[(e["name"], lab["arm"])] = e["value"]
peak = {arm: max(v for (a, l), v in goodput.items() if a == arm and l != "soak")
        for arm in ("on", "off")}
on2 = goodput[("on", "2.0")]
off2 = goodput[("off", "2.0")]
assert on2 >= 0.85 * peak["on"], (on2, peak["on"])
assert off2 < 0.50 * peak["off"], (off2, peak["off"])
pre_on = soak[("overload.soak_pre_goodput", "on")]
post_on = soak[("overload.soak_post_goodput", "on")]
pre_off = soak[("overload.soak_pre_goodput", "off")]
post_off = soak[("overload.soak_post_goodput", "off")]
assert post_on >= 0.90 * pre_on, (post_on, pre_on)
assert post_off < 0.50 * pre_off, (post_off, pre_off)
print(f"overload OK: on 2x holds {on2 / peak['on']:.0%} of peak "
      f"(off collapses to {off2 / peak['off']:.0%}), "
      f"soak recovers {post_on / pre_on:.0%} on / {post_off / pre_off:.0%} off")
PY
  "${repo}/${dir}/bench/bench_abl_overload" --factors=1.5 --soak=0 --hedge=0 \
    "--report.json_path=${out}/BENCH_overload_a.json" >/dev/null
  "${repo}/${dir}/bench/bench_abl_overload" --factors=1.5 --soak=0 --hedge=0 \
    "--report.json_path=${out}/BENCH_overload_b.json" >/dev/null
  python3 "${repo}/tools/bench_diff.py" --fail-over 0 --metric flow. \
    "${out}/BENCH_overload_a.json" "${out}/BENCH_overload_b.json"
  python3 "${repo}/tools/bench_diff.py" --fail-over 0 --metric kvs. \
    "${out}/BENCH_overload_a.json" "${out}/BENCH_overload_b.json"
}

timeline_gate() {
  # Continuous-telemetry gate (docs/observability.md): a traced
  # overload run with obs.timeline + obs.critpath on must emit a
  # schema-valid pgasq.timeline section whose counter totals reconcile
  # with the run's own metrics, a critical-path section whose segment
  # sums hold the attribution identity, and the timeline CSV; and the
  # same run with every obs.* knob unset must print byte-identical
  # stdout (zero-cost-off guarantee).
  local dir="$1" out="${repo}/$1/timeline-gate"
  echo "=== timeline gate: ${dir}" >&2
  mkdir -p "${out}"
  "${repo}/${dir}/bench/bench_abl_overload" --factors=1.5 --soak=0 \
    --hedge=0 --obs.timeline=1 --obs.critpath=1 \
    "--obs.timeline_csv=${out}/timeline.csv" \
    "--report.json_path=${out}/BENCH_overload_tl.json" \
    > "${out}/stdout_tl.txt"
  python3 "${repo}/tools/validate_trace.py" --require-timeline \
    --report "${out}/BENCH_overload_tl.json"
  python3 "${repo}/tools/critical_path.py" \
    "${out}/BENCH_overload_tl.json" >/dev/null
  [[ -s "${out}/timeline.csv" ]] || {
    echo "timeline gate: empty/missing ${out}/timeline.csv" >&2; exit 1; }
  "${repo}/${dir}/bench/bench_abl_overload" --factors=1.5 --soak=0 \
    --hedge=0 > "${out}/stdout_off.txt"
  "${repo}/${dir}/bench/bench_abl_overload" --factors=1.5 --soak=0 \
    --hedge=0 --obs.timeline=1 --obs.critpath=1 \
    > "${out}/stdout_on.txt"
  # The obs-on run must leave every pre-existing line untouched: its
  # stdout minus the timeline/critpath sections == the obs-off stdout
  # (virtual time unchanged — observation never perturbs the run).
  stdout_superset "${out}/stdout_off.txt" "${out}/stdout_on.txt"
  if cmp -s "${out}/stdout_off.txt" "${out}/stdout_on.txt"; then
    echo "timeline gate: obs.timeline=1 printed no timeline section" >&2; exit 1
  fi
  echo "timeline gate OK: obs-on stdout is a superset, timings unchanged"
}

stdout_superset() {
  # Every stdout line of the unobserved run ($1) appears in the
  # observed run's stdout ($2), which may add its observation sections.
  python3 - "$1" "$2" <<'PY'
import sys
off = open(sys.argv[1]).read()
on = open(sys.argv[2]).read()
for line in off.splitlines():
    assert line in on, f"{sys.argv[2]}: observed run lost line: {line!r}"
PY
}

async_gate() {
  # Async-runtime gate (docs/async.md): a traced overlapped-SCF run
  # must emit cross-track nbc-hop flows with one-sided put/get traffic
  # interleaved inside their window (the energy iallreduce makes
  # incremental progress instead of blocking), plus the async.* gauge
  # series in the timeline; both arms of the overlap bench must agree
  # on the Fock checksum and energy (asserted in-binary), two
  # identical bench runs must emit bitwise-identical async.* metrics,
  # and a traced or timelined run, whose poll loops step on their
  # fibers, must print every stdout line of the unobserved one, whose
  # loops park (the bench byte for byte).
  local dir="$1" out="${repo}/$1/async-gate"
  local scf=("${repo}/${dir}/examples/scf_walkthrough" --ranks=8 --nbf=24
             --block=8 --task_us=50 --distributed_guess=1 --iterations=3
             --coll.algo.allreduce=recdbl --async.scf_overlap=1)
  echo "=== async gate: ${dir}" >&2
  mkdir -p "${out}"
  "${scf[@]}" --obs.timeline=1 \
    "--trace.json_path=${out}/scf_async_trace.json" \
    "--report.json_path=${out}/scf_async_report.json" >"${out}/scf_async_observed.stdout"
  "${scf[@]}" >"${out}/scf_async_off.stdout"
  stdout_superset "${out}/scf_async_off.stdout" "${out}/scf_async_observed.stdout"
  python3 "${repo}/tools/validate_trace.py" --require-nbc \
    --trace "${out}/scf_async_trace.json" \
    --report "${out}/scf_async_report.json"
  python3 - "${out}/scf_async_report.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
names = {s["name"] for s in doc.get("timeline", {}).get("series", [])}
want = {"async.pending_futures", "async.cont_queue_depth"}
assert want <= names, f"missing async timeline series: {want - names}"
print(f"async timeline OK: {sorted(want)} present")
PY
  "${repo}/${dir}/bench/bench_abl_async" --ranks=64 --ranks_per_node=16 \
    --nbf=128 --block=8 --iterations=2 --task_us=500 \
    "--report.json_path=${out}/BENCH_async_a.json" >"${out}/async_a.stdout"
  "${repo}/${dir}/bench/bench_abl_async" --ranks=64 --ranks_per_node=16 \
    --nbf=128 --block=8 --iterations=2 --task_us=500 \
    "--report.json_path=${out}/BENCH_async_b.json" >/dev/null
  python3 "${repo}/tools/bench_diff.py" --fail-over 0 --metric async. \
    "${out}/BENCH_async_a.json" "${out}/BENCH_async_b.json"
  "${repo}/${dir}/bench/bench_abl_async" --ranks=64 --ranks_per_node=16 \
    --nbf=128 --block=8 --iterations=2 --task_us=500 --obs.timeline=1 \
    >"${out}/async_timeline.stdout"
  cmp "${out}/async_a.stdout" "${out}/async_timeline.stdout"
  echo "async gate OK: observed stdout matches the unobserved runs"
}

shstk_gate() {
  # Shadow-stack gate: a fiber switch returns onto another stack, which
  # a CET shadow stack would trap, so no binary may claim SHSTK
  # support. src/sim/fiber.cpp, which holds the switch, is built
  # without the property note, and the linker then drops the marking
  # from every binary it goes into.
  local bin="${repo}/$1/tests/pgasq_tests"
  echo "=== shadow-stack gate: $1" >&2
  command -v readelf >/dev/null || {
    echo "shadow-stack gate: readelf not found" >&2; exit 1; }
  if readelf -n "${bin}" | grep -E "x86 feature.*SHSTK" >&2; then
    echo "shadow-stack gate: ${bin} is marked SHSTK" >&2; exit 1
  fi
  echo "shadow-stack gate OK: ${bin} carries no SHSTK marking" >&2
}

knob_gate() {
  # Knob gate: a key is valid exactly when the program reads it, so a
  # misspelled knob must fail the run (non-zero exit, typo hint on
  # stderr) instead of silently running the defaults; and every
  # example must accept the shared machine knobs.
  local dir="$1" err="${repo}/$1/knob-gate.stderr"
  echo "=== knob gate: ${dir}" >&2
  expect_rejected() {
    local hint="$1"; shift
    if "$@" >/dev/null 2>"${err}"; then
      echo "knob gate: '$*' accepted a misspelled key" >&2; exit 1
    fi
    grep -qF "${hint}" "${err}" || {
      echo "knob gate: '$*' stderr lacks '${hint}':" >&2
      cat "${err}" >&2; exit 1; }
  }
  expect_rejected "unknown option progres (did you mean progress?)" \
    "${repo}/${dir}/examples/quickstart" --progres=async
  expect_rejected "unknown option fault.drop_prb (did you mean fault.drop_prob?)" \
    "${repo}/${dir}/bench/bench_fig3_latency" --fault.drop_prb=0.1
  # A program that sweeps progress modes or rank counts rejects those
  # keys instead of reading and then overriding them.
  expect_rejected "progress is set by the D/AT x process-count sweep of bench_fig9_rmw" \
    "${repo}/${dir}/bench/bench_fig9_rmw" --max_ranks=8 --progress=async --ranks=999
  expect_rejected "ranks is set by the 16/64/512-rank sweep of bench_abl_collectives" \
    "${repo}/${dir}/bench/bench_abl_collectives" --ranks=999
  local ex
  for ex in quickstart dgemm_overlap scf_walkthrough halo_exchange \
            work_stealing sparse_update kv_service; do
    "${repo}/${dir}/examples/${ex}" --integrity.verify=1 --fault.seed=1 \
      >/dev/null
  done
  echo "knob gate OK: typos and swept keys rejected, examples take shared knobs" >&2
}

scale_gate() {
  # Host-memory scale gate: per-rank ARMCI state (endpoint cache, write
  # tracker, notification counters) is sized by the peers a rank
  # touches, so quickstart's peak RSS must grow linearly with the rank
  # count: RSS per rank at 16384 ranks within 1.5x of the 1024-rank
  # figure, and the 16384-rank run under 1 GB. Each run is measured in
  # its own python3 process (getrusage's RUSAGE_CHILDREN peak).
  local dir="$1"
  echo "=== scale gate: ${dir}" >&2
  python3 - "${repo}/${dir}/examples/quickstart" <<'PY'
import subprocess, sys, time
MEASURE = ("import resource, subprocess, sys; "
           "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
           "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
def peak_mb(ranks):
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", MEASURE, sys.argv[1],
                          f"--ranks={ranks}"],
                         check=True, capture_output=True, text=True).stdout
    mb = int(out) / 1024  # ru_maxrss is in KiB on Linux
    print(f"quickstart --ranks={ranks}: {mb:.1f} MB peak RSS "
          f"({mb * 1024 / ranks:.1f} KB/rank), {time.monotonic() - t0:.2f} s")
    return mb
small, large = peak_mb(1024), peak_mb(16384)
growth = (large / 16384) / (small / 1024)
assert growth <= 1.5, f"RSS per rank grew {growth:.2f}x from 1K to 16K ranks"
assert large <= 1024, f"16K-rank run needed {large:.0f} MB > 1 GB"
print(f"scale gate OK: RSS per rank 1K -> 16K ranks x{growth:.2f}")
PY
}

pass build-check
shstk_gate build-check
perfbench_pass
knob_gate build-check
scale_gate build-check
obs_gate build-check
async_gate build-check
kvs_gate build-check
overload_gate build-check
timeline_gate build-check
pass build-check-ubsan -DPGASQ_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
if [[ "${run_asan}" == 1 ]]; then
  # Node-death runs drop an in-flight accumulate's ack closure by
  # design (see lsan.supp).
  export LSAN_OPTIONS="suppressions=${repo}/tools/lsan.supp:print_suppressions=0"
  pass build-check-asan -DPGASQ_SANITIZE=address
fi

echo "=== all checks passed" >&2
