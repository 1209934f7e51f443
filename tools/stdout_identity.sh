#!/usr/bin/env bash
# Stdout-identity check: builds the named programs of git revision <rev>
# and of the working tree, runs each from both builds, and diffs their
# stdout and the output files they wrote. Fault-free runs are
# deterministic, so any difference is a behaviour (or virtual-time)
# change.
#
# Usage: tools/stdout_identity.sh <rev> <run>...
#   e.g. tools/stdout_identity.sh HEAD~ bench_fig3_latency bench_fig9_rmw
#        tools/stdout_identity.sh HEAD~ 'scf_walkthrough --ranks=8 --distributed_guess=1'
#
# Each <run> is a program name, optionally followed by its arguments in
# the same quoted operand. The program is looked up in bench/, then in
# examples/; a bare name runs with no arguments. An argument may name
# output files under @OUT@, e.g.
#   'bench_abl_overload --obs.timeline=1 --obs.timeline_csv=@OUT@/tl.csv'
# Each side's run gets its own empty directory for @OUT@, and every
# file the two runs wrote there is diffed too.
#
# <rev> is exported with `git archive` into a temporary directory
# (under $TMPDIR, removed on exit) and built there; the working tree
# builds into build-identity/ at the repo root. Each run's verdict line
# also gives its wall seconds from both builds, <rev> first, e.g.
#   IDENTICAL bench_supp_alltoall 30.8 s -> 10.0 s
# Exits 0 when every run's stdout and files are byte-identical, 1
# otherwise.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <rev> <run>..." >&2
  exit 2
fi
repo="$(cd "$(dirname "$0")/.." && pwd)"
rev="$1"
shift
runs=("$@")
# The distinct program names: the build targets.
targets=()
for run in "${runs[@]}"; do
  read -ra words <<< "${run}"
  [[ " ${targets[*]} " == *" ${words[0]} "* ]] || targets+=("${words[0]}")
done
jobs="$(nproc 2>/dev/null || echo 4)"

sha="$(git -C "${repo}" rev-parse --verify "${rev}^{commit}")"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/stdout_identity.XXXXXX")"
trap 'rm -rf "${tmp}"' EXIT

build() {
  local src="$1" dir="$2"
  echo "=== build: ${dir}" >&2
  cmake -B "${dir}" -S "${src}" >/dev/null
  cmake --build "${dir}" -j "${jobs}" --target "${targets[@]}" >/dev/null
}

git -C "${repo}" archive "${sha}" | tar -x -C "${tmp}"
build "${tmp}" "${tmp}/build"
build "${repo}" "${repo}/build-identity"

# Runs the <run> operand $2 from the build in $1, stdout to $3.txt and
# output files (@OUT@) under the directory $3, and sets `wall` to its
# wall time in seconds (one decimal).
run_one() {
  local dir="$1" out="$3" words start tenths
  read -ra words <<< "${2//@OUT@/${out}}"
  mkdir -p "${out}"
  local exe="${dir}/bench/${words[0]}"
  [[ -x "${exe}" ]] || exe="${dir}/examples/${words[0]}"
  start="$(date +%s%N)"
  "${exe}" "${words[@]:1}" > "${out}.txt"
  tenths=$(( ($(date +%s%N) - start + 50000000) / 100000000 ))
  wall="$((tenths / 10)).$((tenths % 10))"
}

same=0
i=0
for run in "${runs[@]}"; do
  i=$((i + 1))
  run_one "${tmp}/build" "${run}" "${tmp}/${i}.rev"
  rev_wall="${wall}"
  run_one "${repo}/build-identity" "${run}" "${tmp}/${i}.tree"
  if diff -u --label "${run}@${rev}" --label "${run}@tree" \
       "${tmp}/${i}.rev.txt" "${tmp}/${i}.tree.txt" >&2 &&
     diff -r "${tmp}/${i}.rev" "${tmp}/${i}.tree" >&2; then
    echo "IDENTICAL ${run} ${rev_wall} s -> ${wall} s"
    same=$((same + 1))
  else
    echo "DIFFERS   ${run} ${rev_wall} s -> ${wall} s"
  fi
done
echo "${same}/${#runs[@]} byte-identical against ${rev} (${sha:0:12})"
[[ "${same}" -eq "${#runs[@]}" ]]
