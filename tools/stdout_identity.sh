#!/usr/bin/env bash
# Stdout-identity check: builds the bench programs of git revision <rev>
# and of the working tree, runs each named bench from both builds with
# no arguments, and diffs their stdout. Fault-free runs are
# deterministic, so any difference is a behaviour (or virtual-time)
# change.
#
# Usage: tools/stdout_identity.sh <rev> <bench>...
#   e.g. tools/stdout_identity.sh HEAD~ bench_fig3_latency bench_fig9_rmw
#
# <rev> is exported with `git archive` into a temporary directory
# (under $TMPDIR, removed on exit) and built there; the working tree
# builds into build-identity/ at the repo root. Exits 0 when every
# bench's stdout is byte-identical, 1 otherwise.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <rev> <bench>..." >&2
  exit 2
fi
repo="$(cd "$(dirname "$0")/.." && pwd)"
rev="$1"
shift
benches=("$@")
jobs="$(nproc 2>/dev/null || echo 4)"

sha="$(git -C "${repo}" rev-parse --verify "${rev}^{commit}")"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/stdout_identity.XXXXXX")"
trap 'rm -rf "${tmp}"' EXIT

build() {
  local src="$1" dir="$2"
  echo "=== build: ${dir}" >&2
  cmake -B "${dir}" -S "${src}" >/dev/null
  cmake --build "${dir}" -j "${jobs}" --target "${benches[@]}" >/dev/null
}

git -C "${repo}" archive "${sha}" | tar -x -C "${tmp}"
build "${tmp}" "${tmp}/build"
build "${repo}" "${repo}/build-identity"

same=0
for bench in "${benches[@]}"; do
  "${tmp}/build/bench/${bench}" > "${tmp}/${bench}.rev.txt"
  "${repo}/build-identity/bench/${bench}" > "${tmp}/${bench}.tree.txt"
  if diff -u --label "${bench}@${rev}" --label "${bench}@tree" \
       "${tmp}/${bench}.rev.txt" "${tmp}/${bench}.tree.txt" >&2; then
    echo "IDENTICAL ${bench}"
    same=$((same + 1))
  else
    echo "DIFFERS   ${bench}"
  fi
done
echo "${same}/${#benches[@]} byte-identical against ${rev} (${sha:0:12})"
[[ "${same}" -eq "${#benches[@]}" ]]
