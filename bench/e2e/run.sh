#!/usr/bin/env bash
# The store's end-to-end benchmark: builds the library and e2e_bench from
# this checkout's sources, runs the workloads, checks every run against the
# oracle and prints every metric by name and unit. See bench/e2e/README.md.
#
# One workload, one process (the last stdout line is the JSON result):
#   bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# All four workloads, one process each, rows collected in one file:
#   bench/e2e/run.sh [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#                    [--out FILE] [--compare BASE.json]
#     --trace    only the untraced (0) or only the traced (1) run; both
#                by default
#     --smoke    about 10 s in all: small stores, 1 s each, untraced
#     --out      where the rows go (default .bench_build/e2e/BENCH_e2e.json)
#     --compare  judge the new untraced rows against BASE.json with the
#                bounds in BENCHMARK.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build=".bench_build/e2e"
workloads=(hot_get cold_read durable_write bursty_mixed)

workload=""
seed=1
seconds=12
traces=""
smoke=0
out="$build/BENCH_e2e.json"
base=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) traces="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --out) out="$2"; shift 2 ;;
    --compare) base="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

# ---- build (quiet unless it fails; stdout stays for the results)
mkdir -p "$build"
if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  if ! cmake -S bench/e2e -B "$build" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release >"$build/configure.log" 2>&1; then
    cat "$build/configure.log" >&2
    rm -f "$build/CMakeCache.txt"
    exit 1
  fi
fi
if ! cmake --build "$build" -j "$(nproc)" >"$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  exit 1
fi
bin="$build/e2e_bench"
mkdir -p "$build/data"

sha="unknown"
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
  sha="$(git -C "$root" rev-parse --short=12 HEAD)"
  if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
    sha="$sha+dirty"
  fi
fi
export E2E_GIT_SHA="$sha"

# ---- one workload: the form BENCHMARK.json's command takes
if [ -n "$workload" ]; then
  extra=()
  if [ "${traces:-0}" = "1" ]; then extra=(--spans "$build/spans-$workload.json"); fi
  exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "${traces:-0}" --data "$build/data" "${extra[@]}"
fi

# ---- every workload, one process each
smoke_args=()
if [ "$smoke" = "1" ]; then
  seconds=1
  smoke_args=(--smoke)
  traces="${traces:-0}"
fi
rows=()
status=0
mkdir -p "$build/rows"
for t in ${traces:-0 1}; do
  for w in "${workloads[@]}"; do
    row="$build/rows/$w-trace$t.json"
    rm -f "$row"
    extra=()
    if [ "$t" = "1" ]; then extra=(--spans "$build/spans-$w.json"); fi
    echo "== $w (trace $t)"
    if ! "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" \
        --trace "$t" --data "$build/data" --row "$row" \
        "${smoke_args[@]}" "${extra[@]}"; then
      echo "run.sh: $w (trace $t) failed" >&2
      status=1
    fi
    if [ -f "$row" ]; then rows+=("$row"); fi
  done
done
python3 bench/e2e/compare.py merge "$out" "${rows[@]}"
echo "rows: $out"
if [ "$status" != "0" ]; then exit "$status"; fi
if [ -n "$base" ]; then
  python3 bench/e2e/compare.py compare "$base" "$out" BENCHMARK.json
fi
