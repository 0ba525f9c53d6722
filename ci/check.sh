#!/usr/bin/env bash
# CI entry point: configure, build, test, run the crash-matrix durability
# gate (fault-injected power loss -> recovery -> sf_fsck clean, plus the
# example persistent volume vetted by sf_fsck), exercise the direct
# (O_DIRECT) backend end-to-end where the filesystem supports it (tests +
# example + a tiny out-of-core bench, all skipping gracefully otherwise),
# run the hot-path bench over both in-memory-capable backends and the
# multi-threaded read bench, gating on ns/op regressions, run the object
# cache tier's tests + tiny bench, run the generated-workload differential
# harness (seed-matrix oracle + crash fuzz + tiny scenario bench) and diff
# the paper benches against their committed golden stdout (the cache-off
# byte-identity contract), smoke the four-workload end-to-end benchmark
# (bench/e2e), then build with ThreadSanitizer and run the
# buffer-pool, object-cache and concurrent-replay stress tests, and
# finally build with AddressSanitizer + UndefinedBehaviorSanitizer and run
# the full test suite.
#
# Usage: ci/check.sh [build-dir]     (default: build)
#
# This is exactly the ROADMAP tier-1 command plus the perf-trajectory and
# concurrency stages; run it locally before pushing.
#
# Perf gates:
#   * hot-path: the mem-backend run is compared against the committed
#     reference BENCH_hotpath.json at the repo root and FAILS when any
#     benchmark regresses by more than STARFISH_MAX_REGRESS_PCT (default
#     25) percent ns/op. Set STARFISH_SKIP_PERF_GATE=1 to measure without
#     gating (e.g. on a machine unrelated to the one the reference was
#     recorded on — refresh the reference by copying build/BENCH_hotpath.json
#     over the repo-root file).
#   * mt-read 1-thread overhead: bench_mt_read's unlocked single-shard row
#     is diffed against the same hot-path reference at the same percentage
#     (bounds what the sharding refactor costs the paper benches), and its
#     locked row at a generous structural bound (mutexes are tens of ns on
#     a ~7 ns op; the bound catches accidental global locks, not lock cost).
#     When the runner has >= 8 hardware threads the hit-path speedup at 8
#     threads must also reach 3x.
#   * out-of-core ranking: bench_outofcore --gate-ranking fails the build
#     when the direct backend's measured fetch-shape ordering diverges
#     from the Eq.-1 model, or the five-model Table 4/5/6 rankings shift
#     between the mem expectation and the out-of-core direct run. The
#     measured-ms diff against the committed BENCH_outofcore.json engages
#     only with STARFISH_OUTOFCORE_STABLE=1 (rankings are the paper's
#     claim; milliseconds are the runner's hardware).
#
# TSan stage: a second build dir (<build-dir>-tsan) compiled with
# -fsanitize=thread runs the BufferMt stress suites. Skip with
# STARFISH_SKIP_TSAN=1 on toolchains without libtsan.
#
# ASan+UBSan stage: a third build dir (<build-dir>-asan) runs the full
# ctest with -fsanitize=address,undefined -fno-sanitize-recover=undefined.
# Skip with STARFISH_SKIP_ASAN=1 on toolchains without libasan/libubsan.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
MAX_REGRESS="${STARFISH_MAX_REGRESS_PCT:-25}"

echo "== configure =="
cmake -B "$BUILD_DIR" -S "$REPO_ROOT"

echo "== build =="
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== test =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== crash matrix =="
# The durability gate: every FaultVolume fault point during Put/Flush/close
# must recover to the last committed catalog generation with sf_fsck clean,
# and a corrupted generation file must fall back or fail cleanly. The
# FormatVersion suite is the other half of that fallback rule: a directory
# in a format this build does not read (an older volume.meta or catalog
# frame, a pre-generation catalog.sf, a newer frame) must be refused with
# NotSupported and left byte-identical — never fallen back from, migrated
# or taken for a fresh directory. These run in ctest too; the dedicated
# stage keeps the durability signal readable on its own and fails loudly
# before the perf stages.
"$BUILD_DIR/starfish_tests" \
    --gtest_filter='*CrashMatrix*:*CatalogFuzz*:*FormatVersion*:*FsckTest*:*FaultVolume*'

echo "== WAL crash matrix =="
# The multi-writer durability gate: concurrent writers + power loss at
# every log-append/log-sync/checkpoint fault point (including torn log
# tails) must recover every acknowledged commit; torn-tail replay is swept
# at every record boundary across all five models. These run in ctest too;
# like the volume matrix above, the dedicated stage keeps the WAL signal
# loud and self-contained.
"$BUILD_DIR/starfish_tests" \
    --gtest_filter='*WalCrash*:*WalReplay*:*WalFormat*:*RecordManagerMt*'

echo "== transactions + parallel segment applies =="
# The write-arc stage: multi-op transaction semantics (commit, rollback,
# destructor auto-rollback, Flush refusal while open), the txn crash
# matrix (crash between kTxnBegin and kTxnCommit, rollback racing a
# reader's held objcache entry) and the striped direct-model parallel
# apply tests — then a tiny smoke of bench_wal's apply-scaling and txn
# latency sections (--tiny leaves BENCH_wal.json untouched).
"$BUILD_DIR/starfish_tests" --gtest_filter='*Txn*:*ParallelApply*:*Striped*'
(cd "$BUILD_DIR" && ./bench_wal --txn --tiny)

echo "== WAL recovery example + fsck over the post-crash store =="
# A REAL process crash, not an injected fault: the example checkpoints 300
# readings, logs 200 more under wal_sync=always, and _exit()s. sf_fsck must
# pass on the raw crash image (valid log tail past the checkpoint), the
# recover run must replay all 200 acknowledged puts byte-for-byte, and
# sf_fsck must pass again after the recovery checkpoint.
WAL_DIR="$BUILD_DIR/wal_crash_example"
rm -rf "$WAL_DIR"
"$BUILD_DIR/example_wal_recovery" crash "$WAL_DIR" > /dev/null
"$BUILD_DIR/sf_fsck" "$WAL_DIR"
"$BUILD_DIR/example_wal_recovery" recover "$WAL_DIR" > /dev/null
"$BUILD_DIR/sf_fsck" "$WAL_DIR"

echo "== WAL commit-latency bench =="
# Commit latency vs writer count x sync policy over the mmap backend
# (emits BENCH_wal.json). Ungated: fsync latency is runner hardware;
# archive the artifact and watch the trend until the numbers stabilize.
(cd "$BUILD_DIR" && ./bench_wal)

echo "== fsck over the example persistent volume =="
# Drive the real persistent store end-to-end (create, reopen) and vet the
# directory with the offline checker; the example exits non-zero unless
# sf_fsck reports zero inconsistencies.
EXAMPLE_DIR="$BUILD_DIR/persist_example"
rm -rf "$EXAMPLE_DIR"
"$BUILD_DIR/example_persistent_volume" "$EXAMPLE_DIR" > /dev/null
"$BUILD_DIR/example_persistent_volume" "$EXAMPLE_DIR" > /dev/null
"$BUILD_DIR/sf_fsck" "$EXAMPLE_DIR"

echo "== direct (O_DIRECT) backend =="
# The real-device backend: conformance + crash matrix run inside ctest too;
# this stage re-runs them loudly, then drives the example + sf_fsck over
# O_DIRECT and a tiny out-of-core smoke. Every piece skips gracefully when
# the runner's filesystem rejects O_DIRECT (tmpfs/overlayfs): the tests
# GTEST_SKIP, the example exits 3, and bench_outofcore records
# "direct_skipped": true in its JSON.
"$BUILD_DIR/starfish_tests" --gtest_filter='*Direct*:*direct*'
EXAMPLE_DIR_DIRECT="$BUILD_DIR/persist_example_direct"
rm -rf "$EXAMPLE_DIR_DIRECT"
direct_rc=0
"$BUILD_DIR/example_persistent_volume" "$EXAMPLE_DIR_DIRECT" direct \
    > /dev/null || direct_rc=$?
if [[ "$direct_rc" -eq 0 ]]; then
  "$BUILD_DIR/example_persistent_volume" "$EXAMPLE_DIR_DIRECT" direct \
      > /dev/null
  "$BUILD_DIR/sf_fsck" "$EXAMPLE_DIR_DIRECT"
elif [[ "$direct_rc" -eq 3 ]]; then
  echo "direct example skipped: no O_DIRECT support on this filesystem"
else
  echo "direct example FAILED (exit $direct_rc)"
  exit "$direct_rc"
fi

echo "== out-of-core bench (tiny smoke, ranking-gated) =="
# Modelled-vs-measured ms per access mix over mmap + direct (emits
# BENCH_outofcore.json), PLUS the PR 8 sections: per-thread-ring scaling
# rows at 1/2/4 submitters (completion-driven PrefetchStream, and so one
# io_uring ring, per thread) and the five-model
# out-of-core reproduction (Table 4/5/6 fetch-shape rankings must match
# the in-memory expectation). --gate-ranking FAILS the build when the
# direct backend's measured ranking diverges from the Eq.-1 model or the
# model rankings shift out-of-core; everything direct skips gracefully on
# filesystems without O_DIRECT. The measured-ms gate against the committed
# reference BENCH_outofcore.json engages only on runners marked stable
# (STARFISH_OUTOFCORE_STABLE=1) — wall milliseconds are hardware, rankings
# are the paper's claim.
OOC_ARGS=(--tiny --threads 4 --models --gate-ranking)
if [[ "${STARFISH_OUTOFCORE_STABLE:-0}" == "1" ]]; then
  OOC_ARGS+=(--compare "$REPO_ROOT/BENCH_outofcore.json"
             --max-regress "$MAX_REGRESS")
fi
(cd "$BUILD_DIR" && ./bench_outofcore "${OOC_ARGS[@]}")

echo "== object cache =="
# The assembled-object cache tier: unit + store-level + crash-safety tests,
# the object-image codec its entries are stored in, and the read-path
# shape tests (one chained call per cold Get, cache on
# and off) run loudly (they run in ctest too), then a tiny skewed-Get
# sweep over all five models x both backends x enabled/disabled (emits
# BENCH_objcache.json;
# archived ungated — speedups are runner hardware, the full-size run's
# hot-mix speedup is the acceptance number).
"$BUILD_DIR/starfish_tests" \
    --gtest_filter='*ObjCache*:*ObjectCache*:*ObjectImage*:*ReadPathPrefetch*'
(cd "$BUILD_DIR" && ./bench_objcache --tiny)

echo "== workload: generated-scenario differential harness =="
# The OCB-style workload subsystem: trace format + generator invariants,
# the 20-seed differential matrix (every read and the final state byte-
# compared against the in-memory oracle across all five models x mem/mmap
# x objcache on/off), the objcache negative-caching/epoch coverage, and
# the generated-trace crash fuzz. All run in ctest too; the dedicated
# stage keeps the divergence signal loud, and any failure prints the
# STARFISH_SEED that reproduces it. Then bench_scenarios replays every
# scenario family over the config matrix (emits BENCH_scenarios.json,
# archived ungated — each cell's verified guard replay is the gate).
"$BUILD_DIR/starfish_tests" --gtest_filter='*ScenarioTrace*:*Workload*'
(cd "$BUILD_DIR" && ./bench_scenarios --tiny)

echo "== paper benches byte-identical with the cache tier disabled =="
# The 14 paper benches never construct an object cache (objcache.enabled
# defaults to false, and they drive the models/engine directly), so their
# stdout must match the committed goldens byte for byte. A diff here means
# the cache tier leaked into the measured paper pipeline — exactly what
# StoreOptions::objcache.enabled=false promises cannot happen.
PAPER_BENCHES=(bench_table2_sizes bench_table3_analytic bench_table4_page_ios
               bench_table5_io_calls bench_table6_buffer_fixes
               bench_table7_skew bench_table8_overall bench_fig5_object_size
               bench_fig6_cache bench_ablation_buffer bench_ablation_index
               bench_ablation_pagesize bench_ablation_scan_pushdown
               bench_ablation_skew_nodes)
for b in "${PAPER_BENCHES[@]}"; do
  (cd "$BUILD_DIR" && "./$b" 2>/dev/null) | \
      diff -u "$REPO_ROOT/bench/golden/$b.txt" - || {
    echo "paper bench $b diverged from its committed golden stdout"
    exit 1
  }
done
echo "all ${#PAPER_BENCHES[@]} paper benches byte-identical"

echo "== end-to-end benchmark (smoke) =="
# The four bench/e2e workloads on small stores, 1 s each, untraced. Each
# run is checked against the workload oracle and fails the stage on a
# failed op or a digest mismatch. run.sh builds its own copy of the
# library into .bench_build/e2e, falls back from O_DIRECT to mmap where
# the filesystem refuses it (the row records the backend used), and
# writes the rows to .bench_build/e2e/BENCH_e2e.json. Archived ungated:
# smoke-sized numbers are not comparable with the committed reference.
"$REPO_ROOT/bench/e2e/run.sh" --smoke

echo "== hot-path bench (mem backend) =="
# Emits BENCH_hotpath.json into the build dir; archive it from CI to watch
# the perf trajectory across PRs.
if [[ "${STARFISH_SKIP_PERF_GATE:-0}" == "1" ]]; then
  (cd "$BUILD_DIR" && ./bench_hotpath_buffer --backend mem)
else
  (cd "$BUILD_DIR" && ./bench_hotpath_buffer --backend mem \
      --compare "$REPO_ROOT/BENCH_hotpath.json" --max-regress "$MAX_REGRESS")
fi

echo "== hot-path bench (mmap backend) =="
# The mmap backend runs the same loops over memory-mapped extent files
# (emits BENCH_hotpath_mmap.json). Not gated: kernel page-cache behaviour
# is machine-dependent; the numbers are archived for trend-watching.
(cd "$BUILD_DIR" && ./bench_hotpath_buffer --backend mmap)

echo "== mt-read bench (mem backend) =="
# Multi-threaded read-path scaling + the 1-thread sharding-overhead gate
# (emits BENCH_mt_read.json). The speedup assertion only engages where the
# hardware can deliver it.
# Seed the array so it is never empty: expanding an empty array under
# `set -u` aborts on bash < 4.4 (e.g. the macOS system bash).
MT_ARGS=(--backend mem)
if [[ "${STARFISH_SKIP_PERF_GATE:-0}" != "1" ]]; then
  MT_ARGS+=(--compare-hotpath "$REPO_ROOT/BENCH_hotpath.json"
            --max-regress "$MAX_REGRESS")
  if [[ "$(nproc)" -ge 8 ]]; then
    MT_ARGS+=(--min-speedup 3)
  fi
fi
(cd "$BUILD_DIR" && ./bench_mt_read "${MT_ARGS[@]}")

echo "== mt-read bench (mmap backend) =="
# Archived ungated, like the mmap hot-path run.
(cd "$BUILD_DIR" && ./bench_mt_read --backend mmap)

echo "== mt-read bench (direct backend: per-thread rings) =="
# Raw device read throughput through SubmitReadChained pipelines over
# per-thread io_uring rings at 1/2/4/8 threads (emits
# BENCH_mt_read_direct.json; skip-tolerant without O_DIRECT). Archived
# ungated in CI (no --min-speedup): the committed reference rows document
# how far the device scales on the reference runner.
(cd "$BUILD_DIR" && ./bench_mt_read --backend direct)

if [[ "${STARFISH_SKIP_TSAN:-0}" == "1" ]]; then
  echo "== TSan stress skipped (STARFISH_SKIP_TSAN=1) =="
else
  echo "== TSan build =="
  # Debug keeps assert() (the PageGuard pin-ownership check) live; the
  # option adds -O1 so the instrumented stress tests stay quick.
  cmake -B "$BUILD_DIR-tsan" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Debug \
        -DSTARFISH_TSAN=ON -DSTARFISH_BUILD_BENCHES=OFF \
        -DSTARFISH_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR-tsan" --target starfish_tests -j "$(nproc)"

  echo "== TSan stress tests =="
  # DirectRingMt covers the per-thread io_uring ring registry (threads
  # outliving volumes, registration churn against live rings); it skips
  # inside the TSan build too when the filesystem has no O_DIRECT.
  # ParallelApplyMt drives concurrent writers over disjoint stripes through
  # the per-segment latch path — the race surface the latch push-down added.
  # WorkloadMt replays generated traces with 2/4 workers (batched reads
  # through concurrent sessions, stream-partitioned writes) and must land
  # byte-identical to the sequential replay.
  "$BUILD_DIR-tsan/starfish_tests" \
      --gtest_filter='*BufferMt*:*ShardedDeterminism*:*ObjCacheMt*:*DirectRingMt*:*ParallelApplyMt*:*WorkloadMt*'
fi

if [[ "${STARFISH_SKIP_ASAN:-0}" == "1" ]]; then
  echo "== ASan+UBSan skipped (STARFISH_SKIP_ASAN=1) =="
else
  echo "== ASan+UBSan build =="
  # A third build dir (<build-dir>-asan): the whole library and test suite
  # under -fsanitize=address,undefined, with every UBSan report fatal.
  # RelWithDebInfo keeps it fast and LTO-free; benches and examples are
  # left out (the paper goldens already run above).
  cmake -B "$BUILD_DIR-asan" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSTARFISH_ASAN_UBSAN=ON -DSTARFISH_BUILD_BENCHES=OFF \
        -DSTARFISH_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR-asan" --target starfish_tests -j "$(nproc)"

  echo "== ASan+UBSan: full ctest =="
  # Every test, including the object-image decoder's truncation, count-
  # overflow and byte-flip cases and the read capture every object-cache
  # miss runs.
  UBSAN_OPTIONS=print_stacktrace=1 \
      ctest --test-dir "$BUILD_DIR-asan" --output-on-failure -j "$(nproc)"
fi

echo "== OK =="
