#!/usr/bin/env bash
# Reproducible hot-path benchmark run.
#
# Builds the workspace in release mode, runs the criterion microbenchmarks
# (human-readable), then the sim_core differential benchmark, which writes
# BENCH_sim_core.json at the repository root: events/sec, multicasts/sec,
# and queue ops/sec for the optimized simulator paths vs baselines with
# the pre-refactor costs, plus a peak-RSS proxy. The
# parallel_regions workload sweeps the sharded engine over shard counts
# 1/2/4/8 on a 32-region / 2048-member topology (events/sec per count on
# stderr; the JSON records 4 shards vs the sequential shards=1 oracle,
# guarded warn-only like every workload).
#
# If a committed BENCH_sim_core.json baseline exists, the run finishes
# with the bench_guard regression check: any workload whose speedup fell
# below 0.9x of the recorded value is flagged. The guard warns by default
# (wall-clock benches are noisy on shared machines); set
# BENCH_GUARD_STRICT=1 to make any regression fail this script, set
# BENCH_GUARD_ENFORCE=a,b,c to hard-fail only those workloads (CI gates
# queue_ops,multicast_fanout,delivered_query this way), or
# BENCH_GUARD_SKIP=1 to skip it (CI runs the guard as its own step).
#
# BENCH_MEMBERS=N shrinks the million-member scaling workload (members_1m)
# to N members — the run is then recorded under the workload name
# members_scale so a reduced smoke run can never silently overwrite the
# flagship members_1m numbers. BENCH_MEMBERS_ONLY=1 runs only the scaling
# workload (the CI members_scale smoke job uses both).
#
# The run finishes with the runtime_udp benchmark: real loopback sockets,
# one process hosting BENCH_RUNTIME_MEMBERS group members (default 2000)
# on 1/2/4 event-loop threads, writing BENCH_runtime_udp.json (end-to-end
# deliveries/sec, pooled-vs-unpooled receive, pool statistics). Its
# committed baseline gets the same bench_guard treatment. Set
# BENCH_RUNTIME_SKIP=1 to skip this section (e.g. sandboxes without
# loopback sockets).
#
# Usage: scripts/bench.sh [output.json] [runtime-output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_sim_core.json}"
RUNTIME_OUT="${2:-BENCH_runtime_udp.json}"

SIM_FLAGS=()
if [[ -n "${BENCH_MEMBERS:-}" ]]; then
  SIM_FLAGS+=("--members=${BENCH_MEMBERS}")
fi
if [[ "${BENCH_MEMBERS_ONLY:-0}" == "1" ]]; then
  SIM_FLAGS+=("--members-only")
fi

# Snapshot the committed baselines before (possibly) overwriting them.
BASELINE_SNAPSHOT=""
RUNTIME_BASELINE_SNAPSHOT=""
trap 'rm -f "$BASELINE_SNAPSHOT" "$RUNTIME_BASELINE_SNAPSHOT"' EXIT
if [[ -f BENCH_sim_core.json ]]; then
  BASELINE_SNAPSHOT="$(mktemp)"
  cp BENCH_sim_core.json "$BASELINE_SNAPSHOT"
fi
if [[ -f BENCH_runtime_udp.json ]]; then
  RUNTIME_BASELINE_SNAPSHOT="$(mktemp)"
  cp BENCH_runtime_udp.json "$RUNTIME_BASELINE_SNAPSHOT"
fi

echo "== criterion microbenchmarks (micro_core) =="
cargo bench -p rrmp-bench --bench micro_core

echo
echo "== sim_core differential benchmark =="
cargo run --release -p rrmp-bench --bin sim_core_bench "$OUT" ${SIM_FLAGS[@]+"${SIM_FLAGS[@]}"}

echo "wrote $OUT"

GUARD_FLAGS="--warn-only"
if [[ "${BENCH_GUARD_STRICT:-0}" == "1" ]]; then
  GUARD_FLAGS=""
fi
if [[ -n "${BENCH_GUARD_ENFORCE:-}" ]]; then
  GUARD_FLAGS="$GUARD_FLAGS --enforce=${BENCH_GUARD_ENFORCE}"
fi

if [[ -n "$BASELINE_SNAPSHOT" && "${BENCH_GUARD_SKIP:-0}" != "1" ]]; then
  echo
  echo "== bench_guard: fresh speedups vs committed baseline =="
  # shellcheck disable=SC2086
  cargo run --release -p rrmp-bench --bin bench_guard "$OUT" "$BASELINE_SNAPSHOT" $GUARD_FLAGS
fi

if [[ "${BENCH_RUNTIME_SKIP:-0}" != "1" ]]; then
  echo
  echo "== runtime_udp multiplexed-runtime benchmark =="
  RUNTIME_FLAGS=()
  if [[ -n "${BENCH_RUNTIME_MEMBERS:-}" ]]; then
    RUNTIME_FLAGS+=("--members=${BENCH_RUNTIME_MEMBERS}")
  fi
  cargo run --release -p rrmp-bench --bin runtime_udp_bench -- \
    "--out=${RUNTIME_OUT}" ${RUNTIME_FLAGS[@]+"${RUNTIME_FLAGS[@]}"}
  echo "wrote $RUNTIME_OUT"

  if [[ -n "$RUNTIME_BASELINE_SNAPSHOT" && "${BENCH_GUARD_SKIP:-0}" != "1" ]]; then
    echo
    echo "== bench_guard: runtime_udp speedups vs committed baseline =="
    # The runtime workloads are wall-clock socket benchmarks — noisier
    # than the simulator's, so BENCH_GUARD_ENFORCE applies to them only
    # if explicitly named there.
    # shellcheck disable=SC2086
    cargo run --release -p rrmp-bench --bin bench_guard \
      "$RUNTIME_OUT" "$RUNTIME_BASELINE_SNAPSHOT" $GUARD_FLAGS
  fi
fi
