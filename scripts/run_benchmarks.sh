#!/usr/bin/env bash
# Record the performance trajectory: run the perf-critical benches with
# google-benchmark's JSON reporter and write BENCH_<name>.json at the repo
# root. Diff those files across commits to see hot-path regressions.
#
#   scripts/run_benchmarks.sh [build_dir]
#
# Environment knobs: MIFO_TOPO_N, MIFO_FLOWS, MIFO_DEST_POOL, MIFO_ARRIVAL,
# MIFO_SEED, MIFO_THREADS (see bench/bench_common.hpp and EXPERIMENTS.md).
set -euo pipefail

build_dir="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"

# Perf runs track timings, not figure outputs: suppress run-artifact JSON
# emission unless the caller asks for it.
export MIFO_ARTIFACT_DIR="${MIFO_ARTIFACT_DIR:--}"

benches=(
  bench_maxmin
  bench_sharded_plane
  bench_verify_incremental
  bench_route_delta
  bench_steady_state
)

for name in "${benches[@]}"; do
  bin="${build_dir}/bench/${name}"
  if [ ! -x "$bin" ]; then
    echo "missing ${bin} — build first (cmake --build ${build_dir} -j)" >&2
    exit 1
  fi
  out="${repo_root}/BENCH_${name}.json"
  echo "### ${name} -> ${out}"
  # The figure tables print to stdout; keep the JSON clean via benchmark_out.
  "$bin" --benchmark_out="$out" --benchmark_out_format=json \
         --benchmark_format=console
done
