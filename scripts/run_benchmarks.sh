#!/usr/bin/env bash
# Record the performance trajectory: run the perf-critical benches with
# google-benchmark's JSON reporter and write BENCH_<name>.json at the repo
# root. Diff those files across commits to see hot-path regressions.
#
#   scripts/run_benchmarks.sh [build_dir] [bench_name...]
#
# With no bench names every bench below runs. The build dir must be a plain
# Release build (cmake -DCMAKE_BUILD_TYPE=Release, no MIFO_SANITIZE, no
# MIFO_COVERAGE): a recorded number must come from the build it claims.
# Each bench records 5 repetitions as google-benchmark's mean / median /
# stddev / cv aggregates.
#
# Environment knobs: MIFO_TOPO_N, MIFO_FLOWS, MIFO_DEST_POOL, MIFO_ARRIVAL,
# MIFO_SEED, MIFO_THREADS (see bench/bench_common.hpp and EXPERIMENTS.md).
set -euo pipefail

build_dir="${1:-build}"
shift || true
repo_root="$(cd "$(dirname "$0")/.." && pwd)"

cache="${build_dir}/CMakeCache.txt"
if [ ! -f "$cache" ]; then
  echo "no ${cache}: configure first (cmake -B ${build_dir} -S ." \
       "-DCMAKE_BUILD_TYPE=Release)" >&2
  exit 1
fi
if ! grep -qx 'CMAKE_BUILD_TYPE:STRING=Release' "$cache"; then
  echo "${build_dir} is not a Release build; reconfigure with" \
       "-DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi
if grep -q '^MIFO_SANITIZE:STRING=.' "$cache" ||
   grep -qx 'MIFO_COVERAGE:BOOL=ON' "$cache"; then
  echo "${build_dir} is instrumented (MIFO_SANITIZE or MIFO_COVERAGE);" \
       "record from a plain Release build" >&2
  exit 1
fi

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
if [ "$#" -gt 0 ]; then
  benches=("$@")
fi

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
         --benchmark_format=console \
         --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
done
