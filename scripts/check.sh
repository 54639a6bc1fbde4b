#!/usr/bin/env bash
# Full verification: the tier-1 suite in the default build, the end-to-end
# benchmark's self-test, example smoke tests (including run-artifact schema
# validation), the static
# forwarding-state verifier (tools/mifo-verify, docs/VERIFICATION.md), the
# clang-tidy pass (scripts/lint.sh — skipped when LLVM is absent), then the
# concurrency-sensitive tests once under ThreadSanitizer, the whole suite
# once under UBSan (MIFO_SANITIZE; see the top-level CMakeLists), the
# verify/chaos/topo suites under ASan+UBSan, and the gcov coverage leg
# (scripts/coverage.sh; MIFO_SKIP_COVERAGE=1 to skip).
#
#   scripts/check.sh [build_dir] [tsan_build_dir] [ubsan_build_dir] [cov_dir]
#                    [asan_build_dir]
set -euo pipefail

build_dir="${1:-build}"
tsan_dir="${2:-build-tsan}"
ubsan_dir="${3:-build-ubsan}"
asan_dir="${5:-build-asan}"
jobs="$(nproc)"

echo "=== tier-1: build + ctest (${build_dir}) ==="
cmake -B "$build_dir" -S .
cmake --build "$build_dir" -j "$jobs"
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

echo "=== e2ebench: benchmark self-test (e2ebench/selftest.py) ==="
# The benchmark compiles src/ as a package of its own and links its targets
# by name, so a src/ build change can break it without failing tier-1.
python3 e2ebench/selftest.py

echo "=== examples: smoke tests + artifact validation ==="
artifact_dir="$(mktemp -d)"
trap 'rm -rf "$artifact_dir"' EXIT

"$build_dir"/examples/quickstart > /dev/null
# rib_explorer saves mifo_topology.txt into its cwd; keep that in the tmpdir.
rib_bin="$(cd "$build_dir" && pwd)/examples/rib_explorer"
(cd "$artifact_dir" && "$rib_bin" > /dev/null)
"$build_dir"/examples/convergence_demo 100 > /dev/null
"$build_dir"/examples/testbed_demo 2 4 > /dev/null

# loop_demo must show the two Algorithm-1 moments the paper hinges on:
# the valley-free Tag-Check drop and a detected deflection return.
loop_out="$("$build_dir"/examples/loop_demo)"
grep -q "tag-check-FAIL" <<< "$loop_out"
grep -q "return-detected" <<< "$loop_out"

# A small internet_scale run must emit a parseable, schema-conformant
# run artifact (docs/OBSERVABILITY.md, mifo.run_artifact.v1). The artifact
# checks below share scripts/artifact_schema.py's load(), which asserts the
# schema and bench name.
export PYTHONPATH="$PWD/scripts${PYTHONPATH:+:$PYTHONPATH}"
MIFO_ARTIFACT_DIR="$artifact_dir" MIFO_THREADS=0 \
  "$build_dir"/examples/internet_scale 200 2000 0.5 > /dev/null
python3 - "$artifact_dir/internet_scale.json" <<'PY'
import sys
from artifact_schema import load
a = load(sys.argv[1], "internet_scale")
assert {"topo_n", "flows"} <= a["scale"].keys()
assert len(a["arms"]) == 3, [arm["name"] for arm in a["arms"]]
for arm in a["arms"]:
    assert {"name", "mode", "deploy_ratio", "summary", "drops",
            "utilization"} <= arm.keys(), arm["name"]
    s = arm["summary"]
    assert {"total", "completed", "unreachable", "mean_throughput_mbps",
            "median_throughput_mbps", "frac_at_500mbps",
            "offload"} <= s.keys()
    assert s["completed"] + s["unreachable"] <= s["total"]
    assert arm["utilization"], "empty utilization series"
    for smp in arm["utilization"]:
        assert {"t", "mean_util", "max_util", "frac_congested",
                "total_spare_mbps", "active_flows"} <= smp.keys()
assert a["metrics"], "metrics snapshot missing"
for m in a["metrics"]:
    assert {"name", "kind", "value"} <= m.keys() or "bins" in m, m
print(f"artifact OK: {len(a['arms'])} arms, "
      f"{len(a['arms'][0]['utilization'])} samples, "
      f"{len(a['metrics'])} metrics")
PY

echo "=== mifo-verify: static loop-freedom proofs ==="
# The rib_explorer topology dump from the smoke test above, plus a fresh
# power-law topology, must both verify LOOP-FREE and lint-clean.
"$build_dir"/tools/mifo-verify -q --topo "$artifact_dir/mifo_topology.txt" \
  --dests 4
"$build_dir"/tools/mifo-verify -q --gen 300 --seed 11 --dests 8
# Negative control: a planted Eq.3 violation must be caught with a concrete
# router-level counterexample cycle (nonzero exit).
if mutated_out="$("$build_dir"/tools/mifo-verify --gen 120 --seed 7 \
    --dests 4 --mutate-valley)"; then
  echo "mifo-verify missed the planted cycle"
  exit 1
fi
grep -q "COUNTEREXAMPLE" <<< "$mutated_out"
grep -q "verdict: CYCLE-FOUND" <<< "$mutated_out"
# Incremental mode (docs/VERIFICATION.md): the warm pass must be pure
# cache on an unchanged deployment and the built-in differential pass must
# report verdicts identical to the from-scratch full provers.
inc_out="$("$build_dir"/tools/mifo-verify --gen 120 --seed 7 --dests 4 \
  --incremental)"
grep -q "cache hits" <<< "$inc_out"
grep -q "differential: incremental verdicts identical" <<< "$inc_out"
# Negative control: a planted forwarding blackhole (FIB entry evicted at a
# router its neighbor still forwards to) must be caught with a concrete
# witness walk (nonzero exit).
if bh_out="$("$build_dir"/tools/mifo-verify --gen 120 --seed 7 --dests 4 \
    --mutate-blackhole)"; then
  echo "mifo-verify missed the planted blackhole"
  exit 1
fi
grep -q "blackhole\[no-route\]" <<< "$bh_out"
grep -q "verdict: BLACKHOLE-FOUND" <<< "$bh_out"
# Hostile topologies: a provider cycle is outside the loop-freedom
# theorem's premise and must be refused (exit 2, never LOOP-FREE); a line
# topo::parse rejects is an input error (exit 1) naming the line.
printf '0 1 p2c\n1 2 p2c\n2 0 p2c\n' > "$artifact_dir/pc_cycle.txt"
printf '0 1 p2c\n1 2 sibling\n' > "$artifact_dir/bad_kind.txt"
rc=0
cycle_out="$("$build_dir"/tools/mifo-verify --topo \
  "$artifact_dir/pc_cycle.txt" --dests 2)" || rc=$?
[[ $rc -eq 2 ]] || { echo "mifo-verify: provider cycle exit $rc"; exit 1; }
grep -q "verdict: PREMISE-VIOLATED" <<< "$cycle_out"
rc=0
cycle_out="$("$build_dir"/tools/mifo-chaos --topo \
  "$artifact_dir/pc_cycle.txt" --gen -q)" || rc=$?
[[ $rc -eq 2 ]] || { echo "mifo-chaos: provider cycle exit $rc"; exit 1; }
grep -q "verdict: PREMISE-VIOLATED" <<< "$cycle_out"
rc=0
kind_err="$("$build_dir"/tools/mifo-verify --topo \
  "$artifact_dir/bad_kind.txt" 2>&1 >/dev/null)" || rc=$?
[[ $rc -eq 1 ]] || { echo "mifo-verify: unknown link kind exit $rc"; exit 1; }
grep -q "line 2: unknown link kind 'sibling'" <<< "$kind_err"
# A malformed numeric flag is an input error naming the flag (exit 1), not a
# silently truncated value (`--seed abc` once verified with seed 0).
rc=0
flag_err="$("$build_dir"/tools/mifo-verify --gen 40 --seed abc 2>&1 \
  >/dev/null)" || rc=$?
[[ $rc -eq 1 ]] || { echo "mifo-verify: malformed --seed exit $rc"; exit 1; }
grep -q -- "--seed: invalid value 'abc'" <<< "$flag_err"
echo "verifier OK: both topologies proved loop-free, incremental mode" \
     "agreed with the full provers, planted cycle and blackhole caught," \
     "provider cycle, unknown link kind and malformed flag refused"

echo "=== mifo-chaos: safety under churn (docs/CHAOS.md) ==="
# A randomized chaos run must end SAFE-UNDER-CHURN (exit 0) and emit a
# schema-valid chaos artifact...
MIFO_ARTIFACT_DIR="$artifact_dir" \
  "$build_dir"/tools/mifo-chaos --gen --ases 36 --seed 5 --duration 0.8 \
  --flows 24 > /dev/null
python3 - "$artifact_dir/chaos_run.json" <<'PY'
import sys
from artifact_schema import load
a = load(sys.argv[1], "chaos_run")
assert {"topo_n", "flows", "seed"} <= a["scale"].keys()
c = a["chaos"]
assert c["safe"] is True
assert c["checks_run"] == c["checks_clean"] > 0
assert c["violations"] == []
assert c["events"], "empty event log"
assert c["events_applied"] > 0
for ev in c["events"]:
    assert {"t", "kind", "applied", "clean_immediate",
            "clean_reconverged"} <= ev.keys(), ev
latencies = [ev["recovery_latency"] for ev in c["events"]
             if "recovery_latency" in ev]
assert latencies and all(l >= 0 for l in latencies), latencies
assert {"drops", "metrics"} <= a.keys()
# Flight-recorder sections (docs/OBSERVABILITY.md): structured fault spans,
# the per-class recovery-latency table, the merged cross-shard timeline, and
# the top-congested-links snapshot.
spans = c["spans"]
assert spans and len(spans) == c["events_applied"], len(spans)
for sp in spans:
    assert {"event_index", "kind", "t_injected"} <= sp.keys(), sp
    if "t_first_impact" in sp:
        assert sp["t_first_impact"] >= sp["t_injected"], sp
    if "t_verified" in sp:
        assert sp["t_verified"] >= sp.get("t_reconverged",
                                          sp["t_injected"]), sp
rbc = c["recovery_by_class"]
assert rbc, "empty recovery_by_class"
for kind, row in rbc.items():
    assert row["count"] > 0 and row["min_s"] <= row["mean_s"] <= \
        row["max_s"], (kind, row)
tl = a["timeline"]
assert tl["events"], "empty merged timeline"
epochs = [ev["epoch"] for ev in tl["events"]]
assert epochs == sorted(epochs), "timeline not epoch-monotone"
assert a["links"], "empty congested-links snapshot"
for ln in a["links"]:
    assert {"router", "port", "bytes_sent"} <= ln.keys(), ln
print(f"chaos artifact OK: {c['events_applied']} events, "
      f"{c['checks_run']} clean snapshots, "
      f"{len(latencies)} recovery latencies, {len(spans)} spans, "
      f"{len(tl['events'])} timeline events")
PY
# ...bit-reproducibly: the same (topology, seed, plan) gives the same bytes.
mv "$artifact_dir/chaos_run.json" "$artifact_dir/chaos_run.first.json"
MIFO_ARTIFACT_DIR="$artifact_dir" \
  "$build_dir"/tools/mifo-chaos --gen --ases 36 --seed 5 --duration 0.8 \
  --flows 24 > /dev/null
diff "$artifact_dir/chaos_run.first.json" "$artifact_dir/chaos_run.json"
# Negative control: with a planted Eq.3-violating deflection ring the run
# must turn UNSAFE (exit 2) with a concrete counterexample cycle.
if chaos_out="$(MIFO_ARTIFACT_DIR=- "$build_dir"/tools/mifo-chaos --gen \
    --ases 36 --seed 5 --duration 0.8 --flows 24 --mutate-valley)"; then
  echo "mifo-chaos missed the planted violation"
  exit 1
fi
grep -q "COUNTEREXAMPLE" <<< "$chaos_out"
grep -q "cycle" <<< "$chaos_out"
grep -q "verdict: UNSAFE" <<< "$chaos_out"
# Incremental-vs-full differential gate (docs/VERIFICATION.md): a
# high-churn randomized run (>=100 applied events) in differential mode
# re-proves every snapshot both ways and must see zero divergences. The
# resulting artifact feeds the mifo-trace gates below, so the per-span
# verify-cost columns are exercised there too.
MIFO_ARTIFACT_DIR="$artifact_dir" \
  "$build_dir"/tools/mifo-chaos --gen --ases 36 --seed 5 --duration 3.0 \
  --rate 30 --flows 24 --verify-mode differential -q
python3 - "$artifact_dir/chaos_run.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    a = json.load(f)
c = a["chaos"]
assert c["verify_mode"] == "differential", c["verify_mode"]
assert c["events_applied"] >= 100, c["events_applied"]
assert c["safe"] is True
assert c["differential_mismatches"] == 0, c["differential_mismatches"]
assert c["checks_run"] == c["checks_clean"] > 0
# The proof cache must actually carry the run: most snapshots serve most
# destinations from cache instead of re-proving them.
assert c["total_cache_hits"] > c["total_dirty_destinations"], \
    (c["total_cache_hits"], c["total_dirty_destinations"])
spans = c["spans"]
assert spans and all({"dirty_destinations", "states_explored",
                      "cache_hits"} <= sp.keys() for sp in spans)
# The delta routing table mirrored the churn and the retained from-scratch
# route oracle agreed with every published segment at every snapshot.
assert c["route_events"] > 0, "no routing-plane events in a churn run"
assert c["route_differential_mismatches"] == 0, \
    c["route_differential_mismatches"]
assert c["total_route_recomputed"] > 0
span_recomputed = sum(sp["route_recomputed"] for sp in spans)
span_patched = sum(sp["route_patched"] for sp in spans)
assert span_recomputed == c["total_route_recomputed"]
assert span_patched == c["total_route_patched"]
print(f"chaos differential OK: {c['events_applied']} events, "
      f"{c['checks_run']} snapshots verified both ways, 0 mismatches, "
      f"{c['total_cache_hits']} cache hits vs "
      f"{c['total_dirty_destinations']} re-proofs, "
      f"{c['route_events']} route events delta-maintained clean")
PY
# Negative control for the route oracle: a planted stale route segment
# (delta recompute skipped, stats still claim the work) is invisible to the
# loop/valley/lint provers — only the from-scratch route differential can
# catch it, and it must (exit 2, route-differential counterexample).
if stale_out="$(MIFO_ARTIFACT_DIR=- "$build_dir"/tools/mifo-chaos --gen \
    --ases 36 --seed 5 --duration 0.8 --flows 24 --mutate-stale-route)"; then
  echo "mifo-chaos missed the planted stale route segment"
  exit 1
fi
grep -q "route-differential" <<< "$stale_out"
grep -q "verdict: UNSAFE" <<< "$stale_out"
rc=0
flag_err="$("$build_dir"/tools/mifo-chaos --gen --ases 36 --duration 0.2x \
  2>&1 >/dev/null)" || rc=$?
[[ $rc -eq 1 ]] || { echo "mifo-chaos: malformed --duration exit $rc"; exit 1; }
grep -q -- "--duration: invalid value '0.2x'" <<< "$flag_err"
echo "chaos OK: randomized churn proved safe, reproducible, planted" \
     "violation caught, incremental differential clean, stale route caught," \
     "malformed flag refused"

echo "=== mifo-trace: flight-recorder rendering (docs/OBSERVABILITY.md) ==="
# --check proves the merged timeline is epoch-monotone and every span
# causally ordered (exit 2 otherwise), and the human rendering must be
# byte-reproducible for the same artifact bytes.
"$build_dir"/tools/mifo-trace --check "$artifact_dir/chaos_run.json" \
  > /dev/null
"$build_dir"/tools/mifo-trace "$artifact_dir/chaos_run.json" \
  > "$artifact_dir/trace_render.first.txt"
"$build_dir"/tools/mifo-trace "$artifact_dir/chaos_run.json" \
  > "$artifact_dir/trace_render.second.txt"
diff "$artifact_dir/trace_render.first.txt" \
     "$artifact_dir/trace_render.second.txt"
grep -q "recovery latency by failure class" \
  "$artifact_dir/trace_render.first.txt"
# The differential-mode artifact above carries per-span verify-cost
# accounting; the span table must surface it.
grep -q "dirty" "$artifact_dir/trace_render.first.txt"
grep -q "cached" "$artifact_dir/trace_render.first.txt"
rc=0
flag_err="$("$build_dir"/tools/mifo-trace "$artifact_dir/chaos_run.json" \
  --flow 3x 2>&1 >/dev/null)" || rc=$?
[[ $rc -eq 1 ]] || { echo "mifo-trace: malformed --flow exit $rc"; exit 1; }
grep -q -- "--flow: invalid value '3x'" <<< "$flag_err"
echo "mifo-trace OK: timeline checked, rendering byte-reproducible," \
     "malformed flag refused"

echo "=== sharded plane: sharded-vs-serial differential gate ==="
# The scaling bench doubles as the full-scale differential: every worker
# count must reproduce the serial oracle's outcome digest (per-flow
# completions + drop buckets + conservation totals; DESIGN.md §6). Reduced
# scale here — the committed BENCH_bench_sharded_plane.json carries the
# 1000+-router run.
MIFO_ARTIFACT_DIR="$artifact_dir" MIFO_TOPO_N=64 MIFO_FLOWS=16 \
  "$build_dir"/bench/bench_sharded_plane --benchmark_filter=none > /dev/null
python3 - "$artifact_dir/sharded_plane.json" <<'PY'
import sys
from artifact_schema import load
a = load(sys.argv[1], "sharded_plane")
assert a["scale"]["routers"] > 0
arms = {arm["name"]: arm for arm in a["arms"]}
assert {"serial", "1w", "2w", "4w", "8w"} <= arms.keys(), sorted(arms)
serial = arms["serial"]["outcome_digest"]
for name, arm in arms.items():
    s = arm["summary"]
    assert s["flows_done"] == s["flows_total"] > 0, name
    assert arm["outcome_digest"] == serial, (name, arm["outcome_digest"])
    assert arm["digest_matches_serial"] is True, name
    assert arm["rings"]["overflow"] == 0, name
    # Per-arm drop buckets must agree with the serial oracle (the digest
    # already covers them; this keeps the JSON section honest too). The
    # sharded arms add a ring_overflow bucket the serial plane cannot have.
    common = {k: v for k, v in arm["drops"].items() if k != "ring_overflow"}
    assert common == arms["serial"]["drops"], name
    assert arm["drops"].get("ring_overflow", 0) == 0, name
    # Arms with >=2 workers carry per-ring-pair occupancy stats; serial and
    # the single-worker arm have no cross-shard rings.
    pairs = arm["rings"]["pairs"]
    if name in ("serial", "1w"):
        assert pairs == [], name
    else:
        assert pairs, name
        for p in pairs:
            assert {"from", "to", "pushed", "overflow",
                    "occupancy_peak"} <= p.keys(), (name, p)
            assert p["overflow"] == 0, (name, p)
print(f"sharded differential OK: {len(arms)} arms bit-exact "
      f"({a['scale']['routers']} routers, digest {serial})")
PY

echo "=== incremental verifier: dirty-set cost + differential gate ==="
# Reduced-scale run of the verify-incremental bench (the committed
# BENCH_bench_verify_incremental.json carries the 1269-router figures):
# single-link and single-withdraw events must re-explore >=10x fewer
# states than the full provers, and every arm's incremental verdict must
# match the from-scratch oracle.
MIFO_ARTIFACT_DIR="$artifact_dir" MIFO_TOPO_N=120 \
  "$build_dir"/bench/bench_verify_incremental --benchmark_filter=none \
  > /dev/null
python3 - "$artifact_dir/verify_incremental.json" <<'PY'
import sys
from artifact_schema import load
a = load(sys.argv[1], "verify_incremental")
assert a["scale"]["routers"] > 0 and a["scale"]["destinations"] > 0
assert a["cold"]["destinations"] > 0 and a["cold"]["states_explored"] > 0
arms = {arm["name"]: arm for arm in a["arms"]}
assert {"link_down", "link_down_reconv", "withdraw"} <= arms.keys(), \
    sorted(arms)
for name, arm in arms.items():
    assert {"dirty_destinations", "states_explored", "cache_hits",
            "full_states", "reduction", "differential_match"} <= arm.keys()
    assert arm["differential_match"] is True, name
    assert arm["dirty_destinations"] + arm["cache_hits"] == \
        a["cold"]["destinations"], name
# The headline claims: a pure link event dirties nothing (the deflection
# graph never reads port state) and a single withdrawal stays local.
assert arms["link_down"]["dirty_destinations"] == 0
assert arms["link_down"]["reduction"] >= 10, arms["link_down"]["reduction"]
assert arms["withdraw"]["reduction"] >= 10, arms["withdraw"]["reduction"]
print(f"incremental verifier OK: {len(arms)} arms differential-clean, "
      f"link_down {arms['link_down']['reduction']:.0f}x / withdraw "
      f"{arms['withdraw']['reduction']:.0f}x fewer states than full")
PY

echo "=== delta routes: churn differential + recompute-reduction gate ==="
# Reduced-scale run of bench_route_delta (the committed
# BENCH_bench_route_delta.json carries the 1269-router figures): the seeded
# churn mix must stay oracle-identical (0 differential mismatches), the
# per-event accounting must partition the destination universe, and the
# delta engine must re-run the decision process >=10x less often than a
# rebuild-everything policy.
route_env=(MIFO_ARTIFACT_DIR="$artifact_dir" MIFO_TOPO_N=120
           MIFO_DEST_POOL=32 MIFO_EVENTS=120)
env "${route_env[@]}" "$build_dir"/bench/bench_route_delta \
  --benchmark_filter=none > /dev/null
python3 - "$artifact_dir/route_delta.json" <<'PY'
import sys
from artifact_schema import load
a = load(sys.argv[1], "route_delta")
assert {"topo_n", "routers", "destinations", "events", "seed"} <= \
    a["scale"].keys()
assert a["scale"]["routers"] > 0
c = a["churn"]
assert c["events_applied"] > 0
touched = c["destinations_recomputed"] + c["destinations_patched"]
assert touched + c["destinations_kept"] == \
    c["events_applied"] * a["scale"]["destinations"]
assert c["full_rebuild_work"] == \
    c["events_applied"] * a["scale"]["destinations"]
assert c["work_reduction"] >= 10, c["work_reduction"]
assert c["differential_checks"] > 0
assert c["differential_mismatches"] == 0, c["differential_mismatches"]
arms = {arm["name"]: arm for arm in a["arms"]}
assert {"withdraw", "reannounce", "session_down", "session_up"} == \
    arms.keys(), sorted(arms)
for name, arm in arms.items():
    assert {"events", "recomputed", "patched", "kept"} <= arm.keys(), name
# Prefix events touch exactly their origin destination.
for name in ("withdraw", "reannounce"):
    assert arms[name]["recomputed"] == arms[name]["events"], name
    assert arms[name]["patched"] == 0, name
assert "timing" in a  # stripped before the byte-reproducibility diff
print(f"route delta OK: {c['events_applied']} events, "
      f"{c['work_reduction']:.1f}x fewer decision runs, "
      f"{c['destinations_patched']} view patches, "
      f"{c['differential_checks']} oracle sweeps clean")
PY

# Same-seed byte-reproducibility (timing stripped, as for steady_state).
mv "$artifact_dir/route_delta.json" "$artifact_dir/route_delta.first.json"
env "${route_env[@]}" "$build_dir"/bench/bench_route_delta \
  --benchmark_filter=none > /dev/null
for f in route_delta.first.json route_delta.json; do
  python3 scripts/artifact_schema.py strip-timing "$artifact_dir/$f" \
    "$artifact_dir/$f.stripped"
done
diff "$artifact_dir/route_delta.first.json.stripped" \
     "$artifact_dir/route_delta.json.stripped"
echo "route delta artifact byte-reproducible (timing stripped)"

# The committed full-scale benchmark figures must back the headline claim:
# >=10x recompute reduction with a clean oracle at the 1269-router scale.
python3 - BENCH_bench_route_delta.json <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    a = json.load(f)
rows = {b["name"].split("/")[0]: b for b in a["benchmarks"]}
gate = rows["BM_ChurnWorkReduction"]
assert gate["work_reduction"] >= 10, gate["work_reduction"]
assert gate["differential_mismatches"] == 0, gate
assert gate["events"] > 0 and gate["destinations"] > 0
print(f"committed route-delta figures OK: {gate['work_reduction']:.1f}x "
      f"reduction over {gate['events']:.0f} events, 0 mismatches")
PY

echo "=== steady-state: open-loop workload + incremental max-min ==="
# Reduced-scale run of bench_steady_state (the committed
# BENCH_bench_steady_state.json carries the 12k-concurrent figures): the
# differential arm must reach its concurrency target with the from-scratch
# oracle matching bitwise on every event, and the incremental solver must
# beat the full re-solve by a wide margin even at smoke scale.
steady_env=(MIFO_ARTIFACT_DIR="$artifact_dir" MIFO_TOPO_N=200
            MIFO_STEADY_TARGET=400 MIFO_STEADY_ENDPOINTS=64
            MIFO_STEADY_DIFF_DURATION=4)
env "${steady_env[@]}" "$build_dir"/bench/bench_steady_state \
  --benchmark_filter=none > /dev/null
python3 - "$artifact_dir/steady_state.json" <<'PY'
import sys
from artifact_schema import load
a = load(sys.argv[1], "steady_state")
assert {"topo_n", "endpoints", "target_concurrent", "rho"} <= \
    a["scale"].keys()
target = a["scale"]["target_concurrent"]
wkl = a["workload"]
assert wkl["bottleneck_share"] > 0 and wkl["offered_mbps"] > 0
assert wkl["arrival_rate"] > 0 and wkl["flow_cap_mbps"] > 0
arms = {arm["name"]: arm for arm in a["arms"]}
assert {"BGP", "MIFO@100", "MIFO@100+chaos", "BGP+differential"} == \
    arms.keys(), sorted(arms)
for name, arm in arms.items():
    w = arm["workload"]
    assert w["generated"] > 0 and w["completed"] > 0, name
    s = w["solver"]
    assert s["events"] > 0 and s["reduction"] >= 2, (name, s["reduction"])
    assert s["differential_mismatches"] == 0, name
    assert len(w["throughput_cdf_of_cap"]) == 11, name
    assert len(arm["load"]) > 0, name
diff = arms["BGP+differential"]["workload"]
assert diff["solver"]["differential_checks"] >= diff["solver"]["events"]
assert diff["peak_active_flows"] >= target, \
    (diff["peak_active_flows"], target)
assert "timing" in a  # stripped before the byte-reproducibility diff
print(f"steady-state OK: diff arm peak {diff['peak_active_flows']} >= "
      f"{target}, {diff['solver']['differential_checks']} oracle checks "
      f"clean, reduction {diff['solver']['reduction']:.1f}x")
PY

# Same-seed byte-reproducibility: two runs must emit identical artifacts
# once the wall-clock timing section is dropped.
mv "$artifact_dir/steady_state.json" "$artifact_dir/steady_state.first.json"
env "${steady_env[@]}" "$build_dir"/bench/bench_steady_state \
  --benchmark_filter=none > /dev/null
for f in steady_state.first.json steady_state.json; do
  python3 scripts/artifact_schema.py strip-timing "$artifact_dir/$f" \
    "$artifact_dir/$f.stripped"
done
diff "$artifact_dir/steady_state.first.json.stripped" \
     "$artifact_dir/steady_state.json.stripped"
echo "steady-state artifact byte-reproducible (timing stripped)"

echo "=== clang-tidy (scripts/lint.sh) ==="
scripts/lint.sh "$build_dir"

echo "=== TSan: thread-pool + fluid-sim + sharded-plane + delta-route tests (${tsan_dir}) ==="
cmake -B "$tsan_dir" -S . -DMIFO_SANITIZE=thread
cmake --build "$tsan_dir" -j "$jobs" \
  --target test_common test_sim test_dataplane test_integration test_bgp
"$tsan_dir"/tests/test_common --gtest_filter='ThreadPool.*:ParallelFor.*:GlobalPool.*:SpscRing.*'
"$tsan_dir"/tests/test_sim --gtest_filter='FluidSim.*'
"$tsan_dir"/tests/test_dataplane --gtest_filter='ShardedNetwork.*'
"$tsan_dir"/tests/test_integration --gtest_filter='ShardedDifferential.*:ShardedFlightRecorder.*'
# scripts/tsan.supp masks libstdc++'s _Sp_atomic spinlock internals (a
# known TSan happens-before blind spot); our delta-table code stays
# instrumented.
TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp" \
  "$tsan_dir"/tests/test_bgp --gtest_filter='RouteDeltaEpochSwap.*'

echo "=== UBSan: full test suite (${ubsan_dir}) ==="
# -fno-sanitize-recover=all is wired in by the CMakeLists, so any UB aborts
# the test binary: green here means UB-free on every exercised path.
cmake -B "$ubsan_dir" -S . -DMIFO_SANITIZE=undefined
cmake --build "$ubsan_dir" -j "$jobs"
ctest --test-dir "$ubsan_dir" --output-on-failure -j "$jobs"

echo "=== ASan+UBSan: verify, chaos and topo suites (${asan_dir}) ==="
# Memory errors (use-after-free, overflow, leaks) in the verifier, the chaos
# engine and the topology parser, which take untrusted input.
cmake -B "$asan_dir" -S . -DMIFO_SANITIZE=address,undefined
cmake --build "$asan_dir" -j "$jobs" --target test_verify test_chaos test_topo
for t in test_verify test_chaos test_topo; do
  "$asan_dir"/tests/"$t"
done

echo "=== coverage: gcov over the tier-1 suite (scripts/coverage.sh) ==="
if [[ "${MIFO_SKIP_COVERAGE:-0}" == "1" ]]; then
  echo "coverage: skipped (MIFO_SKIP_COVERAGE=1)"
else
  scripts/coverage.sh "${4:-build-cov}"
fi

echo "OK: tier-1 suite, example smoke tests, artifact schema, verifier," \
     "lint, TSan, UBSan, ASan, and coverage all passed"
