#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at reduced scale.

    python3 e2ebench/selftest.py

Run it from the repository root (it builds like run.py, into
$CARGO_TARGET_DIR/e2ebench, default .bench_build). It checks that
BENCHMARK.json keeps to its format and limits, that every workload emits
every metric with its unit and passes its output checks, that failed_frac
(1 - ok_frac) is computed and 0, that a planted wrong reference output makes
the check fail, that the packet_scaled rebuild equals testbed::run_scaled,
and that run.py fails without printing a result when the sources are
missing. Exit status 0 means every check passed.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import run  # noqa: E402  (run.py beside this file)

# Per-layer metrics each workload's traced pass emits (README.md's layer
# map); trace.overhead_s is added by run.py for every workload.
LAYERS = {
    "fig5_batch": {
        "topo.generate_s", "traffic.gen_s", "bgp.route_cache_s",
        "sim.run_s.BGP", "sim.run_s.MIRO", "sim.run_s.MIFO",
        "sim.solver_runs", "sim.ticks", "sim.reroutes", "trace.coverage"},
    "stream_flash": {
        "topo.generate_s", "sim.calibrate_s", "bgp.route_cache_s",
        "sim.stream_s", "sim.stream_events", "sim.solver_incidences",
        "sim.solver_full_incidences", "sim.solve_work_reduction",
        "sim.peak_component", "sim.peak_active", "sim.solve_p50_us",
        "sim.solve_p99_us", "traffic.stream_gen_s", "trace.coverage"},
    "packet_scaled": {
        "topo.generate_s", "testbed.build_s", "dp.run_s",
        "core.daemon_tick_s", "core.daemon_ticks", "core.daemon_tick_share",
        "dp.event_loop_self_s", "dp.pkts_injected", "dp.pkts_delivered",
        "dp.drops.valley", "dp.drops.no_route", "dp.drops.ttl",
        "dp.drops.queue_overflow", "dp.drops.link_down",
        "dp.drops.misdelivered", "dp.drops.stale_flow", "shard.arm_s",
        "shard.run_s", "shard.speedup_4w", "shard.ring_pushed",
        "shard.ring_peak", "shard.ring_overflow", "trace.coverage"},
    "chaos_churn": {
        "topo.generate_s", "testbed.build_s", "chaos.run_s",
        "core.daemon_tick_s", "core.daemon_ticks", "core.daemon_tick_share",
        "dp.pkts_injected", "dp.pkts_delivered", "chaos.events_applied",
        "bgp.route_events", "bgp.recomputed", "bgp.patched",
        "verify.snapshots", "verify.dirty_destinations", "verify.cache_hits",
        "verify.states_explored", "chaos.full_verify_run_s",
        "verify.full_states_explored", "chaos.noverify_s", "verify.cost_s",
        "verify.full_cost_s", "trace.coverage"},
}
MIN_COVERAGE = 0.95
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_spec():
    text = (run.ROOT / "BENCHMARK.json").read_text()
    spec = json.loads(text)
    expect(len(text.encode()) <= 64 * 1024, "BENCHMARK.json at most 64 KiB")
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(1 <= len(spec["paths"]) <= 16 and all(
        PATH.match(p) and ".." not in p.split("/") for p in spec["paths"]),
        "paths well formed")
    expect(len(spec["command"]) <= 32 and all(
        len(c) <= 200 and not c.startswith("/") and ".." not in c
        for c in spec["command"]), "command well formed")
    expect(isinstance(spec["run_seconds"], int) and
           1 <= spec["run_seconds"] <= 60, "run_seconds in 1..60")
    names = []
    expect(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    for w in spec["workloads"]:
        names.append(w["name"])
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200 and
               "\n" not in w["why"], f"workload {w['name']} entry")
    expect(set(names) <= set(run.WORKLOADS), "workloads known to run.py")
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    expect(1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128, "metric counts")
    for m in e2e:
        names.append(m["name"])
        expect(set(m) == {"name", "unit", "better", "bound"} and
               0 < m["bound"] <= 0.25 and UNIT.match(m["unit"]) and
               m["better"] in ("lower", "higher"), f"metric {m['name']}")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and
           setup[0]["better"] == "lower" and
           setup[0]["bound"] == max(m["bound"] for m in e2e),
           "setup_s present with the largest bound")
    for m in layers:
        names.append(m["name"])
        expect(set(m) == {"name", "unit", "better"} and
               UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"),
               f"metric {m['name']}")
    expect(all(NAME.match(n) for n in names) and
           len(names) == len(set(names)), "names well formed and unique")
    emitted = set().union(*(LAYERS[w["name"]] for w in spec["workloads"]))
    expect(emitted | {"trace.overhead_s"} == {m["name"] for m in layers},
           "per_layer lists exactly what the gated workloads emit")
    return spec


def check_workload(binary, spec, refs, workload):
    ref = refs["small"][workload]["0"]
    untraced = run.run_binary(binary, workload, 0, False, True)
    traced = run.run_binary(binary, workload, 0, True, True)
    for rec in (untraced, traced):
        problems = run.check(rec, ref)
        expect(not problems, f"{workload} trace={rec['trace']} outputs match "
               f"the reference {problems if problems else ''}")

    values = run.end_to_end([untraced])
    for m in spec["end_to_end"]:
        v = values.get(m["name"])
        expect(isinstance(v, float) and v > 0, f"{workload} emits {m['name']} "
               f"[{m['unit']}] = {v}")
    expect(values["ok_frac"] == 1.0,
           f"{workload} failed_frac computed and 0 "
           f"({untraced['failed']}/{untraced['attempted']})")

    emitted = set(traced["layers"])
    expect(emitted == LAYERS[workload], f"{workload} emits its layer set "
           f"(extra {sorted(emitted - LAYERS[workload])}, missing "
           f"{sorted(LAYERS[workload] - emitted)})")
    layer = run.per_layer([untraced], [traced],
                          [m["name"] for m in spec["per_layer"]])
    expect(set(layer) == {m["name"] for m in spec["per_layer"]},
           f"{workload} reports every per-layer metric")
    expect(traced["layers"]["trace.coverage"] >= MIN_COVERAGE,
           f"{workload} traced layers cover "
           f"{traced['layers']['trace.coverage']:.3f} of its time")

    # A planted wrong reference must fail the check.
    key = sorted(ref)[0]
    planted = dict(ref)
    planted[key] = ("x" if isinstance(ref[key], str) else
                    (not ref[key]) if isinstance(ref[key], bool) else
                    ref[key] + 1)
    expect(bool(run.check(untraced, planted)),
           f"{workload} planted wrong reference for {key} is caught")


def check_crosscheck(binary):
    for variant in (0, 1):
        out = run.run_binary(binary, "packet_crosscheck", variant, False,
                             True)["outputs"]
        expect(out["rebuilt_digest"] == out["run_scaled_digest"],
               f"packet_scaled rebuild == run_scaled (scenario {variant})")


def check_command(build_dir):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "fig5_batch",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--small"],
        capture_output=True, text=True, timeout=600, cwd=run.ROOT)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(proc.returncode == 0 and set(last) == {
        "correct", "attempted", "failed", "metrics"} and last["correct"],
        "run.py prints the result line")

    # A directory holding only BENCHMARK.json and e2ebench/: no sources, so
    # run.py must fail without printing a result.
    bare = build_dir / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "fig5_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=bare)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           "run.py fails without a result when the sources are missing")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = check_spec()
    binary = run.build()
    refs = run.load_references()
    for workload in run.WORKLOADS:
        check_workload(binary, spec, refs, workload)
    check_crosscheck(binary)
    check_command(binary.parent)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
