#!/usr/bin/env python3
"""Self-test of the host benchmark at tiny sizes.

    python3 hostbench/selftest.py

Asserts that
  * every metric named in BENCHMARK.json is printed with its unit, for every
    workload (end-to-end metrics) and by the traced run (per-layer metrics);
  * no oracle check fails on the default and the held-out seed
    (fail_frac = failed / attempted = 0);
  * each workload's traced layer rows plus other_frac fold to its wall.
    The rows sum to 1 by definition, so what is checked is what makes the
    fold hold: every self_frac >= 0, 0 <= other_frac < 1, and every span in
    the written span file lies inside its parent's interval;
  * corrupting one stored expected value drives fail_frac above 0;
  * a stray SX4NCAR_* variable stops a run before it prints a result.
Exits 0 when all hold.
"""

import json
import os
import re
import subprocess
import sys

import run

ROOT = run.ROOT
FAILURES = []


def fail(msg):
    FAILURES.append(msg)
    print(f"selftest: FAIL {msg}", file=sys.stderr)


def drive(driver, args, env=None, expected=None):
    cmd = [driver, "--size", "tiny", "--seconds", "1",
           "--expected", expected or os.path.join(run.HERE, "expected.txt")]
    proc = subprocess.run(cmd + args, capture_output=True, text=True, env=env)
    return proc


def result_of(proc, what):
    if proc.returncode != 0:
        fail(f"{what}: exit code {proc.returncode}: {proc.stderr[-500:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{what}: last stdout line is not a JSON result")
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(res)}")
    if not any(line.startswith("manifest {") for line in lines):
        fail(f"{what}: no configuration manifest")
    return res


def check_metrics(res, specs, what):
    got = res["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    for name, unit in want.items():
        if name not in got:
            fail(f"{what}: metric {name} missing")
        elif got[name]["unit"] != unit:
            fail(f"{what}: {name} unit {got[name]['unit']} != {unit}")
        elif not isinstance(got[name]["value"], (int, float)):
            fail(f"{what}: {name} value is not a number")
    extra = sorted(set(got) - set(want))
    if extra:
        fail(f"{what}: metrics not in BENCHMARK.json: {extra}")


def check_clean(res, what):
    if res["failed"] != 0 or not res["correct"] or res["attempted"] < 1:
        fail(f"{what}: {res['failed']} of {res['attempted']} checks failed")


def check_fold(m, workloads, what):
    for w in workloads:
        rows = {k: v["value"] for k, v in m.items()
                if k.startswith(f"{w}.self_frac.")}
        if not rows:
            fail(f"{what}: {w} has no layer rows")
        for k, v in rows.items():
            if v < 0:
                fail(f"{what}: {k} = {v} is negative")
        other = m[f"{w}.other_frac"]["value"]
        if not 0 <= other < 1:
            fail(f"{what}: {w}.other_frac = {other} is outside [0, 1)")
        if f"{w}.trace_overhead" not in m or f"{w}.untraced_round_s" not in m:
            fail(f"{what}: {w} trace overhead not reported")


def check_spans(path, workloads, what):
    """Every span closes after it opens and lies inside its parent."""
    sections = {}
    spans = None
    try:
        with open(path) as f:
            for line in f:
                if line.startswith("# "):
                    spans = sections.setdefault(line[2:].split(":")[0], [])
                    continue
                op, parent, t0, t1 = line.split()
                spans.append((op, int(parent), int(t0), int(t1)))
    except (OSError, ValueError, AttributeError) as err:
        fail(f"{what}: cannot read span file {path}: {err}")
        return
    for w in workloads:
        if not sections.get(w):
            fail(f"{what}: span file has no spans for {w}")
    for w, spans in sections.items():
        for i, (op, parent, t0, t1) in enumerate(spans):
            if t1 < t0:
                fail(f"{what}: {w} span {i} ({op}) ends before it starts")
            if parent < 0:
                continue
            if parent >= i:
                fail(f"{what}: {w} span {i} ({op}) has parent {parent}")
                continue
            _, _, p0, p1 = spans[parent]
            if t0 < p0 or t1 > p1:
                fail(f"{what}: {w} span {i} ({op}) is outside its parent")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(run.HERE, "notes.json")) as f:
        notes = json.load(f)
    seeds = notes["seeds"]
    driver = run.build()
    # Every workload the driver runs: those BENCHMARK.json lists and those
    # only the traced run includes.
    workloads = [w["name"] for w in bench["workloads"]]
    workloads += notes["timed_workloads"]["traced_only"]

    for seed in (seeds["default"], seeds["held_out"]):
        for w in workloads:
            what = f"{w} seed {seed}"
            proc = drive(driver, ["--workload", w, "--seed", str(seed),
                                  "--trace", "0"])
            res = result_of(proc, what)
            if res is None:
                continue
            check_metrics(res, bench["end_to_end"], what)
            check_clean(res, what)
            if not re.search(r"fail_frac 0 ratio", proc.stdout):
                fail(f"{what}: summary does not print fail_frac 0 ratio")

        what = f"traced run seed {seed}"
        out_dir = os.path.join(run.build_root(), "hostbench-selftest")
        os.makedirs(out_dir, exist_ok=True)
        res = result_of(drive(driver, ["--workload", workloads[0], "--seed",
                                       str(seed), "--trace", "1",
                                       "--out-dir", out_dir]), what)
        if res is None:
            continue
        check_metrics(res, bench["per_layer"], what)
        check_clean(res, what)
        check_fold(res["metrics"], workloads, what)
        check_spans(os.path.join(out_dir, f"{workloads[0]}-trace1.spans"),
                    workloads, what)

    # A corrupted expected value must be caught.
    with open(os.path.join(run.HERE, "expected.txt")) as f:
        lines = f.read().splitlines()
    key = next(i for i, l in enumerate(lines)
               if l.startswith("tiny.charge_replay."))
    name, value = lines[key].split()
    lines[key] = f"{name} {float.hex(float.fromhex(value) * (1 + 2**-40))}"
    corrupt = os.path.join(run.build_root(), "hostbench-selftest-expected.txt")
    with open(corrupt, "w") as f:
        f.write("\n".join(lines) + "\n")
    res = result_of(drive(driver, ["--workload", "charge_replay", "--seed",
                                   str(seeds["default"]), "--trace", "0"],
                          expected=corrupt), "corrupted expected value")
    if res is not None and (res["failed"] == 0 or res["correct"]):
        fail("corrupting an expected value did not raise fail_frac above 0")

    # A stray knob must stop the run.
    env = dict(os.environ, SX4NCAR_TRACE="full")
    proc = drive(driver, ["--workload", "app_steps", "--seed", "1",
                          "--trace", "0"], env=env)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("SX4NCAR_TRACE=full did not stop the run")

    if FAILURES:
        print(f"selftest: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
