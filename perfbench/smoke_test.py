#!/usr/bin/env python3
"""Smoke test of the repository benchmark, at tiny size.

    python3 perfbench/smoke_test.py

Run from the repository root. Checks that BENCHMARK.json is well formed, that
every workload passes its output checks with and without tracing, that each
run prints every metric BENCHMARK.json names with its unit, that two runs of
one seed give identical virtual-time results, and that the benchmark refuses
to run without the sources beside it. Exits non-zero on the first failure.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_spec(spec):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload entry {w}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end_to_end entry {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per_layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            fail(f"metric entry {m}")
    if len(names) != len(set(names)):
        fail("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s missing or malformed")
    if setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s does not have the largest bound")


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    return p.returncode, p.stdout, p.stderr


def check_result(spec, workload, trace, code, out, err):
    where = f"{workload} --trace {trace}"
    if code != 0:
        fail(f"{where}: exit {code}\n{out[-3000:]}\n{err[-3000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        fail(f"{where}: output checks failed\n{out[-3000:]}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = res["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        fail(f"{where}: metric names differ: missing {sorted({m['name'] for m in wanted} - set(got))},"
             f" extra {sorted(set(got) - {m['name'] for m in wanted})}")
    for m in wanted:
        v = got[m["name"]]
        if set(v) != {"value", "unit"} or v["unit"] != m["unit"]:
            fail(f"{where}: {m['name']} reported as {v}, unit should be {m['unit']}")
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            fail(f"{where}: {m['name']} = {v['value']}")
        if not trace and v["value"] == 0:
            fail(f"{where}: end-to-end metric {m['name']} is 0")
    return got


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"]:
        name = w["name"]
        first = check_result(spec, name, 0, *run(name, 7, 0))
        check_result(spec, name, 1, *run(name, 7, 1))
        again = check_result(spec, name, 0, *run(name, 7, 0))
        for m in ("vt_p50_ms", "vt_p99_ms", "vt_goodput_mbps", "completed_ratio"):
            if first[m]["value"] != again[m]["value"]:
                fail(f"{name}: {m} differs between two runs of one seed")
        print(f"ok: {name}")

    # Without the sources beside it the benchmark must fail, printing no result.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _ = run(spec["workloads"][0]["name"], 7, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or out.strip():
        fail("benchmark ran without the sources beside it")
    print("ok: refuses to run without sources")
    print("smoke test passed")


if __name__ == "__main__":
    main()
