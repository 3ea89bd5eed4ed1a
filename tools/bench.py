#!/usr/bin/env python3
"""Runner and comparator for the host-CPU microbenchmarks in bench/.

Runs every ``bench_*`` google-benchmark binary (``bench_codecs``,
``bench_matching``'s lookup rates and ``bench_sim``'s scheduler queue shapes),
parses the JSON each one emits, and writes
one consolidated document (the committed ``BENCH_PR<N>.json`` files at the
repo root are such documents). The paper's virtual-time tables are not
benchmarks: ``build/bench/repro`` prints them, and ``tests/reproduction_test``
checks them against ``tests/golden/``.

Usage:
  # run all benches from a Release build and write the consolidated file
  python3 tools/bench.py --bin-dir build-bench/bench --out /tmp/bench.json

  # same, but with google-benchmark repetitions kept minimal (CI smoke)
  python3 tools/bench.py --bin-dir build-bench/bench --out /tmp/smoke.json --smoke

  # compare a previous consolidated file against a new one
  python3 tools/bench.py --compare BENCH_PR2.json --against /tmp/bench.json

  # run benches and compare the fresh result against an old file in one go
  python3 tools/bench.py --bin-dir build-bench/bench --out /tmp/bench.json \
      --compare BENCH_PR2.json

Comparison reports per-benchmark real-time deltas (negative = faster) and
flags regressions beyond --regression-threshold (default 5%). Exit status is
non-zero only with --fail-on-regression.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

SCHEMA_VERSION = 1

# Unit factors to nanoseconds, the canonical unit for comparisons.
_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def discover_benches(bin_dir: pathlib.Path) -> list[pathlib.Path]:
    benches = sorted(p for p in bin_dir.glob("bench_*") if p.is_file())
    return [p for p in benches if p.stat().st_mode & 0o111]


def run_bench(binary: pathlib.Path, smoke: bool) -> dict:
    """Run one bench binary, return {benchmarks: [...]}."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = pathlib.Path(tmp.name)
    cmd = [
        str(binary),
        f"--benchmark_out={out_path}",
        "--benchmark_out_format=json",
    ]
    if smoke:
        # One repetition, minimal measuring time: proves the binary still runs
        # and produces parseable output without burning CI minutes. Bare double
        # (seconds), not the "0.01s" suffix form: the latter needs gbench >= 1.8.
        cmd += ["--benchmark_min_time=0.01", "--benchmark_repetitions=1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stdout.buffer.write(proc.stdout)
        raise RuntimeError(f"{binary.name} exited with {proc.returncode}")
    raw = json.loads(out_path.read_text(encoding="utf-8"))
    out_path.unlink(missing_ok=True)
    benchmarks = []
    for entry in raw.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue
        benchmarks.append({
            "name": entry["name"],
            "real_time": entry.get("real_time"),
            "cpu_time": entry.get("cpu_time"),
            "time_unit": entry.get("time_unit", "ns"),
            "iterations": entry.get("iterations"),
            "counters": {
                k: v for k, v in entry.items()
                if k not in {"name", "run_name", "run_type", "repetitions",
                             "repetition_index", "threads", "iterations",
                             "real_time", "cpu_time", "time_unit",
                             "family_index", "per_family_instance_index"}
                and isinstance(v, (int, float))
            },
        })
    return {"benchmarks": benchmarks}


def run_all(bin_dir: pathlib.Path, smoke: bool) -> dict:
    benches = discover_benches(bin_dir)
    if not benches:
        raise RuntimeError(f"no bench_* binaries found in {bin_dir}")
    doc = {"schema": SCHEMA_VERSION, "benches": {}}
    for binary in benches:
        print(f"[bench.py] running {binary.name} ...", flush=True)
        doc["benches"][binary.name] = run_bench(binary, smoke)
        print(f"[bench.py]   {binary.name}: "
              f"{len(doc['benches'][binary.name]['benchmarks'])} benchmarks", flush=True)
    return doc


def to_ns(value: float, unit: str) -> float:
    return value * _UNIT_NS.get(unit, 1.0)


def flatten(doc: dict) -> dict[str, dict]:
    """Map 'binary/benchmark-name' -> benchmark entry."""
    flat = {}
    for bench_bin, data in doc.get("benches", {}).items():
        for entry in data.get("benchmarks", []):
            flat[f"{bench_bin}/{entry['name']}"] = entry
    return flat


def compare(old_doc: dict, new_doc: dict, threshold_pct: float) -> list[str]:
    """Print the comparison; return the list of regressions beyond threshold."""
    old_flat, new_flat = flatten(old_doc), flatten(new_doc)
    common = sorted(set(old_flat) & set(new_flat))
    added = sorted(set(new_flat) - set(old_flat))
    removed = sorted(set(old_flat) - set(new_flat))

    regressions: list[str] = []
    print(f"\n{'benchmark':<64} {'old':>12} {'new':>12} {'delta':>9}")
    print("-" * 100)
    for name in common:
        o, n = old_flat[name], new_flat[name]
        o_ns = to_ns(o["real_time"], o["time_unit"])
        n_ns = to_ns(n["real_time"], n["time_unit"])
        if o_ns <= 0:
            continue
        delta = (n_ns - o_ns) / o_ns * 100.0
        marker = ""
        if delta > threshold_pct:
            marker = "  << REGRESSION"
            regressions.append(f"{name}: {delta:+.1f}%")
        elif delta < -threshold_pct:
            marker = "  (improved)"
        print(f"{name:<64} {o['real_time']:>10.1f}{o['time_unit']:<2} "
              f"{n['real_time']:>10.1f}{n['time_unit']:<2} {delta:>+8.1f}%{marker}")

    for name in added:
        print(f"new benchmark (no baseline): {name}")
    for name in removed:
        print(f"benchmark removed: {name}")
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond {threshold_pct:.0f}%:")
        for r in regressions:
            print(f"  {r}")
    else:
        print(f"\nno regressions beyond {threshold_pct:.0f}%")
    return regressions


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--bin-dir", default="build-bench/bench",
                        help="directory holding the bench_* binaries")
    parser.add_argument("--out",
                        help="consolidated output file (required unless --against)")
    parser.add_argument("--smoke", action="store_true",
                        help="minimal repetitions (CI bench-smoke)")
    parser.add_argument("--compare", metavar="OLD.json",
                        help="compare against a previous consolidated file")
    parser.add_argument("--against", metavar="NEW.json",
                        help="with --compare: use this file instead of running benches")
    parser.add_argument("--regression-threshold", type=float, default=5.0,
                        help="flag deltas beyond this percentage (default 5)")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit non-zero if any benchmark regresses beyond threshold")
    args = parser.parse_args()

    def load_doc(path_str: str) -> dict:
        path = pathlib.Path(path_str)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            print(f"error: {path} not found", file=sys.stderr)
            sys.exit(2)
        except json.JSONDecodeError as err:
            print(f"error: {path} is not valid JSON: {err}", file=sys.stderr)
            sys.exit(2)

    if args.compare and args.against:
        new_doc = load_doc(args.against)
    else:
        if not args.out:
            parser.error("--out is required when running benchmarks")
        bin_dir = pathlib.Path(args.bin_dir)
        if not bin_dir.is_dir():
            print(f"error: bench dir {bin_dir} not found (build with "
                  "`cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release && "
                  "cmake --build build-bench -j`)", file=sys.stderr)
            return 2
        new_doc = run_all(bin_dir, args.smoke)
        out = pathlib.Path(args.out)
        out.write_text(json.dumps(new_doc, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
        print(f"[bench.py] wrote {out}")

    if args.compare:
        old_doc = load_doc(args.compare)
        regressions = compare(old_doc, new_doc, args.regression_threshold)
        if regressions and args.fail_on_regression:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
