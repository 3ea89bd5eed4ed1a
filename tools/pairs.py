#!/usr/bin/env python3
"""Alternating pairs of perfbench runs: a parent commit against the change.

A performance claim in this repository is checked the same way every time:
at least ten pairs of equal-length perfbench runs per workload and seed, each
pair switching which side runs first, the change lower in at least nine tenths
of them, and the medians further apart than the parent's own quartile spread.
Both sides of each pair must also compute the same thing: the same
`trace_digest`, every `vt_*` metric and `completed_ratio` bit-identical.

Usage:
  # the parent revision against this checkout, 10 pairs per workload and seed
  python3 tools/pairs.py --parent HEAD~1 --workload mb_echo --seed 1 --seed 7

  # prebuilt binaries on either side (no build)
  python3 tools/pairs.py --parent-bin A/perfbench --change-bin B/perfbench \\
      --workload mb_echo --pairs 1 --seconds 1 --size tiny

  # the pair rules on made-up runs and the parse of a recorded one
  python3 tools/pairs.py --self-test

`--parent <rev>` exports the revision with `git archive` into
<work-dir>/parent-<sha> (default work dir .bench_build/pairs). Each side runs
through its own tree's perfbench/run.py, which builds that tree's perfbench
(Release) into the tree's .bench_build/perfbench: the first run of a side
builds, later runs are no-op builds outside perfbench's timer.

The report is printed in the EXPERIMENTS.md table form: per workload and
seed, each side's q1 / median / q3 of host_us_per_op, change / parent, the
change's wins, the parent's IQR and whether the gain rule holds; then the
medians and wins of the other host metrics, and each run's calibration scale
(perfbench's measure of how fast the machine ran). A set whose calibration
scales span more than SCALE_DRIFT (30%) of their median is flagged: the
machine's load changed while it ran. On a quiet 4-vCPU guest the scales of a
10-pair set spanned 16–25% of their median; on a loaded one they spanned
about 45% (0.67–1.06).

Exit status: 0 when every run was correct and every pair agreed; 1 when a run
failed (a failed build included) or a pair disagreed; 2 on a usage error or a
failed export.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import subprocess
import sys
import tarfile
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Lower is better for every host metric perfbench reports.
HOST_METRICS = ("host_us_per_op", "host_ns_per_event", "setup_s", "peak_rss_mb")
# The metric the gain rule judges: host CPU per bridged message.
CLAIMED = "host_us_per_op"
SCALE_DRIFT = 0.3


@dataclass
class Run:
    side: str
    metrics: dict[str, float]
    digest: str
    scale: float
    problems: list[str] = field(default_factory=list)


def fail(message: str) -> None:
    print(f"pairs: {message}", file=sys.stderr)
    sys.exit(2)


# --- trees -------------------------------------------------------------------------

def export_revision(rev: str, work_dir: str) -> str:
    """The tree of `rev`, exported once into <work_dir>/parent-<sha>."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    dest = os.path.join(work_dir, f"parent-{sha[:12]}")
    if not os.path.isfile(os.path.join(dest, "perfbench", "CMakeLists.txt")):
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha],
                                 capture_output=True, check=True).stdout
        os.makedirs(dest, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest)
    return dest


# --- runs --------------------------------------------------------------------------

DIGEST = re.compile(r"^# trace_digest=(\S+)", re.M)
SCALE = re.compile(r"host costs scaled by ([0-9.]+)")


def parse_run(side: str, returncode: int, stdout: str) -> Run:
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        return Run(side, {}, "", 0.0, [f"{side}: no result line (exit {returncode})"])
    digest = DIGEST.search(stdout)
    scale = SCALE.search(stdout)
    run = Run(side, metrics, digest.group(1) if digest else "",
              float(scale.group(1)) if scale else 0.0)
    if returncode != 0 or not result.get("correct", False) or result.get("failed", 0) != 0:
        run.problems.append(f"{side}: incorrect run (exit {returncode}, "
                            f"failed {result.get('failed')})")
    return run


def perfbench_of(tree: str) -> list[str]:
    """The command that builds (when stale) and runs `tree`'s perfbench."""
    return [sys.executable, os.path.join(tree, "perfbench", "run.py")]


def run_once(side: str, command: list[str], workload: str, seed: int, args) -> Run:
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds",
           str(args.seconds), "--trace", "0"]
    if args.size:
        cmd += ["--size", args.size]
    # Without CARGO_TARGET_DIR each tree's run.py builds into its own tree.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False, env=env)
    return parse_run(side, proc.returncode, proc.stdout)


def pair_mismatches(parent: Run, change: Run) -> list[str]:
    """What the two sides of a pair computed differently."""
    problems = parent.problems + change.problems
    if parent.digest != change.digest:
        problems.append(f"trace_digest {parent.digest} != {change.digest}")
    for name in sorted(set(parent.metrics) | set(change.metrics)):
        if name.startswith("vt_") or name == "completed_ratio":
            a, b = parent.metrics.get(name), change.metrics.get(name)
            if a != b:
                problems.append(f"{name} {a!r} != {b!r}")
    return problems


# --- statistics --------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median, q3 by linear interpolation between order statistics."""
    s = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


@dataclass
class Verdict:
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    ratio: float
    wins: int
    pairs: int
    iqr: float
    gain: bool


def judge(parent: list[float], change: list[float]) -> Verdict:
    """The gain rule: the change lower in >= 9/10 of the pairs (ties count for
    neither) and the medians further apart than the parent's quartile spread."""
    p, c = quartiles(parent), quartiles(change)
    wins = sum(1 for a, b in zip(parent, change) if b < a)
    iqr = p[2] - p[0]
    return Verdict(p, c, c[1] / p[1] if p[1] else float("nan"), wins, len(parent), iqr,
                   wins * 10 >= 9 * len(parent) and p[1] - c[1] > iqr)


def fmt(x: float) -> str:
    return f"{x:.4g}"


# --- report ------------------------------------------------------------------------

def report(sets: dict[tuple[str, int], list[tuple[Run, Run]]]) -> None:
    print(f"\n| workload (seed, pairs) | parent {CLAIMED}, q1 / median / q3 | change, q1 / median / q3"
          " | change / parent | change wins | parent IQR | gain rule |")
    print("|---|---:|---:|---:|---:|---:|---|")
    for (workload, seed), pairs in sets.items():
        v = judge([p.metrics.get(CLAIMED, 0.0) for p, _ in pairs],
                  [c.metrics.get(CLAIMED, 0.0) for _, c in pairs])
        print(f"| {workload} ({seed}, {v.pairs}) | {' / '.join(map(fmt, v.parent))} | "
              f"{' / '.join(map(fmt, v.change))} | {v.ratio:.3f} | {v.wins}/{v.pairs} | "
              f"{fmt(v.iqr)} | {'met' if v.gain else 'not met'}"
              f"{' (fewer than 10 pairs)' if v.pairs < 10 else ''} |")
    others = [m for m in HOST_METRICS if m != CLAIMED]
    print("\n| workload (seed, pairs) | " +
          " | ".join(f"{m} parent / change median (wins)" for m in others) + " |")
    print("|---|" + "---:|" * len(others))
    for (workload, seed), pairs in sets.items():
        cells = []
        for m in others:
            v = judge([p.metrics.get(m, 0.0) for p, _ in pairs],
                      [c.metrics.get(m, 0.0) for _, c in pairs])
            cells.append(f"{fmt(v.parent[1])} / {fmt(v.change[1])} ({v.wins}/{v.pairs})")
        print(f"| {workload} ({seed}, {len(pairs)}) | " + " | ".join(cells) + " |")
    print()
    for (workload, seed), pairs in sets.items():
        scales = [r.scale for pair in pairs for r in pair]
        print(f"calibration scale, {workload} seed {seed}: parent "
              + " ".join(f"{p.scale:.3f}" for p, _ in pairs) + "; change "
              + " ".join(f"{c.scale:.3f}" for _, c in pairs))
        mid = quartiles(scales)[1]
        drift = (max(scales) - min(scales)) / mid if mid else 0.0
        if drift > SCALE_DRIFT:
            print(f"  FLAG: the scale moved by {drift:.0%} of its median (bound "
                  f"{SCALE_DRIFT:.0%}): the machine's load changed during this set")


# --- self-test ---------------------------------------------------------------------

def self_test() -> int:
    def run(side, digest="d", **metrics):
        base = {"host_us_per_op": 2.0, "vt_p50_ms": 4.7, "completed_ratio": 1.0}
        return Run(side, {**base, **metrics}, digest, 1.0)

    checks = [
        (quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25), "quartiles"),
        (quartiles([5.0]) == (5.0, 5.0, 5.0), "quartiles of one run"),
        (pair_mismatches(run("parent"), run("change", host_us_per_op=1.0)) == [],
         "a host metric may differ"),
        (len(pair_mismatches(run("parent"), run("change", digest="e"))) == 1, "digest"),
        (len(pair_mismatches(run("parent"), run("change", vt_p50_ms=4.8))) == 1, "vt_*"),
        (len(pair_mismatches(run("parent"), run("change", completed_ratio=0.9))) == 1,
         "completed_ratio"),
        (judge([2.0] * 9 + [2.1], [1.8] * 10).gain, "10/10 lower, above the IQR"),
        (not judge([2.0] * 10, [1.8] * 8 + [2.2] * 2).gain, "8/10 lower"),
        (not judge([1.0, 2.0, 3.0, 4.0] * 3, [x - 0.1 for x in [1.0, 2.0, 3.0, 4.0] * 3]).gain,
         "inside the parent's IQR"),
        (parse_run("change", 0, "# trace_digest=ab\n# host costs scaled by 1.25\n"
                   '{"correct": true, "failed": 0, "metrics": {"x": {"value": 3}}}').scale
         == 1.25, "parse"),
        (parse_run("change", 1, "crash").problems != [], "a run with no result line"),
    ]
    # A recorded run: perfbench --workload mb_echo --seed 1 --seconds 1 --size tiny.
    with open(os.path.join(ROOT, "tools", "testdata", "perfbench_mb_echo_tiny.txt"),
              encoding="utf-8") as f:
        recorded = parse_run("change", 0, f.read())
    checks += [
        (recorded.problems == [], "a recorded run is correct"),
        (recorded.digest == "1ea48d9e62611f53", "a recorded run's trace_digest"),
        (recorded.scale == 1.0855, "a recorded run's calibration scale"),
        (set(HOST_METRICS) <= set(recorded.metrics), "a recorded run's host metrics"),
        (recorded.metrics.get(CLAIMED) == 2.0170848136637987, "a recorded run's claimed metric"),
        (recorded.metrics.get("completed_ratio") == 1, "a recorded run's completed_ratio"),
        (pair_mismatches(recorded, recorded) == [], "a recorded run agrees with itself"),
    ]
    failed = [name for ok, name in checks if not ok]
    for name in failed:
        print(f"pairs self-test: FAILED {name}", file=sys.stderr)
    if not failed:
        print(f"pairs self-test: {len(checks)} checks ok")
    return 1 if failed else 0


# --- main --------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="git revision to run as the parent side")
    ap.add_argument("--parent-bin", help="prebuilt parent perfbench (instead of --parent)")
    ap.add_argument("--change-bin", help="prebuilt change perfbench (instead of this checkout)")
    ap.add_argument("--workload", action="append", help="repeatable; default mb_echo")
    ap.add_argument("--seed", action="append", type=int, help="repeatable; default 1 and 7")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--size", help="perfbench --size (e.g. tiny)")
    ap.add_argument("--work-dir", default=os.path.join(ROOT, ".bench_build", "pairs"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent_bin and not args.parent:
        fail("give --parent <rev> or --parent-bin")
    if args.pairs < 1:
        fail("--pairs must be at least 1")
    for binary in (args.parent_bin, args.change_bin):
        if binary and not os.access(binary, os.X_OK):
            fail(f"not an executable: {binary}")
    try:
        parent = ([args.parent_bin] if args.parent_bin
                  else perfbench_of(export_revision(args.parent, args.work_dir)))
    except (OSError, subprocess.CalledProcessError, tarfile.TarError) as e:
        fail(f"export of {args.parent} failed: {e}")
    change = [args.change_bin] if args.change_bin else perfbench_of(ROOT)

    sets: dict[tuple[str, int], list[tuple[Run, Run]]] = {}
    problems: list[str] = []
    for workload in args.workload or ["mb_echo"]:
        for seed in args.seed or [1, 7]:
            pairs = sets.setdefault((workload, seed), [])
            for i in range(args.pairs):
                sides = [("parent", parent), ("change", change)]
                if i % 2:
                    sides.reverse()
                runs = {side: run_once(side, cmd, workload, seed, args) for side, cmd in sides}
                pair = (runs["parent"], runs["change"])
                pairs.append(pair)
                bad = pair_mismatches(*pair)
                problems += [f"{workload} seed {seed} pair {i}: {p}" for p in bad]
                print(f"{workload} seed {seed} pair {i}: {CLAIMED} parent "
                      f"{fmt(pair[0].metrics.get(CLAIMED, 0.0))} change "
                      f"{fmt(pair[1].metrics.get(CLAIMED, 0.0))} digest "
                      f"{pair[0].digest}{' MISMATCH' if bad else ''}", flush=True)
    report(sets)
    for p in problems:
        print(f"pairs: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
