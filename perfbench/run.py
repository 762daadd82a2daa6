#!/usr/bin/env python3
"""The repository benchmark: simulator cost and simulated latency of three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload rep-4k-randrw --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each repetition runs in a fresh interpreter (so ``peak_rss_mb`` is the
peak of a process running only that workload); repetitions repeat until
``--seconds`` of wall time have passed.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones from untraced,
traced, probed and profiled repetitions.  For each workload the output
is one line per metric with its unit, an ``identity`` line, and as the
last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit status is 1 when any I/O failed, any block read
back wrong or two repetitions simulated different things, and 2 when a
repetition could not run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Wall-time limit for one workload, repetitions included.
LIMIT_S = 170.0


def _import_path() -> None:
    """Make ``repro`` (from ``src/``) and this package importable."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources under {SRC}; run from a repository checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]


class RepFailed(RuntimeError):
    """A repetition crashed or overran the time limit."""


def spawn(name: str, seed: int, mode: str, verify: bool, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and return its figures."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--rep", mode,
           "--workload", name, "--seed", str(seed), "--verify", str(int(verify))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{name} {mode} repetition overran {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RepFailed(f"{name} {mode} repetition exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Repeat the workload's repetitions until ``seconds`` have passed.

    A traced run cycles through untraced, traced, probed and profiled
    repetitions and runs at least one of each.  Every repetition
    simulates the same thing (checked through its identity), so the
    oracle reads back after the first one only.
    """
    cycle = ("untraced", "traced", "probed", "profiled") if trace else ("plain",)
    start = perf_counter()
    reps: list[dict] = []
    while len(reps) < len(cycle) or perf_counter() - start < seconds:
        left = LIMIT_S - (perf_counter() - start)
        mode = cycle[len(reps) % len(cycle)]
        reps.append(spawn(name, seed, mode, verify=not reps, timeout=max(left, 1.0)))
    return reps


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _q2, q3 = quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.6g}..{q3:.6g}"


def report(name: str, seed: int, reps: list[dict], trace: bool) -> bool:
    """Print every metric of one workload; return whether its outputs were correct."""
    from perfbench.measure import IDENTITY
    from perfbench.metrics import END_TO_END, PER_LAYER, end_to_end, per_layer

    attempted = sum(r["ios"] for r in reps)
    failed = sum(r["errors"] + r["bad_blocks"] for r in reps)
    identities = {tuple(r[k] for k in IDENTITY) for r in reps}
    correct = failed == 0 and len(identities) == 1
    first = reps[0]

    print(f"workload {name} seed {seed}: {len(reps)} repetitions, each in a fresh process")
    if trace:
        units, values = PER_LAYER, per_layer(reps)
        for metric, unit in units.items():
            print(f"  {metric:34s} {values[metric]:<14.6g} {unit}")
    else:
        units, values = END_TO_END, end_to_end(reps)
        plain = [r for r in reps if r["mode"] == "plain"]
        notes = {
            "host_us_per_req": _spread([r["host_s"] / r["ios"] * 1e6 for r in plain]),
            "peak_rss_mb": _spread([r["peak_rss_mb"] for r in plain]),
            "setup_s": _spread([r["setup_s"] for r in plain]),
            "sim_p50_us": f"{first['ios']} samples",
            "sim_p99_us": f"{first['ios']} samples, {first['beyond_p99']} beyond",
            "sim_kiops": f"{first['ios']} I/Os",
        }
        for metric, unit in units.items():
            print(f"  {metric:18s} {values[metric]:<14.6g} {unit:6s} ({notes[metric]})")
        print("  unscaled wall time, median: host_us_per_req "
              f"{median(r['host_wall_s'] / r['ios'] * 1e6 for r in plain):.6g} us, "
              f"setup_s {median(r['setup_wall_s'] for r in plain):.6g} s")
    print(f"  {'failed_frac':18s} {failed / attempted:<14.6g} {'ratio':6s} "
          f"({failed} of {attempted} I/Os"
          " errored or read back wrong)")
    print(f"identity {name} seed={seed} sim.events_per_req={first['events'] / first['ios']!r} "
          + " ".join(f"{k}={first[k]!r}" for k in IDENTITY))
    if len(identities) != 1:
        print(f"identity MISMATCH: {len(identities)} distinct results across repetitions",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }), flush=True)
    return correct


def main(argv: list[str] | None = None) -> int:
    _import_path()
    from perfbench.measure import MODES, measure
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="wall time of repetitions per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rep", choices=MODES, help=argparse.SUPPRESS)
    parser.add_argument("--verify", type=int, choices=(0, 1), default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.rep:
        print(json.dumps(measure(args.workload, args.seed, args.rep, verify=bool(args.verify))))
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        try:
            reps = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RepFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        correct &= report(name, args.seed, reps, bool(args.trace))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
