"""Steadiness check: two sets of runs of one checkout, alternating.

    python3 e2ebench/steady.py --runs 10 [--workload NAME ...]

Runs every workload (or those named) ``--runs`` times per set, set A and
set B alternating run by run, each run ``run_seconds`` long with its own
seed (set A seeds 1.., set B seeds 101..). For each end-to-end metric it
prints each set's median and quartiles, the spread (interquartile
distance over the median) and whether the sets agree within the bound in
BENCHMARK.json: the two medians differ, either way, by no more than the
bound, and each set's spread is within it. ``setup_s`` is held to its
medians only: a run sets up three times, so one slow stretch of the host
moves its median more than it moves a median over hundreds of
operations. It also compares the share of failed operations. Exits 1 if
anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """(first quartile, median, third quartile, spread as share of median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    ok = True
    for workload in workloads:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for run in range(args.runs):
            for name, base in (("A", 1), ("B", 101)):
                result = run_once(spec["command"], workload, base + run, spec["run_seconds"])
                sets[name].append(result)
                print(f"{workload} set {name} run {run + 1}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
        print(f"== {workload}")
        shares = {
            name: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for name, runs in sets.items()
        }
        same_share = shares["A"] == shares["B"]
        ok &= same_share and all(r["correct"] for runs in sets.values() for r in runs)
        print(f"   failed share A={shares['A']:.6g} B={shares['B']:.6g} "
              f"{'same' if same_share else 'DIFFERENT'}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            line = f"   {name:<16}"
            spreads = []
            medians = []
            for set_name, runs in sets.items():
                values = [r["metrics"][name]["value"] for r in runs]
                q1, median, q3, spread = summarize(values)
                spreads.append(spread)
                medians.append(median)
                line += f" {set_name}: q1={q1:.4g} med={median:.4g} q3={q3:.4g} spread={spread:.3f}"
            shift = worse_by(medians[0], medians[1], metric["better"])
            agree = abs(shift) <= bound and (
                name == "setup_s" or all(s <= bound for s in spreads)
            )
            ok &= agree
            print(f"{line}  B worse by {shift:+.3f} (bound {bound}) "
                  f"{'agree' if agree else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
