"""Run one benchmark workload and print its result as one JSON line.

    python3 e2ebench/run.py --workload query_early_stop --seed 1 --seconds 15 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same loop with per-layer wrappers and
prints the per-layer metrics, writing the spans to
``.e2ebench_work/spans-<workload>-seed<seed>.jsonl``. The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; problems
found by the checks go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import END_TO_END, PER_LAYER, WORKLOADS, Config, run_workload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), Config())
    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for note in outcome.notes:
        print(note, file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
