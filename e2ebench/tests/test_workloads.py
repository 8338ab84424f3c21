"""Short runs of every workload, on inputs shrunk to keep the tests quick."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from workloads import END_TO_END, PER_LAYER, WORKLOADS, Config, run_workload

BENCH = Path(__file__).resolve().parent.parent


def small_config(tmp_path) -> Config:
    return replace(
        Config(), rows=4_000, partitions=8, setup_reps=1, sim_setup_reps=1,
        sim_scale=5, sim_warmup=60.0, sim_measurement=300.0, sim_min_cells=2,
        work_dir=tmp_path,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_short_run_has_no_failed_operation(workload, trace, tmp_path):
    out = run_workload(workload, seed=7, seconds=0.2, trace=trace,
                       cfg=small_config(tmp_path))
    assert out.attempted >= 1
    assert out.failed == 0, out.problems
    assert list(out.metrics) == list(PER_LAYER if trace else END_TO_END)
    if not trace:
        assert all(value > 0 for value in out.metrics.values()), out.metrics
    else:
        assert out.metrics["unattributed_ms"] != 0
        assert list(tmp_path.glob(f"spans-{workload}-seed7.jsonl"))
    assert not list(tmp_path.glob("*.rcs"))


def test_same_seed_same_inputs(tmp_path):
    from checks import Oracle
    from workloads import QueryMaker

    oracle = Oracle(
        [{"l_partkey": p, "l_orderkey": 10 * p} for p in range(1, 2001)],
        ("l_partkey", "l_orderkey"),
    )
    first = [QueryMaker(3, oracle) for _ in range(2)]
    sqls = [[m.early_stop(i).sql() for i in range(40)] for m in first]
    assert sqls[0] == sqls[1]
    # Every fourth query repeats an earlier one; the others are new.
    assert len(set(sqls[0])) == 30
    assert all(sqls[0][i] in sqls[0][:i] for i in range(3, 40, 4))


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "cli_query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
    with pytest.raises(ValueError):
        json.loads(done.stdout or "-")
