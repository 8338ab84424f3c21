"""The benchmark's four workloads.

Each workload is one client in a closed loop, in one process with serial
map tasks. A run sets up several times (the median is ``setup_s``), then
repeats whole rounds of operations until ``seconds`` have passed, checks
every operation's output, and returns an :class:`Outcome`. With
``trace=True`` the same loop runs with :class:`layers.Tracer` wrappers
installed and the outcome holds the per-layer metrics instead.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    Oracle,
    Where,
    check_count,
    check_limit,
    check_sampling_job,
    check_scan_job,
    parse_cli_output,
)
from layers import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("query_early_stop", "query_scan_bound", "sim_fair_observed", "cli_query")

#: Per-layer metrics, in BENCHMARK.json order. A workload that never
#: enters a layer reports 0 for it: no calls, no time, no work.
PER_LAYER = {
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.command_ms": "ms",
    "data.build_rows_per_s": "1/s",
    "data.bytes_per_row": "B",
    "mmapstore.open_ms": "ms",
    "hive.compile_ms": "ms",
    "dfs.open_splits_ms": "ms",
    "codegen.compiles_per_op": "count",
    "runtime.run_ms": "ms",
    "runtime.map_tasks_per_op": "count",
    "scan.rows_per_s": "1/s",
    "scan.rows_read_per_op": "count",
    "scan.rows_read_per_row_returned": "count",
    "provider.evaluations_per_op": "count",
    "provider.splits_added_per_op": "count",
    "approx.rows_read_per_op": "count",
    "sim.events_per_cell": "count",
    "sim.events_per_s": "1/s",
    "jobclient.evaluations_per_cell": "count",
    "jobtracker.map_tasks_per_cell": "count",
    "obs.trace_events_per_cell": "count",
    "obs.trace_overhead_x": "x",
    "obs.hub_overhead_x": "x",
    "sim.sampling_jobs_per_h": "1/h",
    "sim.scan_jobs_per_h": "1/h",
    "sim.sampling_response_p50_s": "s",
    "unattributed_ms": "ms",
}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}


MARKER_SELECTIVITY = 0.01  # per marker predicate, as `repro dataset build`
EARLY_K = 10
SCAN_K = 500
COUNT_ERROR_PCT = 0.5
REPEAT_EVERY = 4  # every 4th early-stop query repeats an earlier one
RSS_AFTER_OPS = 200  # peak RSS is read after this many operations
SIM_USERS = 10
SIM_SAMPLING_FRACTION = 0.5
SIM_K = 10_000


@dataclass
class Config:
    """Input sizes. The defaults are the benchmark's; tests shrink them."""

    rows: int = 30_000
    partitions: int = 15
    setup_reps: int = 3
    sim_setup_reps: int = 25  # the simulator's set-up takes milliseconds
    sim_scale: float = 25
    sim_warmup: float = 100.0
    sim_measurement: float = 300.0
    # A run holds at least this many cells, so twenty cell times lie
    # around latency_p50_ms; peak RSS is read after the last of them.
    sim_min_cells: int = 20
    work_dir: Path = ROOT / ".e2ebench_work"


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)  # printed to stderr

    def note_latency(self, latencies: list, ops: int | None = None) -> None:
        """The traced run's latency, to set beside the untraced run's."""
        ops = len(latencies) if ops is None else ops
        self.notes.append(
            f"traced latency_p50_ms={_median(latencies) * 1e3:.4f} "
            f"ops_per_s={ops / sum(latencies):.4f}"
        )

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems[:3])


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # The CLI's parallel-map defaults come from these; pin serial tasks.
    env.pop("REPRO_MAP_WORKERS", None)
    env.pop("REPRO_MAP_EXECUTOR", None)
    return env


def _run_child(args: list[str], work_dir: Path) -> tuple[int, str, float, float]:
    """Run one child to completion: (exit code, stdout, wall s, peak RSS MiB)."""
    out_path = work_dir / "child.out"
    with open(out_path, "w") as out, open(work_dir / "child.err", "w") as err:
        start = time.perf_counter()
        child = subprocess.Popen(args, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        _pid, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out_path.read_text(), wall, usage.ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Query inputs
# ----------------------------------------------------------------------
class QueryMaker:
    """Seeded WHERE clauses of known selectivity over the dataset's key
    domains, read from the oracle's columns.

    Each key range's start comes from a seeded shuffle of every possible
    start, so no WHERE clause repeats by chance until the shuffle wraps
    (~15,000 clauses over l_orderkey, ~2,000 over l_partkey): the repeat
    share stays what REPEAT_EVERY sets, however fast the program runs.
    """

    SHIP_MODES = ("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")

    def __init__(self, seed: int, oracle: Oracle) -> None:
        self.rng = random.Random(seed)
        self.domains = {
            column: max(oracle.columns[column]) for column in ("l_partkey", "l_orderkey")
        }
        self.starts: dict[str, list] = {}
        self.issued: list[Where] = []

    def key_range(self, column: str) -> tuple:
        """``column BETWEEN a AND a+w-1`` covering ~2% of the key domain."""
        top = self.domains[column]
        width = max(1, top // 50)
        starts = self.starts.get(column)
        if not starts:
            starts = self.starts[column] = list(range(1, max(1, top - width + 1) + 1))
            self.rng.shuffle(starts)
        low = starts.pop()
        return ("between", column, low, low + width - 1)

    def issue(self, terms: tuple) -> Where:
        where = Where(terms)
        self.issued.append(where)
        return where

    def early_stop(self, index: int) -> Where:
        if index % REPEAT_EVERY == REPEAT_EVERY - 1 and self.issued:
            return self.rng.choice(self.issued)
        return self.issue((self.key_range("l_orderkey"),))

    def marker_conjunction(self) -> Where:
        from repro.data.predicates import predicate_for_skew

        marker = predicate_for_skew(1)
        return self.issue(
            (self.key_range("l_orderkey"), ("=", marker.column, marker.marker))
        )

    def organic_conjunction(self) -> Where:
        return self.issue(
            (
                self.key_range("l_orderkey"),
                ("=", "l_shipmode", self.rng.choice(self.SHIP_MODES)),
                ("=", "l_returnflag", self.rng.choice(("R", "A", "N"))),
            )
        )

    def count_range(self, column: str) -> Where:
        return self.issue((self.key_range(column),))


ORACLE_COLUMNS = ("l_partkey", "l_orderkey", "l_shipmode", "l_returnflag", "l_tax")


# ----------------------------------------------------------------------
# In-process query workloads
# ----------------------------------------------------------------------
def _build_dataset(cfg: Config, path: Path, seed: int) -> None:
    """What `repro dataset build --rows R --partitions P --seed S` does."""
    from repro.data.datasets import build_materialized_dataset, dataset_spec_for_scale
    from repro.data.predicates import predicate_for_skew

    spec = dataset_spec_for_scale(cfg.rows / 6_000_000, num_partitions=cfg.partitions)
    build_materialized_dataset(
        spec, {predicate_for_skew(z): float(z) for z in (0, 1, 2)},
        seed=seed, selectivity=MARKER_SELECTIVITY,
        layout="mmap", mmap_path=str(path), stats=True,
    )


def _open_session(path: Path, seed: int):
    """Open the file and attach a Hive session on a serial LocalRunner."""
    from repro.cluster import paper_topology
    from repro.data import LINEITEM_SCHEMA
    from repro.dfs import DistributedFileSystem
    from repro.engine.runtime import LocalRunner
    from repro.hive import HiveSession
    from repro.scan.mmapstore import load_mmap_dataset

    dataset = load_mmap_dataset(str(path))
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/warehouse/lineitem", dataset)
    runner = LocalRunner(seed=seed, map_workers=1, map_executor="thread")
    session = HiveSession(runner=runner, dfs=dfs)
    session.register_table("lineitem", "/warehouse/lineitem", LINEITEM_SCHEMA)
    return dataset, runner, session


def _query_setup(cfg: Config, seed: int, out: Outcome, tracer: Tracer | None):
    times, builds = [], []
    kept = None
    for rep in range(cfg.setup_reps):
        path = cfg.work_dir / f"lineitem-{rep}.rcs"
        start = time.perf_counter()
        _build_dataset(cfg, path, seed)
        built = time.perf_counter()
        opened = _open_session(path, seed)
        times.append(time.perf_counter() - start)
        builds.append(built - start)
        if kept is not None:
            kept[2].close()
        kept = (path,) + opened
    path, dataset, runner, session = kept
    if tracer is not None:
        from repro.scan.mmapstore import load_mmap_dataset

        opens = []
        for _ in range(5):
            start = time.perf_counter()
            load_mmap_dataset(str(path))
            opens.append(time.perf_counter() - start)
        out.metrics["mmapstore.open_ms"] = _median(opens) * 1e3
        out.metrics["data.build_rows_per_s"] = cfg.rows / _median(builds)
        out.metrics["data.bytes_per_row"] = path.stat().st_size / cfg.rows
    oracle = Oracle(dataset.iter_rows(), ORACLE_COLUMNS)
    return _median(times), runner, session, oracle


def _install_query_tracer(tracer: Tracer) -> None:
    import repro.engine.runtime as runtime
    import repro.hive.session as hive_session
    import repro.scan.codegen as codegen
    from repro.dfs import DistributedFileSystem

    tracer.wrap(hive_session, "parse_statement", "hive.parse")
    tracer.wrap(hive_session.HiveSession, "compile", "hive.compile")
    tracer.wrap(DistributedFileSystem, "open_splits", "dfs.open_splits", count=len)
    tracer.wrap(runtime.LocalRunner, "run", "runtime.run")
    tracer.wrap(runtime, "run_map_task", "scan.map_task",
                count=lambda context: context.records_read)
    # Called only when compile_batch_matcher misses its cache.
    tracer.wrap(codegen, "batch_matcher_source", "codegen.compile")


def _query_ops(name: str, maker: QueryMaker, index: int):
    """(sql, where, kind, k-or-error) for the index-th operation."""
    if name == "query_early_stop":
        where = maker.early_stop(index)
        return f"SELECT * FROM lineitem WHERE {where.sql()} LIMIT {EARLY_K}", where, "limit", EARLY_K
    slot = index % 4
    if slot == 0:
        where = maker.marker_conjunction()
    elif slot == 1:
        where = maker.organic_conjunction()
    else:
        where = maker.count_range(("l_partkey", "l_orderkey")[slot - 2])
        return (
            f"SELECT COUNT(*) FROM lineitem WHERE {where.sql()} "
            f"WITHIN {COUNT_ERROR_PCT:g}% ERROR",
            where, "count", COUNT_ERROR_PCT,
        )
    return f"SELECT * FROM lineitem WHERE {where.sql()} LIMIT {SCAN_K}", where, "limit", SCAN_K


def _check_query(kind, result, where, param, oracle) -> list[str]:
    exact = oracle.count(where)
    if kind == "limit":
        return check_limit(result.rows, where, param, exact)
    if len(result.rows) != 1:
        return [f"COUNT returned {len(result.rows)} rows"]
    return check_count(
        result.rows[0], error_pct=param, exact=exact,
        splits_processed=result.job.splits_processed,
        splits_total=result.job.splits_total,
    )


def run_query(name: str, seed: int, seconds: float, trace: bool, cfg: Config) -> Outcome:
    out = Outcome()
    tracer = Tracer() if trace else None
    setup_s, runner, session, oracle = _query_setup(cfg, seed, out, tracer)
    maker = QueryMaker(seed, oracle)
    round_size = 1 if name == "query_early_stop" else 4
    latencies, jobs = [], []
    if tracer is not None:
        _install_query_tracer(tracer)
    rss_mb = 0.0
    try:
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            for _ in range(round_size):
                sql, where, kind, param = _query_ops(name, maker, index)
                index += 1
                start = time.perf_counter()
                try:
                    with tracer.op(index - 1) if tracer else nullcontext():
                        result = session.execute(sql)
                except Exception as exc:  # a failed operation, counted
                    latencies.append(time.perf_counter() - start)
                    out.record([f"{sql}: {type(exc).__name__}: {exc}"])
                    continue
                latencies.append(time.perf_counter() - start)
                problems = _check_query(kind, result, where, param, oracle)
                out.record([f"{sql}: {p}" for p in problems])
                if tracer is not None:
                    jobs.append(_job_counts(kind, result))
            if len(latencies) == RSS_AFTER_OPS:
                rss_mb = _peak_rss_mb()
            if time.perf_counter() >= deadline and len(latencies) >= RSS_AFTER_OPS:
                break
    finally:
        if tracer is not None:
            tracer.close()
        runner.close()
    if tracer is None:
        out.metrics.update(
            setup_s=setup_s,
            ops_per_s=len(latencies) / sum(latencies),
            latency_p50_ms=_median(latencies) * 1e3,
            peak_rss_mb=rss_mb,
        )
    else:
        _query_layer_metrics(out, tracer, latencies, jobs)
        out.note_latency(latencies)
        tracer.write(cfg.work_dir / f"spans-{name}-seed{seed}.jsonl")
    return out


def _job_counts(kind: str, result) -> dict:
    job = result.job
    return {
        "kind": kind,
        "read": job.records_processed,
        "evaluations": job.evaluations,
        "splits": job.splits_processed + job.splits_pruned,
        "rows": len(result.rows),
    }


def _query_layer_metrics(out: Outcome, tracer: Tracer, latencies, jobs) -> None:
    ops = len(latencies)
    parse = tracer.per_op("hive.parse")
    compile_ = tracer.per_op("hive.compile")
    open_splits = tracer.per_op("dfs.open_splits")
    run = tracer.per_op("runtime.run")
    hive = [parse.get(i, 0.0) + compile_.get(i, 0.0) for i in range(ops)]
    unattributed = [
        latencies[i] - hive[i] - open_splits.get(i, 0.0) - run.get(i, 0.0)
        for i in range(ops)
    ]
    tasks, scan_s, scan_rows = tracer.total("scan.map_task")
    compiles = tracer.total("codegen.compile")[0]
    limits = [j for j in jobs if j["kind"] == "limit"]
    counts = [j for j in jobs if j["kind"] == "count"]
    returned = sum(j["rows"] for j in limits)
    out.metrics.update({
        "hive.compile_ms": _median(hive) * 1e3,
        "dfs.open_splits_ms": _median(open_splits.values()) * 1e3,
        "codegen.compiles_per_op": compiles / ops,
        "runtime.run_ms": _median(run.values()) * 1e3,
        "runtime.map_tasks_per_op": tasks / ops,
        "scan.rows_per_s": scan_rows / scan_s if scan_s else 0.0,
        "scan.rows_read_per_op": _mean(j["read"] for j in jobs),
        "scan.rows_read_per_row_returned": (
            sum(j["read"] for j in limits) / returned if returned else 0.0
        ),
        "provider.evaluations_per_op": _mean(j["evaluations"] for j in jobs),
        "provider.splits_added_per_op": _mean(j["splits"] for j in jobs),
        "approx.rows_read_per_op": _mean(j["read"] for j in counts),
        "unattributed_ms": _median(unattributed) * 1e3,
    })


# ----------------------------------------------------------------------
# cli_query
# ----------------------------------------------------------------------
#: What `repro query --data` imports: the CLI module and the modules its
#: query command imports when it runs.
QUERY_IMPORTS = (
    "import repro.cli, repro.cluster, repro.data, repro.data.datasets, repro.dfs, "
    "repro.engine.runtime, repro.hive, repro.scan.engine, repro.scan.mmapstore"
)


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def run_cli(seed: int, seconds: float, trace: bool, cfg: Config) -> Outcome:
    from repro.scan.mmapstore import load_mmap_dataset

    out = Outcome()
    work = cfg.work_dir
    times = []
    for rep in range(cfg.setup_reps):
        path = work / f"cli-{rep}.rcs"
        code, text, wall, _rss = _run_child(
            _cli("dataset", "build", "--out", str(path), "--rows", str(cfg.rows),
                 "--partitions", str(cfg.partitions), "--seed", str(seed)),
            work,
        )
        if code != 0:
            raise RuntimeError(f"repro dataset build exited {code}: {text}")
        times.append(wall)
        if rep:
            (work / f"cli-{rep - 1}.rcs").unlink()
    file_bytes = path.stat().st_size
    dataset = load_mmap_dataset(str(path))
    oracle = Oracle(dataset.iter_rows(), ORACLE_COLUMNS)
    maker = QueryMaker(seed, oracle)
    tracer = Tracer() if trace else None
    session = runner = None
    if tracer is not None:
        _dataset, runner, session = _open_session(path, seed)
        _install_query_tracer(tracer)
    latencies, rss, interp, imports, opens, jobs = [], [], [], [], [], []
    try:
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            where = maker.early_stop(index)
            sql = f"SELECT * FROM lineitem WHERE {where.sql()} LIMIT {EARLY_K}"
            code, text, wall, peak = _run_child(
                _cli("query", "--data", str(path), "--max-print", str(EARLY_K), sql),
                work,
            )
            latencies.append(wall)
            rss.append(peak)
            if code != 0:
                out.record([f"{sql}: exit status {code}"])
            else:
                rows, count = parse_cli_output(text)
                problems = check_limit(rows, where, EARLY_K, oracle.count(where))
                if count != len(rows):
                    problems.append(f"printed {len(rows)} rows but reported {count}")
                out.record([f"{sql}: {p}" for p in problems])
            if tracer is not None:
                # The same layers, timed from outside the child: bare
                # interpreter start, start plus imports, the file open, and
                # the query's in-process layers on the same file.
                interp.append(_run_child([sys.executable, "-c", "pass"], work)[2])
                imports.append(
                    _run_child([sys.executable, "-c", QUERY_IMPORTS], work)[2]
                )
                start = time.perf_counter()
                load_mmap_dataset(str(path))
                opens.append(time.perf_counter() - start)
                with tracer.op(index):
                    jobs.append(_job_counts("limit", session.execute(sql)))
            index += 1
            if time.perf_counter() >= deadline:
                break
    finally:
        if tracer is not None:
            tracer.close()
            runner.close()
    for rep_path in work.glob("cli-*.rcs"):
        rep_path.unlink()
    if tracer is None:
        out.metrics.update(
            setup_s=_median(times),
            ops_per_s=len(latencies) / sum(latencies),
            latency_p50_ms=_median(latencies) * 1e3,
            peak_rss_mb=_median(rss),
        )
        return out
    ops = len(latencies)
    _query_layer_metrics(out, tracer, [0.0] * ops, jobs)
    p50 = _median(latencies)
    out.note_latency(latencies)
    layers_s = (
        _median(interp) + (_median(imports) - _median(interp)) + _median(opens)
        + out.metrics["hive.compile_ms"] / 1e3 + out.metrics["dfs.open_splits_ms"] / 1e3
        + out.metrics["runtime.run_ms"] / 1e3
    )
    out.metrics.update({
        "cli.interpreter_ms": _median(interp) * 1e3,
        "cli.import_ms": (_median(imports) - _median(interp)) * 1e3,
        "cli.command_ms": (p50 - _median(imports)) * 1e3,
        "data.build_rows_per_s": cfg.rows / _median(times),
        "data.bytes_per_row": file_bytes / cfg.rows,
        "mmapstore.open_ms": _median(opens) * 1e3,
        "unattributed_ms": (p50 - layers_s) * 1e3,
    })
    tracer.write(cfg.work_dir / f"spans-cli_query-seed{seed}.jsonl")
    return out


# ----------------------------------------------------------------------
# sim_fair_observed
# ----------------------------------------------------------------------
def _sim_dataset(cfg: Config, seed: int):
    from repro.data.datasets import build_profiled_dataset, dataset_spec_for_scale
    from repro.data.predicates import predicate_for_skew

    # The Figure 8 input: uniform placement of the z=0 predicate (§V-E).
    return build_profiled_dataset(
        dataset_spec_for_scale(cfg.sim_scale), {predicate_for_skew(0): 0.0}, seed=seed
    )


def _sim_inputs(seed: int, dataset, recorder):
    """The cluster and its ten users, each on a private copy (§V-D)."""
    from repro.data.predicates import predicate_for_skew
    from repro.engine.cluster_engine import SimulatedCluster
    from repro.workload.generator import heterogeneous_workload

    cluster = SimulatedCluster.paper_cluster(
        map_slots_per_node=16, seed=seed, scheduler="fair", trace=recorder
    )
    predicate = predicate_for_skew(0)
    spec = heterogeneous_workload(
        cluster, num_users=SIM_USERS, sampling_fraction=SIM_SAMPLING_FRACTION,
        sampling_policy="LA", sampling_predicate=predicate,
        scan_predicate=predicate, sample_size=SIM_K, dataset=dataset,
    )
    return cluster, spec


def _sim_cell(cfg: Config, seed: int, dataset, mode: str, trace_path: Path):
    """One Figure 8 cell. ``mode`` is "bare", "recorder" (as --trace-out),
    or "observed" (recorder plus telemetry hub and live watchdog, as
    --trace-out with --metrics-port, minus the HTTP exporter)."""
    from repro.obs import TraceRecorder
    from repro.obs.hub import TelemetryHub
    from repro.workload.runner import WorkloadRunner

    start = time.perf_counter()
    recorder = TraceRecorder(str(trace_path)) if mode != "bare" else None
    hub = TelemetryHub() if mode == "observed" else nullcontext()
    try:
        with hub:
            if mode == "observed":
                hub.attach(recorder)
            cluster, spec = _sim_inputs(seed, dataset, recorder)
            result = WorkloadRunner(
                cluster, spec, warmup=cfg.sim_warmup, measurement=cfg.sim_measurement
            ).run()
    finally:
        if recorder is not None:
            recorder.close()
    wall = time.perf_counter() - start
    events = len(recorder.raw_events) if recorder is not None else 0
    return wall, result, cluster.sim.events_processed, events


def _check_sim_cell(result, trace_path: Path | None, out: Outcome) -> None:
    """Property checks on every job, plus `repro audit` on the cell's
    trace when one was recorded."""
    from repro.obs import load_trace
    from repro.obs.audit import audit_events
    from repro.workload.user import UserClass

    violations = []
    if trace_path is not None:
        violations = audit_events(load_trace(str(trace_path))).violations
    for record in result.completions:
        job = record.result
        if record.user_class is UserClass.SAMPLING:
            problems = check_sampling_job(
                k=SIM_K, outputs=job.outputs_produced,
                splits_processed=job.splits_processed,
                splits_pruned=job.splits_pruned, splits_total=job.splits_total,
            )
        else:
            problems = check_scan_job(
                splits_processed=job.splits_processed, splits_total=job.splits_total
            )
        problems += [
            v.describe() for v in violations if v.job_id in (job.job_id, None)
        ]
        out.record([f"{job.job_id}: {p}" for p in problems])


def run_sim(seed: int, seconds: float, trace: bool, cfg: Config) -> Outcome:
    out = Outcome()
    times = []
    for _ in range(cfg.sim_setup_reps):
        start = time.perf_counter()
        dataset = _sim_dataset(cfg, seed)
        _sim_inputs(seed, dataset, None)
        times.append(time.perf_counter() - start)
    # The set-up clusters are cyclic garbage; collect it now so that when
    # the collector runs does not move the first cell's peak memory.
    gc.collect()
    trace_path = cfg.work_dir / "sim-trace.jsonl"
    walls: dict[str, list] = {"bare": [], "recorder": [], "observed": []}
    modes = ("bare", "recorder", "observed") if trace else ("observed",)
    tracer = Tracer() if trace else None
    if tracer is not None:
        import repro.sim.simulator as simulator

        tracer.wrap(simulator.Simulator, "run", "sim.run")
    jobs = 0
    last = None
    try:
        deadline = time.perf_counter() + seconds
        cell = 0
        while True:
            # Each cell has its own seed, so a run's median spans several
            # job mixes rather than resting on one.
            cell_seed = seed * 1000 + cell
            dataset = _sim_dataset(cfg, cell_seed)
            for mode in modes:
                timed = tracer is not None and mode == "observed"
                with tracer.op(cell) if timed else nullcontext():
                    last = _sim_cell(cfg, cell_seed, dataset, mode, trace_path)
                walls[mode].append(last[0])
                _check_sim_cell(last[1], trace_path if mode != "bare" else None, out)
                if mode == "observed":
                    jobs += len(last[1].completions)
            cell += 1
            if cell == cfg.sim_min_cells:
                rss_mb = _peak_rss_mb()
            if time.perf_counter() >= deadline and cell >= cfg.sim_min_cells:
                break
    finally:
        if tracer is not None:
            tracer.close()
        trace_path.unlink(missing_ok=True)
    observed = walls["observed"]
    if tracer is None:
        out.metrics.update(
            setup_s=_median(times),
            ops_per_s=jobs / sum(observed),
            latency_p50_ms=_median(observed) * 1e3,
            peak_rss_mb=rss_mb,
        )
        return out
    from repro.workload.user import UserClass

    out.note_latency(observed, jobs)
    _wall, result, sim_events, trace_events = last
    sampling = [
        r.result.response_time for r in result.completions
        if r.user_class is UserClass.SAMPLING
        and cfg.sim_warmup <= r.finish_time < cfg.sim_warmup + cfg.sim_measurement
    ]
    in_sim = tracer.per_op("sim.run")
    cell_spans = {s["op"]: s["end"] - s["start"] for s in tracer.spans if s["name"] == "op"}
    out.metrics.update({
        "sim.events_per_cell": sim_events,
        "sim.events_per_s": sim_events / _median(walls["bare"]),
        "jobclient.evaluations_per_cell": sum(r.result.evaluations for r in result.completions),
        "jobtracker.map_tasks_per_cell": sum(
            r.result.splits_processed for r in result.completions
        ),
        "obs.trace_events_per_cell": trace_events,
        "obs.trace_overhead_x": _median(walls["recorder"]) / _median(walls["bare"]),
        "obs.hub_overhead_x": _median(walls["observed"]) / _median(walls["recorder"]),
        "sim.sampling_jobs_per_h": result.throughput_jobs_per_hour(UserClass.SAMPLING),
        "sim.scan_jobs_per_h": result.throughput_jobs_per_hour(UserClass.NON_SAMPLING),
        "sim.sampling_response_p50_s": _median(sampling),
        "unattributed_ms": _median(
            cell_spans[op] - in_sim.get(op, 0.0) for op in cell_spans
        ) * 1e3,
    })
    tracer.write(cfg.work_dir / f"spans-sim_fair_observed-seed{seed}.jsonl")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, cfg: Config) -> Outcome:
    cfg.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if name == "cli_query":
            out = run_cli(seed, seconds, trace, cfg)
        elif name == "sim_fair_observed":
            out = run_sim(seed, seconds, trace, cfg)
        else:
            out = run_query(name, seed, seconds, trace, cfg)
    finally:
        for pattern in ("*.rcs", "child.*"):
            for leftover in cfg.work_dir.glob(pattern):
                leftover.unlink()
    if trace:
        out.metrics = {metric: out.metrics.get(metric, 0.0) for metric in PER_LAYER}
    else:
        out.metrics = {metric: out.metrics[metric] for metric in END_TO_END}
    return out
