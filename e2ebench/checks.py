"""Correctness checks built apart from the program under test.

Nothing here imports the Hive parser, the Hive compiler or the scan
codegen. A benchmark WHERE clause is held as a small tuple tree
(:class:`Where`), rendered to SQL for the program and evaluated here by a
plain Python loop for the checks. Each checker returns a list of problem
strings: empty means the operation's output is correct, anything else
counts the operation as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: An estimate may sit at most this many reported half-widths from the
#: exact answer. A 95% interval has half-width ~1.96 standard errors, so
#: 5 half-widths is ~9.8 standard errors: a correct interval misses by
#: that much with probability far below 1e-12 per query.
HALF_WIDTH_MULTIPLE = 5.0

#: Relative tolerance for "the estimate equals the exact count" when the
#: aggregate read all input (its interval is then zero-width).
EXACT_REL_TOL = 1e-9


@dataclass(frozen=True)
class Where:
    """A conjunction of simple terms over one row.

    Each term is one of::

        ("=", column, value)
        ("between", column, low, high)
        ("in", column, (value, ...))
    """

    terms: tuple

    def sql(self) -> str:
        return " AND ".join(_term_sql(term) for term in self.terms)

    def matches(self, row: dict) -> bool:
        return all(_value_matches(term, row.get(term[1])) for term in self.terms)


def _literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _term_sql(term) -> str:
    op, column = term[0], term[1]
    if op == "=":
        return f"{column} = {_literal(term[2])}"
    if op == "between":
        return f"{column} BETWEEN {_literal(term[2])} AND {_literal(term[3])}"
    if op == "in":
        return f"{column} IN ({', '.join(_literal(v) for v in term[2])})"
    raise ValueError(f"unknown term {term!r}")


def _value_matches(term, value) -> bool:
    op = term[0]
    if value is None:  # SQL: a comparison with NULL is never true
        return False
    if op == "=":
        return value == term[2]
    if op == "between":
        return term[2] <= value <= term[3]
    if op == "in":
        return value in term[2]
    raise ValueError(f"unknown term {term!r}")


class Oracle:
    """Exact answers by a plain loop over the dataset's rows.

    Holds only the columns the benchmark's predicates read, one list per
    column, so its memory stays small beside the program's.
    """

    def __init__(self, rows, columns: tuple[str, ...]) -> None:
        self.columns = {name: [] for name in columns}
        self.num_rows = 0
        for row in rows:
            for name, values in self.columns.items():
                values.append(row[name])
            self.num_rows += 1
        self._counts: dict[Where, int] = {}

    def count(self, where: Where) -> int:
        cached = self._counts.get(where)
        if cached is not None:
            return cached
        # One pass per term over the surviving row indices.
        survivors = range(self.num_rows)
        for term in where.terms:
            values = self.columns[term[1]]
            survivors = [i for i in survivors if _value_matches(term, values[i])]
        self._counts[where] = len(survivors)
        return len(survivors)


def _row_key(row: dict) -> tuple:
    return tuple(sorted((k, repr(v)) for k, v in row.items()))


def check_limit(rows: list, where: Where, k: int, exact_matches: int) -> list[str]:
    """A LIMIT-k answer: every row matches, rows are distinct, and the
    count is min(k, number of matching rows in the dataset)."""
    problems = []
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            problems.append(f"row {index} is not a row: {row!r}")
        elif not where.matches(row):
            problems.append(f"row {index} fails WHERE {where.sql()}: {row!r}")
    if len({_row_key(r) for r in rows if isinstance(r, dict)}) != len(rows):
        problems.append("duplicate rows in the answer")
    expected = min(k, exact_matches)
    if len(rows) != expected:
        problems.append(
            f"{len(rows)} rows returned, expected min(k={k}, "
            f"matches={exact_matches}) = {expected}"
        )
    return problems


def check_count(
    answer: dict,
    *,
    error_pct: float,
    exact: int,
    splits_processed: int,
    splits_total: int,
) -> list[str]:
    """An error-bounded COUNT: it met its target or read all input, and
    the exact count lies within HALF_WIDTH_MULTIPLE reported half-widths
    (or equals the estimate when all input was read)."""
    problems = []
    estimate = answer.get("estimate")
    half = answer.get("half_width")
    if estimate is None or half is None or not math.isfinite(estimate):
        return [f"no finite estimate in {answer!r}"]
    read_all = splits_processed >= splits_total
    met = estimate > 0 and half <= error_pct / 100.0 * abs(estimate) + 1e-9
    if not (met or read_all):
        problems.append(
            f"stopped at {splits_processed}/{splits_total} splits with "
            f"half-width {half:g} above {error_pct:g}% of {estimate:g}"
        )
    if read_all and half == 0:
        if not math.isclose(estimate, exact, rel_tol=EXACT_REL_TOL, abs_tol=1e-9):
            problems.append(f"read all input but estimate {estimate:g} != {exact}")
    elif abs(estimate - exact) > HALF_WIDTH_MULTIPLE * half:
        problems.append(
            f"exact count {exact} lies {abs(estimate - exact):g} from estimate "
            f"{estimate:g}, beyond {HALF_WIDTH_MULTIPLE:g} x half-width {half:g}"
        )
    return problems


def check_sampling_job(
    *, k: int, outputs: int, splits_processed: int, splits_pruned: int, splits_total: int
) -> list[str]:
    """A simulated LIMIT-k sampling job returned k rows, or fewer only
    after every split was processed."""
    covered = splits_processed + splits_pruned
    if outputs == k:
        return []
    if outputs < k and covered >= splits_total:
        return []
    return [
        f"sampling job produced {outputs} of k={k} outputs after "
        f"{covered}/{splits_total} splits"
    ]


def check_scan_job(*, splits_processed: int, splits_total: int) -> list[str]:
    """A simulated full-scan job processed every split."""
    if splits_processed == splits_total:
        return []
    return [f"scan job processed {splits_processed}/{splits_total} splits"]


def parse_cli_output(text: str) -> tuple[list, int | None]:
    """Rows and the reported row count from ``repro query`` stdout.

    The command prints ``-- <statement>``, one Python-literal row per
    line, and a closing ``-- N rows; ...`` line.
    """
    import ast

    rows: list = []
    count = None
    for line in text.splitlines():
        if line.startswith("-- "):
            head = line[3:].split(" ", 1)[0]
            if line[3:].split(" ", 1)[-1].startswith("rows") and head.isdigit():
                count = int(head)
            continue
        if line.startswith("... "):
            rows.append(None)  # an elided row: fails the count check
            continue
        if line.strip():
            try:
                rows.append(ast.literal_eval(line))
            except (ValueError, SyntaxError):
                rows.append(line)
    return rows, count
