"""Each checker passes a right answer and fails a seeded wrong one."""

from checks import (
    Oracle,
    Where,
    check_count,
    check_limit,
    check_sampling_job,
    check_scan_job,
    parse_cli_output,
)

ROWS = [
    {"l_partkey": p, "l_orderkey": 1000 + p, "l_shipmode": m, "l_tax": t}
    for p, m, t in [
        (1, "AIR", 0.01), (2, "RAIL", 0.09), (3, "AIR", 0.09),
        (4, "SHIP", 0.02), (5, "AIR", None), (6, "MAIL", 0.09),
    ]
]
WHERE = Where((("between", "l_partkey", 2, 5), ("=", "l_shipmode", "AIR")))


def test_where_renders_sql_and_evaluates_with_null_semantics():
    assert WHERE.sql() == "l_partkey BETWEEN 2 AND 5 AND l_shipmode = 'AIR'"
    assert Where((("in", "l_tax", (0.09, 0.01)),)).sql() == "l_tax IN (0.09, 0.01)"
    assert [WHERE.matches(r) for r in ROWS] == [False, False, True, False, True, False]
    assert not Where((("=", "l_tax", 0.09),)).matches(ROWS[4])  # NULL never matches


def test_oracle_counts_by_plain_loop():
    oracle = Oracle(ROWS, ("l_partkey", "l_shipmode", "l_tax"))
    assert oracle.count(WHERE) == 2
    assert oracle.count(Where((("=", "l_tax", 0.09),))) == 3
    assert oracle.count(Where((("in", "l_partkey", (1, 6, 9)),))) == 2


def test_limit_check_accepts_a_right_answer():
    assert check_limit([ROWS[2], ROWS[4]], WHERE, k=10, exact_matches=2) == []
    assert check_limit([ROWS[2]], WHERE, k=1, exact_matches=2) == []


def test_limit_check_fails_a_row_that_fails_its_predicate():
    problems = check_limit([ROWS[2], ROWS[3]], WHERE, k=2, exact_matches=2)
    assert any("fails WHERE" in p for p in problems)


def test_limit_check_fails_a_result_one_row_short():
    problems = check_limit([ROWS[2]], WHERE, k=10, exact_matches=2)
    assert problems == ["1 rows returned, expected min(k=10, matches=2) = 2"]


def test_limit_check_fails_duplicate_rows():
    problems = check_limit([ROWS[2], dict(ROWS[2])], WHERE, k=2, exact_matches=2)
    assert "duplicate rows in the answer" in problems


def test_count_check_accepts_estimates_within_their_interval():
    answer = {"estimate": 1000.0, "half_width": 4.0}
    assert check_count(answer, error_pct=0.5, exact=1010, splits_processed=19,
                       splits_total=20) == []
    exact_answer = {"estimate": 812.0, "half_width": 0.0}
    assert check_count(exact_answer, error_pct=0.5, exact=812, splits_processed=20,
                       splits_total=20) == []


def test_count_check_fails_an_estimate_far_outside_its_interval():
    answer = {"estimate": 1000.0, "half_width": 4.0}
    problems = check_count(answer, error_pct=0.5, exact=1100, splits_processed=19,
                           splits_total=20)
    assert any("beyond 5 x half-width" in p for p in problems)
    wrong_exact = {"estimate": 811.0, "half_width": 0.0}
    assert check_count(wrong_exact, error_pct=0.5, exact=812, splits_processed=20,
                       splits_total=20)


def test_count_check_fails_a_stop_before_the_target():
    answer = {"estimate": 1000.0, "half_width": 40.0}
    problems = check_count(answer, error_pct=0.5, exact=1000, splits_processed=5,
                           splits_total=20)
    assert any("stopped at 5/20" in p for p in problems)


def test_sampling_job_check():
    assert check_sampling_job(k=100, outputs=100, splits_processed=7,
                              splits_pruned=0, splits_total=800) == []
    assert check_sampling_job(k=100, outputs=60, splits_processed=790,
                              splits_pruned=10, splits_total=800) == []
    # Stopped below k with input left.
    assert check_sampling_job(k=100, outputs=99, splits_processed=7,
                              splits_pruned=0, splits_total=800)
    assert check_sampling_job(k=100, outputs=101, splits_processed=800,
                              splits_pruned=0, splits_total=800)


def test_scan_job_check():
    assert check_scan_job(splits_processed=800, splits_total=800) == []
    assert check_scan_job(splits_processed=799, splits_total=800)


def test_parse_cli_output():
    text = (
        "-- SELECT * FROM lineitem WHERE l_partkey BETWEEN 2 AND 5 LIMIT 10\n"
        f"{ROWS[2]!r}\n{ROWS[4]!r}\n"
        "-- 2 rows; scanned 6 records in 1/1 partitions\n"
    )
    rows, count = parse_cli_output(text)
    assert rows == [ROWS[2], ROWS[4]] and count == 2
    elided, _count = parse_cli_output(text.replace(f"{ROWS[4]!r}", "... 1 more rows"))
    assert check_limit(elided, WHERE, k=10, exact_matches=2)
