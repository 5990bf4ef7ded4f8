import json
import math
import sqlite3

import pytest

from paperdata import CASE_TWEETS
from queryfuzz import QueryFuzzer

from sqlpatch.cli import _eval_line
from sqlpatch.errors import BackendUnavailable, ExecutionError
from sqlpatch.metrics import (
    SqliteBackend, exact_set_match, execution_match, mcnemar_counts,
    orders_result, query_rows,
)
from sqlpatch.parse import parse_sql
from sqlpatch.render import render
from sqlpatch.tokens import tokenize


# ---------------------------------------------------------------------------
# Exact set match: hand-labeled pairs.
# Each row: (db, query a, query b, expected verdict)

EM_SUITE = [
    # select-item permutations match
    ("social", "select tweets.id, tweets.text from tweets",
     "select tweets.text, tweets.id from tweets", True),
    ("hr", "select employee.name, count(*) from employee group by employee.name",
     "select count(*), employee.name from employee group by employee.name", True),
    # AND-conjunct permutations match
    ("social", "select tweets.id from tweets where tweets.uid = 1 and tweets.id = 2",
     "select tweets.id from tweets where tweets.id = 2 and tweets.uid = 1", True),
    ("cars", "select cars_data.id from cars_data where cars_data.mpg > 10 and "
             "cars_data.year = 1970 and cars_data.horsepower < 100",
     "select cars_data.id from cars_data where cars_data.horsepower < 100 and "
     "cars_data.mpg > 10 and cars_data.year = 1970", True),
    # group-by column permutations match
    ("hr", "select count(*) from evaluation group by evaluation.employee_id, "
           "evaluation.year_awarded",
     "select count(*) from evaluation group by evaluation.year_awarded, "
     "evaluation.employee_id", True),
    # join-condition side flip matches
    ("hr", "select employee.name from employee join evaluation on "
           "employee.employee_id = evaluation.employee_id",
     "select employee.name from employee join evaluation on "
     "evaluation.employee_id = employee.employee_id", True),
    # identical nontrivial query matches
    ("cars", "select count(*) from cars_data where cars_data.accelerate > "
             "(select max(cars_data.horsepower) from cars_data)",
     "select count(*) from cars_data where cars_data.accelerate > "
     "(select max(cars_data.horsepower) from cars_data)", True),
    # single column substitution mismatches
    ("social", CASE_TWEETS.wrong, CASE_TWEETS.gold, False),
    ("social", "select tweets.id from tweets", "select tweets.uid from tweets", False),
    # literal value substitution mismatches
    ("cars", "select cars_data.id from cars_data where cars_data.year = 1970",
     "select cars_data.id from cars_data where cars_data.year = 1971", False),
    ("social", "select tweets.id from tweets where tweets.text = 'a'",
     "select tweets.id from tweets where tweets.text = 'b'", False),
    # string value case matters
    ("social", "select tweets.id from tweets where tweets.text = 'Alice'",
     "select tweets.id from tweets where tweets.text = 'alice'", False),
    # aggregate change mismatches
    ("cars", "select max(cars_data.mpg) from cars_data",
     "select min(cars_data.mpg) from cars_data", False),
    # distinct flag mismatches
    ("social", "select distinct tweets.uid from tweets",
     "select tweets.uid from tweets", False),
    ("social", "select count(distinct tweets.uid) from tweets",
     "select count(tweets.uid) from tweets", False),
    # comparison operator change mismatches
    ("cars", "select cars_data.id from cars_data where cars_data.mpg > 15",
     "select cars_data.id from cars_data where cars_data.mpg >= 15", False),
    # ORDER BY is an ordered list: permutation mismatches
    ("cars", "select cars_data.id from cars_data order by cars_data.mpg, cars_data.year",
     "select cars_data.id from cars_data order by cars_data.year, cars_data.mpg", False),
    # direction change mismatches
    ("social", "select tweets.id from tweets order by tweets.id",
     "select tweets.id from tweets order by tweets.id desc", False),
    # limit change mismatches
    ("social", "select tweets.id from tweets limit 1",
     "select tweets.id from tweets limit 2", False),
    # missing limit mismatches
    ("social", "select tweets.id from tweets limit 1",
     "select tweets.id from tweets", False),
    # set-op kind change mismatches
    ("hr", "select employee.name from employee union select employee.name from employee",
     "select employee.name from employee intersect select employee.name from employee",
     False),
    # set-op right-side difference mismatches
    ("hr", "select employee.name from employee union "
           "select employee.name from employee where employee.age > 40",
     "select employee.name from employee union "
     "select employee.name from employee where employee.age > 50", False),
    # extra table mismatches
    ("hr", "select employee.name from employee",
     "select employee.name from employee join evaluation on "
     "employee.employee_id = evaluation.employee_id", False),
    # subquery-internal difference mismatches
    ("cars", "select count(*) from cars_data where cars_data.accelerate > "
             "(select max(cars_data.horsepower) from cars_data)",
     "select count(*) from cars_data where cars_data.accelerate > "
     "(select min(cars_data.horsepower) from cars_data)", False),
    # OR subtrees compare structurally, not as sets
    ("social", "select tweets.id from tweets where tweets.uid = 1 or tweets.id = 2",
     "select tweets.id from tweets where tweets.uid = 1 or tweets.id = 2", True),
    # where dropped mismatches
    ("social", "select tweets.id from tweets where tweets.uid = 1",
     "select tweets.id from tweets", False),
]


def test_em_suite_size():
    assert len(EM_SUITE) >= 20


def test_em_suite(schemas):
    for db, left, right, expected in EM_SUITE:
        a = parse_sql(left, schemas[db])
        b = parse_sql(right, schemas[db])
        assert exact_set_match(a, b) is expected, (left, right)
        assert exact_set_match(b, a) is expected  # symmetry
        assert exact_set_match(a, a) and exact_set_match(b, b)  # reflexivity


def test_equal_canonical_text_implies_exact_set_match(schemas):
    # synthesize_train skips a beam entry whose canonical text equals the
    # gold's as correct without computing exact set match; that holds
    # because render is injective on normalized ASTs. The fuzzer builds normalized ASTs; each pair is
    # checked as it made them, and its gold against a parse of its text.
    fuzzer = QueryFuzzer(schemas, seed=1415)
    equal = 0
    for _ in range(2000):
        db_id, wrong, gold = fuzzer.pair()
        for x, y in ((wrong, gold), (parse_sql(render(gold), schemas[db_id]), gold)):
            if render(x) == render(y):
                equal += 1
                assert exact_set_match(x, y), render(x)
    assert equal >= 2000


# ---------------------------------------------------------------------------
# Execution match


_NAMES = [("Ada",), ("Bo",), ("Cy",)]


@pytest.mark.parametrize("pred,expected", [
    (_NAMES, True), (_NAMES[::-1], True), (_NAMES[:2], False), (_NAMES + _NAMES[:1], False)])
def test_ex_compares_multisets_when_gold_unordered(pred, expected):
    assert execution_match(pred, _NAMES, gold_ordered=False) is expected


@pytest.mark.parametrize("pred,expected", [(_NAMES, True), (_NAMES[::-1], False)])
def test_ex_compares_sequences_when_gold_ordered(pred, expected):
    assert execution_match(pred, _NAMES, gold_ordered=True) is expected


@pytest.mark.parametrize("pred,expected", [
    ([(3.0, "a")], True), ([(3, "a")], True), ([("3", "a")], False), ([(3, "A")], False)])
def test_ex_compares_numeric_cells_as_numbers(pred, expected):
    assert execution_match(pred, [(3, "a")], gold_ordered=False) is expected


@pytest.mark.parametrize("ordered", [False, True])
def test_ex_compares_big_integers_exactly(ordered):
    # 2**53 + 1 is the first integer that no float holds.
    big = 2 ** 53
    assert execution_match([(big + 1,)], [(big,)], gold_ordered=ordered) is False
    assert execution_match([(big + 1, "a")], [(big + 1, "a")], gold_ordered=ordered) is True
    assert execution_match([(float(big),)], [(big,)], gold_ordered=ordered) is True


@pytest.mark.parametrize("pred,gold", [(None, []), ([], None), (None, None),
                                       (None, _NAMES), (_NAMES, None)])
def test_ex_rejected_query_never_matches(pred, gold):
    for ordered in (False, True):
        assert execution_match(pred, gold, gold_ordered=ordered) is False


def test_ex_empty_results_match():
    assert execution_match([], [], gold_ordered=False) is True


def test_query_rows_returns_the_rows_or_none_when_rejected(db_dir):
    with SqliteBackend(db_dir) as backend:
        assert query_rows(backend, "select count(*) from employee", "hr") == [(3,)]
        assert query_rows(backend, "select nope from employee", "hr") is None
        with pytest.raises(BackendUnavailable):
            query_rows(backend, "select 1", "nonexistent")


def test_ex_semantically_equal_but_textually_different(db_dir):
    pred = "select employee.name from employee where employee.age > 0"
    gold = "select employee.name from employee"
    with SqliteBackend(db_dir) as backend:
        assert execution_match(query_rows(backend, pred, "hr"), query_rows(backend, gold, "hr"),
                               gold_ordered=False) is True


def test_ex_missing_database_raises(db_dir):
    backend = SqliteBackend(db_dir)
    with pytest.raises(BackendUnavailable):
        backend.execute("select 1", "nonexistent")


@pytest.mark.parametrize("ext", [".db", ".sqlite3"])
def test_backend_finds_the_other_database_file_names(tmp_path, ext):
    (tmp_path / "other").mkdir()
    sqlite3.connect(tmp_path / "other" / f"other{ext}").close()
    with SqliteBackend(tmp_path) as backend:
        assert backend.execute("select 1", "other") == [(1,)]


def test_backend_is_read_only(db_dir):
    backend = SqliteBackend(db_dir)
    with pytest.raises(Exception):
        backend.execute("drop table employee", "hr")
    assert backend.execute("select count(*) from employee", "hr") == [(3,)]


def test_backend_closes_its_connections_when_collected(db_dir, monkeypatch):
    opened = []
    connect = sqlite3.connect
    monkeypatch.setattr(sqlite3, "connect",
                        lambda *a, **k: opened.append(connect(*a, **k)) or opened[-1])
    backend = SqliteBackend(db_dir)
    backend.execute("select 1", "hr")
    del backend
    with pytest.raises(sqlite3.ProgrammingError):
        opened[0].execute("select 1")


def test_backend_opens_one_connection_per_database(db_dir, monkeypatch):
    opened = []
    connect = sqlite3.connect
    monkeypatch.setattr(sqlite3, "connect", lambda *a, **k: opened.append(a) or connect(*a, **k))
    with SqliteBackend(db_dir) as backend:
        for _ in range(5):
            for db_id in ("hr", "shop", "hr"):
                backend.execute("select 1", db_id)
    assert len(opened) == 2


def test_backend_connection_survives_an_execution_error(db_dir):
    with SqliteBackend(db_dir) as backend:
        with pytest.raises(ExecutionError):
            backend.execute("select nope from employee", "hr")
        with pytest.raises(ExecutionError):
            backend.execute("select 1; select 2", "hr")
        assert backend.execute("select count(*) from employee", "hr") == [(3,)]


_LIKE = "select name from employee where name like 'ada'"


@pytest.mark.parametrize("stmt", [
    "attach database ':memory:' as other", "detach database main", "begin",
    "savepoint s", "pragma case_sensitive_like=1", "pragma case_sensitive_like(1)",
    "create temp table t (a)", "create temp view v as select 1"])
def test_backend_refuses_statements_that_change_the_connection(db_dir, stmt):
    with SqliteBackend(db_dir) as backend:
        assert backend.execute(_LIKE, "hr") == [("Ada",)]
        with pytest.raises(ExecutionError):
            backend.execute(stmt, "hr")
        fresh = sqlite3.connect(f"file:{db_dir / 'hr' / 'hr.sqlite'}?mode=ro", uri=True)
        try:
            assert backend.execute(_LIKE, "hr") == fresh.execute(_LIKE).fetchall()
        finally:
            fresh.close()
        assert backend.execute("select count(*) from sqlite_temp_master", "hr") == [(0,)]


def test_backend_close_closes_every_connection(db_dir, monkeypatch):
    opened = []
    connect = sqlite3.connect
    monkeypatch.setattr(sqlite3, "connect",
                        lambda *a, **k: opened.append(connect(*a, **k)) or opened[-1])
    backend = SqliteBackend(db_dir)
    backend.execute("select 1", "hr")
    backend.execute("select 1", "cars")
    backend.close()
    backend.close()
    for conn in opened:
        with pytest.raises(sqlite3.ProgrammingError):
            conn.execute("select 1")
    # a closed backend opens again on use
    assert backend.execute("select count(*) from employee", "hr") == [(3,)]
    backend.close()


def test_backend_never_keeps_unavailability(tmp_path):
    with SqliteBackend(tmp_path) as backend:
        with pytest.raises(BackendUnavailable):
            backend.execute("select 1", "late")
        (tmp_path / "late").mkdir()
        sqlite3.connect(tmp_path / "late" / "late.sqlite").close()
        assert backend.execute("select 1", "late") == [(1,)]


class _CountingBackend:
    def __init__(self, backend):
        self.backend = backend
        self.calls = 0

    def execute(self, sql, db_id):
        self.calls += 1
        return self.backend.execute(sql, db_id)


class _RejectingBackend:
    def execute(self, sql, db_id):
        raise ExecutionError("no such column")


@pytest.mark.parametrize("pred,expected,calls", [
    ("SELECT name FROM employee", True, 1),
    ("select employee.name from employee where employee.age > 0", True, 2),
    ("select employee.age from employee", False, 2)])
def test_eval_runs_identical_texts_once(schemas, db_dir, pred, expected, calls):
    line = json.dumps({"db_id": "hr", "gold": "select employee.name from employee",
                       "pred": pred})
    with SqliteBackend(db_dir) as sqlite:
        counting = _CountingBackend(sqlite)
        assert _eval_line(line, schemas, counting).ex is expected
        assert counting.calls == calls
    rejecting = _CountingBackend(_RejectingBackend())
    assert _eval_line(line, schemas, rejecting).ex is False
    assert rejecting.calls == calls


def _has_top_level_order(sql: str) -> bool:
    """The reference the AST's order flag is checked against: an ORDER BY
    outside every parenthesis of the query text."""
    depth = 0
    for tok in tokenize(sql):
        if tok.text == "(":
            depth += 1
        elif tok.text == ")":
            depth -= 1
        elif depth == 0 and tok.text == "order":
            return True
    return False


def test_order_flag_from_the_ast_matches_the_text_scan(schemas):
    fuzzer = QueryFuzzer(schemas, seed=909)
    seen = set()
    for _ in range(2000):
        _, query = fuzzer.query()
        flag = orders_result(query)
        assert flag == _has_top_level_order(render(query)), render(query)
        chained = query.set_op is not None
        seen.add((chained, flag, chained and bool(query.set_op.right.order_by)))
    assert {(True, True, True), (True, True, False), (True, False, False),
            (False, True, False), (False, False, False)} <= seen


# ---------------------------------------------------------------------------
# McNemar


def brute_force_p(b, c):
    n = b + c
    tail = sum(math.comb(n, i) for i in range(min(b, c) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def test_mcnemar_oracle_5_15():
    result = mcnemar_counts(5, 15)
    assert abs(result.p - brute_force_p(5, 15)) < 1e-12
    assert abs(result.p - 0.04139) <= 1e-6


def test_mcnemar_symmetric_case_never_significant():
    for k in (1, 3, 10, 25):
        result = mcnemar_counts(k, k)
        assert result.p >= 0.5
        assert result.p == 1.0  # clamped exact two-sided value


def test_mcnemar_degenerate():
    result = mcnemar_counts(0, 0)
    assert result.p == 1.0
    assert result.degenerate is True


def test_mcnemar_symmetry_and_monotonicity():
    assert mcnemar_counts(3, 9).p == mcnemar_counts(9, 3).p
    total = 24
    last = 1.1
    for b in range(total // 2, -1, -1):  # widening |b - c| at fixed b + c
        p = mcnemar_counts(b, total - b).p
        assert p <= last + 1e-15
        last = p
