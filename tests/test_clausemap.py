import hashlib
import json
import re

import pytest

from paperdata import CASE_CARS, CASE_TWEETS, CASES
from queryfuzz import QueryFuzzer

from sqlpatch.cli import main
from sqlpatch.clausemap import (
    ClauseMap, Composite, clause_entries, decompose, entry_from_clause_text, entry_sql,
    sql_to_clause_map, to_sql,
)
from sqlpatch.editscript import EditAction, EditScript
from sqlpatch.errors import ApplyError, MapError
from sqlpatch.parse import parse_sql
from sqlpatch.pydict import parse_pydict, render_pydict
from sqlpatch.vm import apply_clause_edits


def test_decompose_simple(schemas):
    cm = decompose(parse_sql(CASE_TWEETS.wrong, schemas["social"]))
    assert cm.keys() == ["select", "from", "orderBy"]
    assert cm.get("select") == "select tweets.text"
    assert cm.get("from") == "from tweets"
    assert cm.get("orderBy") == "order by tweets.text"


def test_decompose_subquery(schemas):
    cm = decompose(parse_sql(CASE_CARS.wrong, schemas["cars"]))
    where = cm.get("where")
    assert isinstance(where, Composite)
    assert where.clause == "where cars_data.accelerate > (subquery0)"
    sub = where.subqueries["subquery0"]
    assert sub.get("select") == "select max(cars_data.horsepower)"
    assert sub.get("from") == "from cars_data"


def test_minimal_query_map(schemas):
    cm = decompose(parse_sql("select tweets.id from tweets", schemas["social"]))
    assert cm.keys() == ["select", "from"]


def test_to_sql_round_trip(schemas):
    for case in CASES:
        for sql in (case.wrong, case.gold):
            cm = decompose(parse_sql(sql, schemas[case.db_id]))
            assert to_sql(cm) == sql


def test_to_sql_missing_from():
    cm = ClauseMap({"select": "select a.b"})
    with pytest.raises(MapError, match="select and from"):
        to_sql(cm)


def test_set_op_nested_map(schemas):
    sql = ("select employee.name from employee union "
           "select employee.name from employee where employee.age > 40")
    cm = decompose(parse_sql(sql, schemas["hr"]))
    right = cm.get("union")
    assert isinstance(right, ClauseMap)
    assert right.get("where") == "where employee.age > 40"
    assert to_sql(cm) == sql


def test_lexical_map_matches_decompose(schemas):
    for case in CASES:
        for sql in (case.wrong, case.gold):
            ast_map = decompose(parse_sql(sql, schemas[case.db_id]))
            assert sql_to_clause_map(sql) == ast_map


def test_decompose_matches_pinned_digest(schemas):
    # The maps of 500 fuzzed queries (159 with subqueries), pinned as a
    # sha256 prefix of their pydict texts when decompose walked the AST.
    fuzzer = QueryFuzzer(schemas, seed=2024)
    digest = hashlib.sha256()
    for _ in range(500):
        digest.update(render_pydict(decompose(fuzzer.query()[1])).encode() + b"\n")
    assert digest.hexdigest()[:16] == "e684101f44d81fac"


def test_canonical_key_order_enforced():
    cm = ClauseMap()
    cm.set("limit", "limit 3")
    cm.set("select", "select a.b")
    cm.set("from", "from a")
    assert cm.keys() == ["select", "from", "limit"]


def test_unknown_key_rejected():
    with pytest.raises(MapError, match="unknown clause key"):
        ClauseMap({"order_by": "order by a.b"})


def test_composite_placeholder_validation():
    with pytest.raises(MapError):
        Composite("where a > (subquery1)", {"subquery1": ClauseMap()})
    with pytest.raises(MapError):
        Composite("where a > (subquery0)", {})


@pytest.mark.parametrize("value", ["'subquery0'", "'a subquery1 b'", '"subquery0"'])
def test_placeholder_text_inside_a_string_literal_is_a_value(schemas, value):
    sql = (f"select tweets.id from tweets where tweets.text = {value} "
           "and tweets.uid in (select tweets.uid from tweets)")
    cm = decompose(parse_sql(sql, schemas["social"]))
    assert cm.get("where").clause == \
        f"where tweets.text = {value} and tweets.uid in (subquery0)"
    assert parse_pydict(render_pydict(cm)) == cm
    assert sql_to_clause_map(sql) == cm
    assert to_sql(cm) == sql


def test_entry_from_clause_text_extracts_subquery():
    entry = entry_from_clause_text(
        "where", "where cars_data.accelerate > (select max(cars_data.horsepower) "
                 "from cars_data)")
    assert isinstance(entry, Composite)
    assert entry.clause == "where cars_data.accelerate > (subquery0)"
    assert entry_sql("where", entry) == ("where cars_data.accelerate > (select "
                                         "max(cars_data.horsepower) from cars_data)")


def test_entry_from_clause_text_checks_keyword():
    with pytest.raises(MapError):
        entry_from_clause_text("where", "order by a.b")


def test_clause_entries():
    entries = clause_entries("order by cars_data.horsepower desc limit 1")
    assert entries == [("orderBy", "order by cars_data.horsepower desc"),
                       ("limit", "limit 1")]


def test_dangling_placeholder_cannot_be_built():
    with pytest.raises(MapError):
        Composite("where a > (subquery0) and b < (subquery1)",
                  {"subquery0": ClauseMap()})


_EMPTY_UNION = "set operation 'union' has no query after it"
_UNBALANCED = "unbalanced parenthesis in clause text"
_NO_BODY = "clause '{}' has nothing after its keyword"
_NO_BY = "'group' must be followed by 'by': 'group t.b'"

# Clause texts, each the value of sql["where"]; what the readers of a
# clause run (sql_to_clause_map, clause_entries) raise on it, or None when
# they read it; and what the readers of one clause value raise
# (entry_from_clause_text, and an edit program's assignment).
READER_CASES = [
    ("where t.a = 1 union", _EMPTY_UNION, _EMPTY_UNION),
    ("where t.a in (select t.a from t union)", _EMPTY_UNION, _EMPTY_UNION),
    ("where t.a = 1) and t.b = 2", _UNBALANCED, _UNBALANCED),
    ("where t.a in (select t.a from t", _UNBALANCED, _UNBALANCED),
    ("where (t.a = 1", _UNBALANCED, _UNBALANCED),
    ("where t.a = 1 group by t.b", None,
     "clause text for 'where' holds a second clause, 'groupBy': 'where t.a = 1 group by t.b'"),
    ("where t.a = 1 )", _UNBALANCED, _UNBALANCED),
    ("order by t.a", None, "clause text for 'where' must start with 'where': 'order by t.a'"),
    ("where", _NO_BODY.format("where"), _NO_BODY.format("where")),
    ("where t.a = 1 group t.b", _NO_BY, _NO_BY),
    ("where t.a = 1 order by", _NO_BODY.format("order by"), _NO_BODY.format("order by")),
    ("where t.a in (select from t)", _NO_BODY.format("select"), _NO_BODY.format("select")),
]


@pytest.mark.parametrize("text, run_error, value_error", READER_CASES,
                         ids=[text for text, _, _ in READER_CASES])
def test_every_reader_of_clause_text_ends_a_clause_alike(
        text, run_error, value_error, tmp_path, capsys):
    if run_error is None:
        assert [key for key, _ in clause_entries(text)] == sql_to_clause_map(text).keys()
    else:
        for read in (sql_to_clause_map, clause_entries):
            with pytest.raises(MapError, match=f"^{re.escape(run_error)}$"):
                read(text)
    with pytest.raises(MapError, match=f"^{re.escape(value_error)}$"):
        entry_from_clause_text("where", text)
    wrong, program = tmp_path / "wrong.sql", tmp_path / "program.txt"
    wrong.write_text("select t.a from t group by t.c", encoding="utf-8")
    program.write_text(f'sql["where"] = {json.dumps(text)}\n', encoding="utf-8")
    assert main(["exec-program", "--wrong", str(wrong), "--program", str(program)]) == 1
    assert capsys.readouterr() == ("", f'error: cannot assign sql["where"]: {value_error}\n')


@pytest.mark.parametrize("key, value", [("groupBy", "group t.b"), ("where", "where")])
def test_a_keyword_alone_is_not_a_clause(key, value, tmp_path, capsys):
    """Each reader of clause text refuses it, on select t.a from t."""
    wrong, program = tmp_path / "wrong.sql", tmp_path / "program.txt"
    wrong.write_text("select t.a from t", encoding="utf-8")
    program.write_text(f"sql[{json.dumps(key)}] = {json.dumps(value)}\n", encoding="utf-8")
    assert main(["exec-program", "--wrong", str(wrong), "--program", str(program)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot assign sql[{json.dumps(key)}]: ")
    script = EditScript("clause-sql", (EditAction("insert", new=value),))
    with pytest.raises(ApplyError, match="^malformed action content: "):
        apply_clause_edits(sql_to_clause_map("select t.a from t"), script)
    for sql in (f"select t.a from t {value}", "select from t"):
        with pytest.raises(MapError):
            sql_to_clause_map(sql)


def _walk(cm: ClauseMap):
    """Every (key, entry) of a clause map and of the maps nested in it."""
    for key, entry in cm.items():
        yield key, entry
        nested = entry.subqueries.values() if isinstance(entry, Composite) else \
            [entry] if isinstance(entry, ClauseMap) else []
        for sub in nested:
            yield from _walk(sub)


def test_the_reader_reads_back_what_the_maps_write(schemas):
    fuzzer = QueryFuzzer(schemas, seed=2310)
    nested = 0
    for _ in range(400):
        cm = decompose(fuzzer.query()[1])
        assert clause_entries(to_sql(cm)) == list(cm.items())
        for key, entry in _walk(cm):
            nested += not isinstance(entry, str)
            assert entry_from_clause_text(key, entry_sql(key, entry)) == entry
    assert nested > 100
