import pytest

from paperdata import CASE_CARS, CASE_HR, CASE_TWEETS, CASES

from sqlpatch.clausemap import ClauseMap, decompose
from sqlpatch.errors import PyDictError
from sqlpatch.parse import parse_sql
from sqlpatch.pydict import parse_entry_fragments, parse_pydict, render_pydict


def test_compact_fixture_text(schemas):
    cm = decompose(parse_sql(CASE_TWEETS.wrong, schemas["social"]))
    assert render_pydict(cm) == CASE_TWEETS.pydict_wrong


def test_group_by_key_spelling(schemas):
    cm = decompose(parse_sql(CASE_HR.wrong, schemas["hr"]))
    assert '"groupBy": "group by evaluation.employee_id"' in render_pydict(cm)


def test_empty_map():
    assert render_pydict(ClauseMap()) == "sql = {}"
    assert parse_pydict("sql = {}") == ClauseMap()


def test_round_trip_both_modes(schemas):
    for case in CASES:
        for sql in (case.wrong, case.gold):
            cm = decompose(parse_sql(sql, schemas[case.db_id]))
            assert parse_pydict(render_pydict(cm)) == cm
            assert parse_pydict(render_pydict(cm, pretty=True)) == cm


def test_pretty_shape(schemas):
    cm = decompose(parse_sql(CASE_CARS.wrong, schemas["cars"]))
    pretty = render_pydict(cm, pretty=True)
    lines = pretty.splitlines()
    assert lines[0] == "sql = {"
    assert lines[1].startswith('  "select": ')
    assert any(line.startswith('    "clause": ') for line in lines)
    assert lines[-1] == "}"


def test_whitespace_tolerance():
    text = '  sql   =   { "select" :\n\t"select a.b" ,  "from": "from a" } '
    cm = parse_pydict(text)
    assert cm.get("select") == "select a.b"


def test_unterminated_mapping():
    with pytest.raises(PyDictError):
        parse_pydict('sql = {"select": "select a.b"')


def test_unknown_clause_key():
    with pytest.raises(PyDictError, match="unknown clause key"):
        parse_pydict('sql = {"selekt": "select a.b"}')


def test_duplicate_key():
    with pytest.raises(PyDictError, match="duplicate"):
        parse_pydict('sql = {"select": "select a.b", "select": "select a.c"}')


def test_missing_assignment():
    with pytest.raises(PyDictError):
        parse_pydict('{"select": "select a.b"}')


@pytest.mark.parametrize("literal,escaped", [
    ('"Q"', '\\"Q\\"'), ('"a\rb"', "a\\rb"), ('"a\x01b"', "a\\u0001b"),
    ('"a\tb"', "a\\tb")], ids=["quote", "cr", "control", "tab"])
def test_escaped_quotes_round_trip(literal, escaped):
    cm = ClauseMap({"select": "select a.b", "from": "from a",
                    "where": f"where a.b = {literal}"})
    text = render_pydict(cm)
    assert escaped in text
    assert parse_pydict(text) == cm


def test_entry_fragments():
    pairs = parse_entry_fragments(
        '"orderBy": "order by cars_data.horsepower desc", "limit": "limit 1"')
    assert [k for k, _ in pairs] == ["orderBy", "limit"]
    with pytest.raises(PyDictError):
        parse_entry_fragments('"nope": "x"')
