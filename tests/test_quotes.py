"""A quote character written twice inside a literal stands for itself, and
the literal's text is kept verbatim through every text form."""

import json
import subprocess
import sys

import pytest

from sqlpatch.clausemap import decompose, sql_to_clause_map, to_sql
from sqlpatch.metrics import exact_set_match
from sqlpatch.nodes import Literal
from sqlpatch.parse import parse_sql
from sqlpatch.pydict import parse_pydict, render_pydict
from sqlpatch.render import render
from sqlpatch.tokens import Token, tokenize

WRONG = ("select tweets.id from tweets where tweets.text = 'it''s' "
         "and tweets.uid in (select tweets.uid from tweets where tweets.text != '''')")
GOLD = ('select tweets.id from tweets where tweets.text = "say ""hi""" '
        "and tweets.uid in (select tweets.uid from tweets where tweets.text != 'a''b')")


@pytest.mark.parametrize("literal", ["'it''s'", "''''", "'a'''", "''", '"say ""hi"""'])
def test_a_doubled_quote_stays_inside_its_literal(literal):
    tokens = tokenize(f"where tweets.text = {literal} and tweets.id = 1")
    assert tokens[3] == Token(literal, "string-literal")
    assert [t.text for t in tokens[4:]] == ["and", "tweets.id", "=", "1"]


@pytest.mark.parametrize("text,value", [("'it''s'", "it's"), ("''''", "'"),
                                        ('"say ""hi"""', 'say "hi"'), ('"it\'\'s"', "it''s")])
def test_a_literal_value_reads_a_doubled_quote_as_one(text, value):
    assert Literal("string", text).value() == value


def test_exact_set_match_compares_literal_values(schemas):
    schema = schemas["social"]
    query = "select tweets.id from tweets where tweets.text = {}".format
    doubled = parse_sql(query("'it''s'"), schema)
    assert exact_set_match(doubled, parse_sql(query('"it\'s"'), schema))
    assert not exact_set_match(doubled, parse_sql(query("'it'"), schema))


def test_canonical_text_keeps_the_literal_verbatim(schemas):
    sql = ("SELECT T1.id FROM tweets AS T1 WHERE T1.text = 'It''s' "
           'OR T1.text = "say ""hi"""')
    assert render(parse_sql(sql, schemas["social"])) == (
        "select tweets.id from tweets where tweets.text = 'It''s' "
        'or tweets.text = "say ""hi"""')


@pytest.mark.parametrize("sql", [WRONG, GOLD])
def test_clause_map_and_pydict_round_trip(schemas, sql):
    cm = decompose(parse_sql(sql, schemas["social"]))
    assert parse_pydict(render_pydict(cm)) == cm
    assert sql_to_clause_map(sql) == cm
    assert to_sql(cm) == sql


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "sqlpatch.cli", *args],
                          capture_output=True, text=True)


@pytest.mark.parametrize("granularity", ["clause-sql", "clause-pydict", "program"])
def test_diff_then_apply_gives_the_gold(tables_json_path, tmp_path, granularity):
    schema = ["--schema", str(tables_json_path), "--db-id", "social"]
    (tmp_path / "w.sql").write_text(WRONG)
    (tmp_path / "g.sql").write_text(GOLD)
    diff = _cli("diff", *schema, "--granularity", granularity,
                "--wrong", str(tmp_path / "w.sql"), "--gold", str(tmp_path / "g.sql"))
    assert diff.returncode == 0, diff.stderr
    assert "'it''s'" in diff.stdout or "'a''b'" in diff.stdout
    (tmp_path / "e.txt").write_text(diff.stdout)
    applied = _cli("apply", *schema, "--granularity", granularity,
                   "--wrong", str(tmp_path / "w.sql"), "--edits", str(tmp_path / "e.txt"))
    assert applied.returncode == 0, applied.stderr
    assert applied.stdout == GOLD + "\n"


def test_a_doubled_quote_runs_on_a_database(tables_json_path, db_dir):
    lines = [json.dumps({"db_id": "social", "gold": "select tweets.id from tweets",
                         "pred": "select tweets.id from tweets where tweets.text != 'it''s'"}),
             json.dumps({"db_id": "social", "gold": "select tweets.id from tweets",
                         "pred": "select tweets.id from tweets where tweets.text = 'it''s'"})]
    proc = subprocess.run([sys.executable, "-m", "sqlpatch.cli", "eval", "--schema",
                           str(tables_json_path), "--db-dir", str(db_dir)],
                          input="\n".join(lines), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '{"em": false, "ex": true}\n{"em": false, "ex": false}\n'
