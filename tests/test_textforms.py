"""Boundaries of the two JSON-based text forms: clause-dictionary text (maps
and entry fragments) and edit programs."""

import re

import pytest

from paperdata import TABLES_JSON
from queryfuzz import QueryFuzzer

from sqlpatch.cli import main
from sqlpatch.clausemap import ClauseMap, decompose
from sqlpatch.diffs import diff_program
from sqlpatch.errors import ProgramError, PyDictError
from sqlpatch.program import Assign, EditProgram, parse_program, render_program
from sqlpatch.pydict import (
    parse_entry_fragments, parse_pydict, render_entry_fragment, render_pydict,
)
from sqlpatch.schema import schema_from_entry

LONG_INT = "1" * 5000  # past int's default 4,300-digit limit
MAP_HEAD = 'sql = {"select": "select a.b", "from": "from a"'  # a map with its "}" left off

# (reader, text): each is malformed, and the reader must raise its own
# error class for it, never another exception.
MALFORMED = [
    # values that are not JSON strings or objects
    *[(parse_pydict, f'{MAP_HEAD}, "where": {value}}}') for value in (
        LONG_INT, "-" + LONG_INT, "NaN", "Infinity", "-Infinity", "true", "false",
        "null", "5", "1.5", "1e999", '["where a.b = 1"]')],
    (parse_pydict, f'{MAP_HEAD}, "where": {{"clause": {LONG_INT}}}}}'),
    (parse_pydict, f'{MAP_HEAD}, "where": {{"clause": "where a.b = (subquery0)", '
                   f'"subquery0": {LONG_INT}}}}}'),
    *[(parse_entry_fragments, f'"where": {value}') for value in (
        LONG_INT, "NaN", "Infinity", "true", "null", "5", '["where a.b = 1"]')],
    *[(parse_program, f'sql["where"] = {value}') for value in (
        LONG_INT, "NaN", "Infinity", "true", "null", "5", '["where a.b = 1"]')],
    # empty text, and text around the one value
    (parse_pydict, ""), (parse_pydict, "sql"), (parse_pydict, "sql ="),
    (parse_pydict, "sqlx = {}"), (parse_pydict, 'sql = "select a.b"'), (parse_pydict, "sql = []"),
    (parse_pydict, 'sql = {"clause": "select a.b"}'),
    (parse_pydict, MAP_HEAD + "} x"), (parse_pydict, MAP_HEAD + "}}"), (parse_pydict, MAP_HEAD + "} {}"),
    (parse_entry_fragments, ""), (parse_entry_fragments, " \t\r\n"),
    (parse_entry_fragments, '"where": "where a.b = 1" x'),
    (parse_entry_fragments, '"where": "where a.b = 1",'),
    (parse_entry_fragments, '"where": "where a.b = 1"}, {"limit": "limit 1"'),
    (parse_program, 'sql["where"] = "where a.b = 1" x'),
    (parse_program, 'sql.pop("limit") x'), (parse_program, 'sql.pop("limit"'),
    (parse_program, 'sql = "select a.b from a"'), (parse_program, "sql = {}"),
    (parse_program, "sql"), (parse_program, 'sqlx["where"] = "where a.b = 1"'),
    (parse_program, 'sql.popx("limit")'), (parse_program, 'sql["where"]'),
    # strings
    (parse_pydict, f'{MAP_HEAD}, "where": "where a.b = 1'),
    (parse_pydict, f'{MAP_HEAD}, "where": "where a.b = \\q"}}'),
    (parse_entry_fragments, '"where": "where a.b = \\u12"'),
    (parse_program, 'sql["where"] = "where a.b = 1'),
    (parse_program, 'sql["wh\\qere"] = "where a.b = 1"'),
    (parse_program, 'sql["where"] = \'where a.b = 1\''),
    # non-JSON whitespace between elements (allowed inside strings, below)
    *[(read, text.replace(" ", ch, 1)) for ch in ("\x0c", "\xa0", "\u2028")
      for read, text in ((parse_pydict, MAP_HEAD + "}"),
                         (parse_entry_fragments, '"where": "where a.b = 1"'))],
    # keys
    (parse_pydict, f'{MAP_HEAD}, "select": "select a.c"}}'),
    (parse_pydict, f'{MAP_HEAD}, "selekt": "select a.c"}}'),
    (parse_entry_fragments, '"limit": "limit 1", "limit": "limit 2"'),
    (parse_entry_fragments, '"clause": "where a.b = 1"'),
    (parse_program, 'sql["orderby"] = "order by a.b"'),
    (parse_program, 'sql.pop("subquery")'),
    # values that are not clause text of their key, at any depth, or not of
    # their key's kind
    *[(read, text) for value in (
        '"order by t.b"', '"where t.a = 2 )"', '"t.a = 2"', '"where"',
        '{"clause": "order by t.a in (subquery0)", '
        '"subquery0": {"select": "select t.a", "from": "from t"}}',
        '{"clause": "where t.a in (subquery0)", '
        '"subquery0": {"select": "from t", "from": "from t"}}',
        '{"select": "select t.a", "from": "from t"}')
      for read, text in ((parse_pydict, f'{MAP_HEAD}, "where": {value}}}'),
                         (parse_entry_fragments, f'"where": {value}'))],
    (parse_pydict, f'{MAP_HEAD}, "union": "union select a.b from a"}}'),
    (parse_entry_fragments, '"union": "union select a.b from a"'),
    (parse_entry_fragments, '"union": "select a.b from a"'),
]


@pytest.mark.parametrize("read, text", MALFORMED,
                         ids=[f"{read.__name__}-{text[:40]!r}" for read, text in MALFORMED])
def test_malformed_text_raises_its_reader_error(read, text):
    with pytest.raises(ProgramError if read is parse_program else PyDictError):
        read(text)


def test_program_whitespace_between_parts_is_any_whitespace():
    for ch in ("\x0c", "\xa0", "\u2028"):
        text = f'{ch}sql{ch}[{ch}"where"{ch}]{ch}={ch}"where a.b = 1"{ch}'
        assert parse_program(text) == EditProgram((Assign(("where",), "where a.b = 1"),))


@pytest.mark.parametrize("ch", ["\x0c", "\xa0", "\u2028", "\x85", "\x01"])
def test_any_character_inside_a_string_round_trips(ch):
    where = f"where a.b = 'x{ch}y'"
    cm = ClauseMap({"select": "select a.b", "from": "from a", "where": where})
    for pretty in (False, True):
        assert parse_pydict(render_pydict(cm, pretty)) == cm
    assert parse_entry_fragments(render_entry_fragment("where", where)) == [("where", where)]
    program = EditProgram((Assign(("where",), where),))
    assert parse_program(render_program(program)) == program


@pytest.mark.parametrize("read, text, offset", [
    (parse_entry_fragments, '"where": @ ', 9),
    (parse_entry_fragments, '"where": "where a.b = 1", "limit": @ ', 35),
    (parse_entry_fragments, '"where": "where a.b = 1"} @', 26),
    (parse_entry_fragments, '"where": "where a.b = 1"@ ', 24),
    (parse_entry_fragments, '"where": "where a.b = 1",', 25),  # at the end of the text
    (parse_pydict, 'sql = {"select": @}', 17),
    (parse_pydict, ' sql = {"select": "select a.b"} @', 32),
])
def test_error_offset_points_into_the_readers_own_text(read, text, offset):
    with pytest.raises(PyDictError, match=f"at offset {offset}$"):
        read(text)
    assert text[offset:offset + 1] in ("@", "")


def test_rendered_forms_read_back():
    schemas = {entry["db_id"]: schema_from_entry(entry) for entry in TABLES_JSON}
    fuzzer = QueryFuzzer(schemas, seed=2411)
    maps = [decompose(fuzzer.query()[1]) for _ in range(300)]
    for cm, other in zip(maps, maps[1:] + maps[:1]):
        for pretty in (False, True):
            assert parse_pydict(render_pydict(cm, pretty)) == cm
        pairs = list(cm.items())
        for key, entry in pairs:
            assert parse_entry_fragments(render_entry_fragment(key, entry)) == [(key, entry)]
        joined = ", ".join(render_entry_fragment(key, entry) for key, entry in pairs)
        assert parse_entry_fragments(joined) == pairs
        program = diff_program(cm, other)
        assert parse_program(render_program(program)) == program


def test_clause_pydict_text_under_another_key_is_refused(tmp_path, capsys):
    """An entry's text must be a clause of its own key: `apply` and `to-sql`
    both exit 1 on a where entry that holds an order by clause."""
    wrong, edits, pydict = tmp_path / "wrong.sql", tmp_path / "edits.txt", tmp_path / "q.pydict"
    wrong.write_text("select t.a from t group by t.a", encoding="utf-8")
    edits.write_text('<Insert> "where": "order by t.b" <InsertEnd>', encoding="utf-8")
    pydict.write_text(f'{MAP_HEAD}, "where": "order by t.b"}}', encoding="utf-8")
    assert main(["apply", "--granularity", "clause-pydict", "--wrong", str(wrong),
                 "--edits", str(edits)]) == 1
    assert capsys.readouterr() == (
        "", "error: malformed action content: clause text for 'where' must start with "
            "'where': 'order by t.b'\n")
    assert main(["to-sql", str(pydict)]) == 1
    assert capsys.readouterr() == (
        "", "error: clause text for 'where' must start with 'where': 'order by t.b'\n")


def test_to_sql_on_an_overlong_number_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "q.pydict"
    path.write_text(f'{MAP_HEAD}, "where": {LONG_INT}}}', encoding="utf-8")
    assert main(["to-sql", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
