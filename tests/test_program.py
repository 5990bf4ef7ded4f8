import pytest

from sqlpatch.errors import ProgramError
from sqlpatch.program import (
    Assign, EditProgram, Pop, parse_program, render_program,
)


def test_render_assignment():
    program = EditProgram((Assign(("orderBy",), "order by tweets.createdate"),))
    assert render_program(program) == 'sql["orderBy"] = "order by tweets.createdate"'


def test_render_nested_path():
    program = EditProgram((Assign(("where", "subquery0", "select"),
                                  "select cars_data.accelerate"),))
    assert render_program(program) == \
        'sql["where"]["subquery0"]["select"] = "select cars_data.accelerate"'


def test_pop_forms():
    assert render_program(EditProgram((Pop((), "groupBy"),))) == 'sql.pop("groupBy")'
    assert render_program(EditProgram((Pop(("where", "subquery0"), "limit"),))) == \
        'sql["where"]["subquery0"].pop("limit")'


def test_parse_round_trip():
    program = EditProgram((
        Pop((), "groupBy"),
        Assign(("orderBy",), "order by evaluation.bonus desc"),
        Assign(("where", "subquery0", "limit"), "limit 1"),
        Pop(("union",), "limit"),
    ))
    assert parse_program(render_program(program)) == program


def test_blank_lines_skipped():
    program = parse_program('\nsql.pop("groupBy")\n\n')
    assert program.stmts == (Pop((), "groupBy"),)
    assert parse_program('sql.pop("groupBy")\r\nsql.pop("limit")\r\n') == \
        EditProgram((Pop((), "groupBy"), Pop((), "limit")))


def test_whole_map_assignment_rejected():
    with pytest.raises(ProgramError):
        parse_program("sql = {}")


def test_non_sql_root_rejected():
    with pytest.raises(ProgramError, match="root variable"):
        parse_program('query["orderBy"] = "order by a.b"')


def test_unquoted_key_rejected():
    with pytest.raises(ProgramError, match="double-quoted"):
        parse_program('sql[orderBy] = "order by a.b"')


def test_invalid_key_rejected():
    with pytest.raises(ProgramError, match="invalid key"):
        parse_program('sql["orderby"] = "order by a.b"')


def test_error_carries_line_number():
    with pytest.raises(ProgramError) as err:
        parse_program('sql.pop("groupBy")\nsql["x"')
    assert err.value.line == 2
    assert str(err.value).startswith("line 2: ")
    with pytest.raises(ProgramError) as err:
        parse_program('sql.pop("groupBy")\n\nsql["nope"] = "limit 1"')
    assert err.value.line == 3
    assert str(err.value) == "line 3: invalid key 'nope'"


def test_other_method_calls_rejected():
    with pytest.raises(ProgramError):
        parse_program('sql.update("orderBy")')


@pytest.mark.parametrize("literal,escaped", [
    ('"X"', '\\"X\\"'), ('"a\rb"', "a\\rb"), ('"a\x01b"', "a\\u0001b"),
    ('"a\tb"', "a\\tb"), ('"a\x85b"', "a\x85b"), ('"a\u2028b"', "a\u2028b"),
    ('"a\u2029b"', "a\u2029b")], ids=["quote", "cr", "control", "tab", "nel", "ls", "ps"])
def test_escaped_value_round_trip(literal, escaped):
    program = EditProgram((Assign(("where",), f"where a.b = {literal}"),))
    text = render_program(program)
    assert escaped in text
    assert parse_program(text) == program
