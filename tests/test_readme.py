"""README.md defines the byte-exact formats; its examples run as written."""

import ast
import re
from pathlib import Path

from sqlpatch.clausemap import to_sql
from sqlpatch.editscript import parse_edits
from sqlpatch.program import Assign, Pop, parse_program
from sqlpatch.pydict import parse_pydict, render_pydict

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(heading: str) -> list[str]:
    """The fenced code blocks of the README section under heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n{heading}\n")
    end = text.find("\n##", start + 1)  # a "# " line may be a code comment
    section = text[start:end if end != -1 else len(text)]
    return re.findall(r"```[a-z]*\n(.*?)```", section, re.DOTALL)


def test_quick_tour_prints_what_it_says():
    """Each expression statement is followed by a ``# repr`` comment line
    that matches its value."""
    code, = _blocks("## Quick tour")
    lines = code.split("\n")
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(code).body:
        source = ast.get_source_segment(code, stmt)
        if isinstance(stmt, ast.Expr):
            assert repr(eval(source, namespace)) == lines[stmt.end_lineno].removeprefix("# ")
            checked += 1
        else:
            exec(source, namespace)
    assert checked == 4


def test_compact_clause_dictionary_example_round_trips():
    example = _blocks("### Clause-dictionary text")[0].strip()
    cm = parse_pydict(example)
    assert render_pydict(cm) == example
    assert to_sql(cm).startswith("select count(*) from cars_data where")


def test_edit_script_example_parses():
    example = _blocks("### Edit scripts")[0]
    script = parse_edits(" ".join(example.split("\n")), "token")
    assert [action.kind for action in script.actions] == ["replace", "insert", "delete"]


def test_edit_program_example_parses():
    example = _blocks("### Edit programs")[1]
    program = parse_program(example)
    assert [type(stmt) for stmt in program] == [Assign, Pop]
