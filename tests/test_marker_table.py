"""The seven special-token markers are spelled once, in `editscript`'s table
of action forms; every other module writes and reads them through it."""

import ast
from pathlib import Path

import sqlpatch

SOURCES = sorted(Path(sqlpatch.__file__).parent.glob("*.py"))
MARKERS = ("<ReplaceOld>", "<ReplaceNew>", "<ReplaceEnd>", "<Insert>", "<InsertEnd>",
           "<Delete>", "<DeleteEnd>")


def _strings(node):
    """Every string constant under node, f-string parts included."""
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _with_markers(strings):
    return [s for s in strings if any(marker in s for marker in MARKERS)]


def test_no_other_module_spells_a_marker():
    assert len(SOURCES) > 10
    found = {f"{path.name}: {s!r}" for path in SOURCES if path.name != "editscript.py"
             for s in _with_markers(_strings(ast.parse(path.read_text(encoding="utf-8"))))}
    assert found == set()


def test_editscript_spells_each_marker_once_in_its_table():
    module = ast.parse((Path(sqlpatch.__file__).parent / "editscript.py").read_text(
        encoding="utf-8"))
    table, = [stmt for stmt in module.body if isinstance(stmt, ast.Assign)
              and [target.id for target in stmt.targets] == ["_FORMS"]]
    assert sorted(_with_markers(_strings(table))) == sorted(MARKERS)
    rest = [stmt for stmt in module.body[1:] if stmt is not table]  # [0] is the docstring
    assert _with_markers(s for stmt in rest for s in _strings(stmt)) == []
