"""Edit programs: restricted assignment/pop statements over a clause map.

Exactly two statement forms exist, with the root variable literally ``sql``:

    sql["key"]...["key"] = "value"
    sql["key"]...["key"].pop("key")

Keys and values are JSON strings, as ``json.dumps`` writes them (raw
control characters accepted); whitespace may stand between the parts of a
statement. Anything else is rejected at parse time.
"""

from __future__ import annotations

import json
import re
from typing import Union

from .clausemap import CLAUSE_INDEX, placeholder_index
from .errors import ProgramError
from .nodes import Record


def _check_key(key: str):
    if key not in CLAUSE_INDEX and placeholder_index(key) is None:
        raise ProgramError(f"invalid key {key!r}")


class Assign(Record, hashable=True):
    __slots__ = ("path", "value")

    def __init__(self, path: tuple[str, ...], value: str):
        if not path:
            raise ProgramError("assignment requires at least one key")
        for key in path:
            _check_key(key)
        self.path, self.value = path, value  # path: non-empty, from the root


class Pop(Record, hashable=True):
    __slots__ = ("path", "key")

    def __init__(self, path: tuple[str, ...], key: str):
        for part in path:
            _check_key(part)
        _check_key(key)
        self.path, self.key = path, key  # path: possibly empty parent path


EditStmt = Union[Assign, Pop]


class EditProgram(Record, hashable=True):
    __slots__ = ("stmts",)

    def __init__(self, stmts: tuple[EditStmt, ...] = ()):
        self.stmts = stmts

    def __len__(self):
        return len(self.stmts)

    def __iter__(self):
        return iter(self.stmts)


def render_program(program: EditProgram) -> str:
    lines = []
    for stmt in program.stmts:
        path = render_path(stmt.path)
        if isinstance(stmt, Assign):
            lines.append(f"{path} = {json.dumps(stmt.value, ensure_ascii=False)}")
        else:
            lines.append(f"{path}.pop({json.dumps(stmt.key)})")
    return "\n".join(lines)


def render_path(path) -> str:
    """The text of the entry at path from the root, as statements write it."""
    return "sql" + "".join(f"[{json.dumps(key)}]" for key in path)


def parse_program(text: str) -> EditProgram:
    stmts: list[EditStmt] = []
    # line feeds only: str.splitlines also splits at characters such as
    # U+0085 and U+2028, which a rendered value holds unescaped
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            try:
                stmts.append(_parse_stmt(line))
            except ProgramError as exc:
                raise ProgramError(f"line {lineno}: {exc}", lineno) from None
    return EditProgram(tuple(stmts))


# The fixed parts of a statement, each with the whitespace around it; the
# keys and the value between them are JSON strings.
_ROOT, _OPEN, _CLOSE, _POP, _CALL_END, _ASSIGN = (re.compile(rf"\s*{part}\s*") for part in (
    r"sql\b", r"\[", r"\]", r"\.\s*pop\s*\(", r"\)", "="))
_JSON = json.JSONDecoder(strict=False)


def _parse_stmt(line: str) -> EditStmt:
    root = _ROOT.match(line)
    if root is None:
        raise ProgramError(f"root variable must be 'sql': {line.strip()!r}")
    path: list[str] = []
    i = root.end()
    while match := _OPEN.match(line, i):
        key, i = _string(line, match.end(), "key")
        i = _fixed(_CLOSE, line, i, "]")
        path.append(key)
    if match := _POP.match(line, i):
        key, i = _string(line, match.end(), "key")
        stmt = Pop(tuple(path), key)
        i = _fixed(_CALL_END, line, i, ")")
    elif match := _ASSIGN.match(line, i):
        value, i = _string(line, match.end(), "value")
        stmt = Assign(tuple(path), value)
    else:
        raise ProgramError(f"expected '[', '.pop(' or '=' at offset {i}: {line.strip()!r}")
    if line[i:].strip():
        raise ProgramError(f"unexpected trailing content at offset {i}")
    return stmt


def _string(line: str, i: int, what: str) -> tuple[str, int]:
    """The JSON string at line[i] and the index after it."""
    if not line.startswith('"', i):
        raise ProgramError(f"{what} must be double-quoted, at offset {i}")
    try:
        return _JSON.raw_decode(line, i)
    except json.JSONDecodeError as exc:
        raise ProgramError(f"{exc.msg} at offset {exc.pos}") from None


def _fixed(pattern: re.Pattern, line: str, i: int, what: str) -> int:
    match = pattern.match(line, i)
    if match is None:
        raise ProgramError(f"expected {what!r} at offset {i}")
    return match.end()
