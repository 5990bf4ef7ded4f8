"""Edit programs: restricted assignment/pop statements over a clause map.

Exactly two statement forms exist, with the root variable literally ``sql``:

    sql["key"]...["key"] = "value"
    sql["key"]...["key"].pop("key")

Keys and values are double-quoted with backslash escapes; anything else is
rejected at parse time.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import partial
from typing import Union

from .clausemap import CLAUSE_INDEX
from .errors import ProgramError
from .pydict import Cursor, lex

_SUBQUERY_RE = re.compile(r"^subquery\d+$")


def _check_key(key: str, line=None):
    if key not in CLAUSE_INDEX and not _SUBQUERY_RE.match(key):
        raise ProgramError(f"invalid key {key!r}", line=line)


@dataclass(frozen=True)
class Assign:
    path: tuple[str, ...]  # non-empty, from the root
    value: str

    def __post_init__(self):
        if not self.path:
            raise ProgramError("assignment requires at least one key")
        for key in self.path:
            _check_key(key)


@dataclass(frozen=True)
class Pop:
    path: tuple[str, ...]  # possibly empty parent path
    key: str

    def __post_init__(self):
        for part in self.path:
            _check_key(part)
        _check_key(self.key)


EditStmt = Union[Assign, Pop]


@dataclass(frozen=True)
class EditProgram:
    stmts: tuple[EditStmt, ...] = ()

    def __len__(self):
        return len(self.stmts)

    def __iter__(self):
        return iter(self.stmts)


def render_program(program: EditProgram) -> str:
    lines = []
    for stmt in program.stmts:
        if isinstance(stmt, Assign):
            path = "".join(f"[{json.dumps(k)}]" for k in stmt.path)
            lines.append(f"sql{path} = {json.dumps(stmt.value, ensure_ascii=False)}")
        else:
            path = "".join(f"[{json.dumps(k)}]" for k in stmt.path)
            lines.append(f"sql{path}.pop({json.dumps(stmt.key)})")
    return "\n".join(lines)


def parse_program(text: str) -> EditProgram:
    stmts: list[EditStmt] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            stmts.append(_parse_stmt(line, lineno))
    return EditProgram(tuple(stmts))


def _parse_stmt(line: str, lineno: int) -> EditStmt:
    error = partial(ProgramError, line=lineno)
    cur = Cursor(lex(line, error), error)
    root = cur.next()
    if root[:2] != ("name", "sql"):
        raise error(f"root variable must be 'sql', got {root[1]!r}")
    path: list[str] = []
    while cur.accept("["):
        key = _take_string(cur, "key")
        cur.expect("]")
        _check_key(key, lineno)
        path.append(key)
    if cur.accept("."):
        name = cur.next()
        if name[:2] != ("name", "pop"):
            raise error(f"only .pop(...) calls are allowed, got .{name[1]}")
        cur.expect("(")
        key = _take_string(cur, "key")
        cur.expect(")")
        cur.expect_end()
        _check_key(key, lineno)
        return Pop(tuple(path), key)
    if cur.accept("="):
        if not path:
            raise error("whole-map assignment is not in the edit language")
        value = _take_string(cur, "value")
        cur.expect_end()
        return Assign(tuple(path), value)
    raise error(f"expected '[', '.pop' or '=' after path: {line.strip()!r}")


def _take_string(cur: Cursor, what: str) -> str:
    tok = cur.next()
    if tok[0] != "str":
        raise cur.error(f"{what} must be double-quoted, got {tok[1]!r}")
    return tok[1]
