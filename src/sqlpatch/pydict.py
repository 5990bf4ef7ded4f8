"""Text form of clause maps: a Python-style dictionary literal.

Compact mode is the normative byte-exact form:

    sql = {"select": "select tweets.text", "from": "from tweets"}

Pretty mode adds newlines and two-space indentation for human inspection.
Keys are double-quoted in canonical clause order; composite entries nest a
mapping with the ``clause`` text first and subqueries after it.
"""

from __future__ import annotations

import json
import re

from .clausemap import CLAUSE_INDEX, ClauseMap, Composite, Entry
from .errors import MapError, PyDictError


def render_pydict(cm: ClauseMap, pretty: bool = False) -> str:
    return "sql = " + _render_container(cm, pretty, 0)


def render_entry_fragment(key: str, entry: Entry) -> str:
    """One ``"key": value`` pair in compact form (edit-action payloads)."""
    return f"{json.dumps(key)}: {_render_value(entry, False, 0)}"


def _render_container(container, pretty: bool, indent: int) -> str:
    if isinstance(container, Composite):
        pairs = [("clause", container.clause)] + list(container.subqueries.items())
    else:
        pairs = list(container.items())
    if not pairs:
        return "{}"
    if not pretty:
        inner = ", ".join(f"{json.dumps(k)}: {_render_value(v, False, 0)}" for k, v in pairs)
        return "{" + inner + "}"
    pad = "  " * (indent + 1)
    inner = ",\n".join(
        f"{pad}{json.dumps(k)}: {_render_value(v, True, indent + 1)}" for k, v in pairs)
    return "{\n" + inner + "\n" + "  " * indent + "}"


def _render_value(value, pretty: bool, indent: int) -> str:
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    return _render_container(value, pretty, indent)


# ---------------------------------------------------------------------------
# Parsing


def parse_pydict(text: str) -> ClauseMap:
    """Inverse of :func:`render_pydict`; accepts both compact and pretty
    output plus arbitrary whitespace between lexical elements."""
    cur = Cursor(lex(text))
    name = cur.next()
    if name[0] != "name" or name[1] != "sql":
        raise PyDictError("clause-dictionary text must start with 'sql ='")
    cur.expect("=")
    container = _container(cur)
    cur.expect_end()
    if isinstance(container, Composite):
        raise PyDictError("top-level value must be a clause map, not a composite entry")
    return container


def parse_entry_fragments(text: str) -> list[tuple[str, Entry]]:
    """Parse ``"key": value, "key": value`` pairs (edit-action payloads)."""
    cur = Cursor(lex(text))
    pairs = [_pair(cur)]
    while cur.accept(","):
        pairs.append(_pair(cur))
    cur.expect_end()
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise PyDictError(f"duplicate key {key!r}")
        seen.add(key)
        if key not in CLAUSE_INDEX:
            raise PyDictError(f"unknown clause key {key!r}")
    return pairs


def _pair(cur) -> tuple[str, Entry]:
    key_tok = cur.next()
    if key_tok[0] != "str":
        raise PyDictError(f"expected a double-quoted key at offset {key_tok[2]}")
    cur.expect(":")
    return key_tok[1], _value(cur)


def _value(cur):
    tok = cur.peek()
    if tok is None:
        raise PyDictError("unexpected end of clause-dictionary text")
    if tok[0] == "str":
        cur.next()
        return tok[1]
    if tok[0] == "{":
        return _container(cur)
    raise PyDictError(f"expected a string or nested mapping at offset {tok[2]}")


def _container(cur):
    cur.expect("{")
    pairs: list[tuple[str, Entry]] = []
    if cur.accept("}"):
        return ClauseMap()
    while True:
        pairs.append(_pair(cur))
        if cur.accept(","):
            continue
        cur.expect("}")
        break
    return _assemble(pairs)


def _assemble(pairs):
    keys = [k for k, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise PyDictError(f"duplicate key {key!r}")
    if "clause" in keys:
        clause_text = None
        subqueries = {}
        for key, value in pairs:
            if key == "clause":
                if not isinstance(value, str):
                    raise PyDictError("'clause' value must be a string")
                clause_text = value
            else:
                if not isinstance(value, ClauseMap):
                    raise PyDictError(f"subquery value for {key!r} must be a nested clause map")
                subqueries[key] = value
        try:
            return Composite(clause_text, subqueries)
        except MapError as exc:
            raise PyDictError(str(exc)) from None
    cm = ClauseMap()
    for key, value in pairs:
        if key in cm:
            raise PyDictError(f"duplicate key {key!r}")
        try:
            cm.set(key, value)
        except MapError as exc:
            raise PyDictError(str(exc)) from None
    return cm


# ---------------------------------------------------------------------------
# Lexer and token cursor, shared with the edit-program parser

# A double-quoted string: runs of plain characters between backslash escapes.
_STRING_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)
_STRING_DECODER = json.JSONDecoder(strict=False)


def _decode_string(text: str, start: int) -> tuple[str, int]:
    """Decode the double-quoted string at ``text[start]``, exactly inverting
    the ``json.dumps`` escapes that both text forms are rendered with; raw
    control characters are accepted too. Returns the value and the index
    after the closing quote; raises ValueError for an unterminated string
    or an invalid escape."""
    match = _STRING_RE.match(text, start)
    if match is None:
        raise ValueError("unterminated string")
    try:
        return _STRING_DECODER.decode(match.group()), match.end()
    except json.JSONDecodeError as exc:
        raise ValueError(exc.msg) from None


def lex(text: str, error=PyDictError) -> list[tuple[str, str, int]]:
    """(kind, value, offset) tokens: punctuation, decoded strings and names;
    ``error`` builds the exception for malformed text."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "{}:,=[].()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c == '"':
            try:
                value, j = _decode_string(text, i)
            except ValueError as exc:
                raise error(f"{exc} at offset {i}") from None
            tokens.append(("str", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise error(f"unexpected character {c!r} at offset {i}")
    return tokens


class Cursor:
    """Steps through lex tokens; ``error`` builds the exception for a token
    the grammar does not expect."""

    def __init__(self, tokens, error=PyDictError):
        self.tokens = tokens
        self.error = error
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of text")
        self.i += 1
        return tok

    def accept(self, kind: str) -> bool:
        tok = self.peek()
        if tok is not None and tok[0] == kind:
            self.i += 1
            return True
        return False

    def expect(self, kind: str):
        tok = self.peek()
        if tok is None:
            raise self.error(f"expected {kind!r}, got end of text")
        if tok[0] != kind:
            raise self.error(f"expected {kind!r} at offset {tok[2]}, got {tok[1]!r}")
        self.i += 1
        return tok

    def expect_end(self):
        tok = self.peek()
        if tok is not None:
            raise self.error(f"unexpected trailing content at offset {tok[2]}")
