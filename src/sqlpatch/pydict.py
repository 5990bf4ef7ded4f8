"""Text form of clause maps: a Python-style dictionary literal.

Compact mode is the normative byte-exact form:

    sql = {"select": "select tweets.text", "from": "from tweets"}

Pretty mode adds newlines and two-space indentation for human inspection.
Keys are double-quoted in canonical clause order; composite entries nest a
mapping with the ``clause`` text first and subqueries after it.

``json.dumps`` writes every key and string, and ``json`` reads them back:
after ``sql =`` comes one JSON object whose values are JSON strings (raw
control characters accepted) or nested objects, with only JSON whitespace
(space, tab, line feed, carriage return) between elements.
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

_PREFIX = re.compile(r"[ \t\n\r]*sql[ \t\n\r]*=")
# Each object decodes to its (key, value) pairs in text order, so that a
# repeated key is still seen.
_DECODER = json.JSONDecoder(strict=False, object_pairs_hook=tuple)


def parse_pydict(text: str) -> ClauseMap:
    """Inverse of :func:`render_pydict`; accepts both compact and pretty
    output plus any JSON whitespace between elements."""
    prefix = _PREFIX.match(text)
    if prefix is None:
        raise PyDictError("clause-dictionary text must start with 'sql ='")
    value = _entry(_decode(text[prefix.end():], prefix.end()))
    if not isinstance(value, ClauseMap):
        raise PyDictError("top-level value must be a clause map")
    return value


def parse_entry_fragments(text: str) -> list[tuple[str, Entry]]:
    """Parse ``"key": value, "key": value`` pairs (edit-action payloads)."""
    entries = _entries(_decode("{" + text + "}", -1))
    if not entries:
        raise PyDictError("no clause in clause-dictionary fragment")
    for key in entries:
        if key not in CLAUSE_INDEX:
            raise PyDictError(f"unknown clause key {key!r}")
    return list(entries.items())


def _decode(text: str, shift: int):
    """The JSON value that is all of text; error offsets are shifted by
    ``shift`` to point into the caller's text."""
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise PyDictError(f"{exc.msg} at offset {exc.pos + shift}") from None
    except ValueError as exc:  # e.g. an integer past int's digit limit
        raise PyDictError(str(exc)) from None


_JSON_TYPES = {bool: "boolean", int: "number", float: "number", list: "array",
               type(None): "null"}


def _entries(pairs) -> dict[str, Entry]:
    """A decoded object's pairs as entries, in text order; a key appears once."""
    entries: dict[str, Entry] = {}
    for key, value in pairs:
        if key in entries:
            raise PyDictError(f"duplicate key {key!r}")
        entries[key] = _entry(value)
    return entries


def _entry(value) -> Entry:
    """Clause text, a composite entry (an object with a ``clause`` key) or a
    clause map, from a decoded JSON value."""
    if isinstance(value, str):
        return value
    if not isinstance(value, tuple):
        raise PyDictError(f"expected a string or nested mapping, got a JSON "
                          f"{_JSON_TYPES[type(value)]}")
    entries = _entries(value)
    try:
        if "clause" not in entries:
            return ClauseMap(entries)
        clause = entries.pop("clause")
        if not isinstance(clause, str):
            raise PyDictError("'clause' value must be a string")
        for key, sub in entries.items():
            if not isinstance(sub, ClauseMap):
                raise PyDictError(f"subquery value for {key!r} must be a nested clause map")
        return Composite(clause, entries)
    except MapError as exc:
        raise PyDictError(str(exc)) from None
