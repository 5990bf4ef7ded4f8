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

from .clausemap import CLAUSE_INDEX, ClauseMap, Composite, Entry, entry_from_clause_text
from .errors import MapError, PyDictError, TokenizeError


def render_pydict(cm: ClauseMap, pretty: bool = False) -> str:
    return "sql = " + json.dumps(_plain(cm), ensure_ascii=False, indent=2 if pretty else None)


def render_entry_fragment(key: str, entry: Entry) -> str:
    """One ``"key": value`` pair in compact form (edit-action payloads)."""
    return json.dumps({key: _plain(entry)}, ensure_ascii=False)[1:-1]


def _plain(entry: Entry):
    """An entry as the nested dicts and strings its text is the JSON of."""
    if isinstance(entry, str):
        return entry
    if isinstance(entry, Composite):
        subqueries = {sid: _plain(sub) for sid, sub in entry.subqueries.items()}
        return {"clause": entry.clause, **subqueries}
    return {key: _plain(value) for key, value in entry.items()}


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
    value = _entry(None, _decode(text[prefix.end():], prefix.end()))
    if not isinstance(value, ClauseMap):
        raise PyDictError("top-level value must be a clause map")
    return value


def parse_entry_fragments(text: str) -> list[tuple[str, Entry]]:
    """Parse ``"key": value, "key": value`` pairs (edit-action payloads)."""
    entries = _entries(_decode("{" + text + "}", -1), None)
    if not entries:
        raise PyDictError("no clause in clause-dictionary fragment")
    try:
        ClauseMap(entries)  # known keys, each with a value of its kind
    except MapError as exc:
        raise PyDictError(str(exc)) from None
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


def _entries(pairs, owner) -> dict[str, Entry]:
    """A decoded object's pairs as entries, in text order; a key appears
    once. ``owner`` is the key that holds the object: a ``clause`` value is
    the text of a clause of that key."""
    entries: dict[str, Entry] = {}
    for key, value in pairs:
        if key in entries:
            raise PyDictError(f"duplicate key {key!r}")
        entries[key] = _entry(owner if key == "clause" else key, value)
    return entries


def _entry(key, value) -> Entry:
    """Clause text, a composite entry (an object with a ``clause`` key) or a
    clause map, from the JSON value decoded under ``key``. Text under a
    clause key must be one clause of that key; it is kept as written."""
    if isinstance(value, str):
        if key in CLAUSE_INDEX:
            try:
                entry_from_clause_text(key, value)
            except (MapError, TokenizeError) as exc:
                raise PyDictError(str(exc)) from None
        return value
    if not isinstance(value, tuple):
        raise PyDictError(f"expected a string or nested mapping, got a JSON "
                          f"{_JSON_TYPES[type(value)]}")
    entries = _entries(value, key)
    try:
        if "clause" not in entries:
            return ClauseMap(entries)
        clause = entries.pop("clause")
        if not isinstance(clause, str):
            raise PyDictError("'clause' value must be a string")
        for sid, sub in entries.items():
            if not isinstance(sub, ClauseMap):
                raise PyDictError(f"subquery value for {sid!r} must be a nested clause map")
        return Composite(clause, entries)
    except MapError as exc:
        raise PyDictError(str(exc)) from None
