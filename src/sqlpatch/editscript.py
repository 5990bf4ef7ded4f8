"""Edit actions and their special-token serialization.

Actions serialize as
``<ReplaceOld> old <ReplaceNew> new <ReplaceEnd>``,
``<Insert> content <InsertEnd>`` and ``<Delete> content <DeleteEnd>``,
concatenated with single spaces. The seven markers are the only special
tokens; parsing rejects unknown, nested, or unbalanced markers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import EditParseError

GRANULARITIES = ("token", "clause-sql", "clause-pydict")

REPLACE_OLD = "<ReplaceOld>"
REPLACE_NEW = "<ReplaceNew>"
REPLACE_END = "<ReplaceEnd>"
INSERT = "<Insert>"
INSERT_END = "<InsertEnd>"
DELETE = "<Delete>"
DELETE_END = "<DeleteEnd>"

MARKERS = (REPLACE_OLD, REPLACE_NEW, REPLACE_END, INSERT, INSERT_END, DELETE, DELETE_END)

_MARKER_RE = re.compile("|".join(re.escape(m) for m in MARKERS))
_UNKNOWN_RE = re.compile(r"<\w+>")


@dataclass(frozen=True)
class EditAction:
    kind: str  # replace | insert | delete
    old: str = ""
    new: str = ""

    def __post_init__(self):
        if self.kind == "replace" and (not self.old or not self.new):
            raise EditParseError("replace requires non-empty old and new spans")
        if self.kind == "insert" and (self.old or not self.new):
            raise EditParseError("insert requires an empty old span and non-empty content")
        if self.kind == "delete" and (self.new or not self.old):
            raise EditParseError("delete requires non-empty content and an empty new span")
        if self.kind not in ("replace", "insert", "delete"):
            raise EditParseError(f"unknown edit kind {self.kind!r}")


@dataclass(frozen=True)
class EditScript:
    granularity: str
    actions: tuple[EditAction, ...] = ()

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise EditParseError(f"unknown granularity {self.granularity!r}")

    def __len__(self):
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)


def render_edits(script: EditScript) -> str:
    parts = []
    for action in script.actions:
        if action.kind == "replace":
            parts.append(f"{REPLACE_OLD} {action.old} {REPLACE_NEW} {action.new} {REPLACE_END}")
        elif action.kind == "insert":
            parts.append(f"{INSERT} {action.new} {INSERT_END}")
        else:
            parts.append(f"{DELETE} {action.old} {DELETE_END}")
    return " ".join(parts)


def parse_edits(text: str, granularity: str) -> EditScript:
    if text.strip() == "":
        return EditScript(granularity, ())
    pieces = _split_markers(text)
    actions: list[EditAction] = []
    i = 0
    while i < len(pieces):
        kind, value = pieces[i]
        if kind != "marker":
            raise EditParseError(f"unexpected text outside markers: {value!r}")
        if value == REPLACE_OLD:
            old = _expect_span(pieces, i + 1, REPLACE_NEW)
            new = _expect_span(pieces, i + 3, REPLACE_END)
            actions.append(EditAction("replace", old=old, new=new))
            i += 5
        elif value == INSERT:
            content = _expect_span(pieces, i + 1, INSERT_END)
            actions.append(EditAction("insert", new=content))
            i += 3
        elif value == DELETE:
            content = _expect_span(pieces, i + 1, DELETE_END)
            actions.append(EditAction("delete", old=content))
            i += 3
        else:
            raise EditParseError(f"unbalanced marker {value!r}")
    return EditScript(granularity, tuple(actions))


def _split_markers(text: str):
    unknown = [m.group(0) for m in _UNKNOWN_RE.finditer(text)
               if m.group(0) not in MARKERS]
    if unknown:
        raise EditParseError(f"unknown marker {unknown[0]!r}")
    pieces = []
    pos = 0
    for match in _MARKER_RE.finditer(text):
        before = text[pos:match.start()].strip()
        if before:
            pieces.append(("span", before))
        pieces.append(("marker", match.group(0)))
        pos = match.end()
    tail = text[pos:].strip()
    if tail:
        pieces.append(("span", tail))
    return pieces


def _expect_span(pieces, index: int, end_marker: str) -> str:
    if index >= len(pieces) or pieces[index][0] != "span":
        at = pieces[index][1] if index < len(pieces) else "end of text"
        raise EditParseError(f"empty span before {at!r}")
    span = pieces[index][1]
    if index + 1 >= len(pieces) or pieces[index + 1] != ("marker", end_marker):
        got = pieces[index + 1][1] if index + 1 < len(pieces) else "end of text"
        raise EditParseError(f"expected {end_marker!r}, got {got!r}")
    return span
