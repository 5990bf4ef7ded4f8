"""Edit actions and their special-token serialization.

Actions serialize as
``<ReplaceOld> old <ReplaceNew> new <ReplaceEnd>``,
``<Insert> content <InsertEnd>`` and ``<Delete> content <DeleteEnd>``,
concatenated with single spaces. ``_FORMS`` is the one definition of these
forms: per action kind, its opening marker, then for each span the
``EditAction`` field it fills and the marker that ends it. ``render_edits``
writes from it, and ``parse_edits`` reads by it: one split at every
``<word>`` gives alternating spans and markers, the first marker outside
the table is reported, and the rest is walked row by row, so nested,
unbalanced or misplaced markers, empty spans and text between actions are
rejected. The split does not skip quoted literals, so a literal that holds
``<word>`` text cannot be carried.
"""

from __future__ import annotations

import re

from .errors import EditParseError
from .nodes import Record

GRANULARITIES = ("token", "clause-sql", "clause-pydict")

_FORMS = {  # kind: (opening marker, (field, marker that ends its span), ...)
    "replace": ("<ReplaceOld>", ("old", "<ReplaceNew>"), ("new", "<ReplaceEnd>")),
    "insert": ("<Insert>", ("new", "<InsertEnd>")),
    "delete": ("<Delete>", ("old", "<DeleteEnd>")),
}
_OPENED = {opener: (kind, spans) for kind, (opener, *spans) in _FORMS.items()}
MARKERS = tuple(marker for opener, *spans in _FORMS.values()
                for marker in (opener, *(end for _, end in spans)))
# per kind, a str.format template of one action: "<Insert> {0.new} <InsertEnd>"
_TEMPLATES = {kind: " ".join([opener, *(f"{{0.{field}}} {end}" for field, end in spans)])
              for kind, (opener, *spans) in _FORMS.items()}


class EditAction(Record, hashable=True):
    __slots__ = ("kind", "old", "new")

    def __init__(self, kind: str, old: str = "", new: str = ""):
        for name, value in (("old", old), ("new", new)):
            if not isinstance(value, str):
                raise EditParseError(
                    f"the {name} span must be a string, not {type(value).__name__}")
        if kind == "replace" and (not old or not new):
            raise EditParseError("replace requires non-empty old and new spans")
        if kind == "insert" and (old or not new):
            raise EditParseError("insert requires an empty old span and non-empty content")
        if kind == "delete" and (new or not old):
            raise EditParseError("delete requires non-empty content and an empty new span")
        if kind not in ("replace", "insert", "delete"):
            raise EditParseError(f"unknown edit kind {kind!r}")
        self.kind, self.old, self.new = kind, old, new


class EditScript(Record, hashable=True):
    __slots__ = ("granularity", "actions")

    def __init__(self, granularity: str, actions: tuple[EditAction, ...] = ()):
        if granularity not in GRANULARITIES:
            raise EditParseError(f"unknown granularity {granularity!r}")
        self.granularity, self.actions = granularity, actions

    def __len__(self):
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)


def render_edits(script: EditScript) -> str:
    return " ".join([_TEMPLATES[action.kind].format(action) for action in script.actions])


def parse_edits(text: str, granularity: str) -> EditScript:
    parts = re.split(r"(<\w+>)", text)
    markers, spans = parts[1::2], [part.strip() for part in parts[::2]]
    for marker in markers:
        if marker not in MARKERS:
            raise EditParseError(f"unknown marker {marker!r}")
    actions: list[EditAction] = []
    i = 0  # spans[i] is the text before markers[i]
    while True:
        if spans[i]:
            raise EditParseError(f"unexpected text outside markers: {spans[i]!r}")
        if i == len(markers):
            return EditScript(granularity, tuple(actions))
        if markers[i] not in _OPENED:
            raise EditParseError(f"unbalanced marker {markers[i]!r}")
        kind, form = _OPENED[markers[i]]
        fields = {}
        for field, end in form:
            i += 1
            at = markers[i] if i < len(markers) else "end of text"
            if not spans[i]:
                raise EditParseError(f"empty span before {at!r}")
            if at != end:
                raise EditParseError(f"expected {end!r}, got {at!r}")
            fields[field] = spans[i]
        actions.append(EditAction(kind, **fields))
        i += 1
