"""Clause maps: a query decomposed into an ordered clause -> text mapping.

A clause containing nested subqueries becomes a composite entry whose text
carries ``(subqueryN)`` placeholders and whose subqueries are clause maps
of their own. A set operation needs a query after it, and stores it as a
nested clause map under the ``intersect``/``union``/``except`` key.

This module is the one reader of clause text: one recursive reader decides
where a clause, a subquery and a set operation end, in one pass over the
canonical tokens, and builds every map and entry. A query AST goes through
it via its rendered tokens; clause text (edit payloads, program values,
canonical SQL) via one tokenizer pass.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional, Union

from .errors import MapError
from .nodes import Query
from .render import render_tokens
from .tokens import CLAUSE_KEYWORDS, QUOTED, detokenize, tokenize

CLAUSE_KEYS = ("select", "from", "where", "groupBy", "having", "orderBy",
               "limit", "intersect", "union", "except")
CLAUSE_INDEX = {key: i for i, key in enumerate(CLAUSE_KEYS)}
SET_OP_KEYS = ("intersect", "union", "except")

# tokens.CLAUSE_KEYWORDS holds the keyword that starts each clause, in key order.
_KEYWORD_TO_KEY = dict(zip(CLAUSE_KEYWORDS, CLAUSE_KEYS))

_placeholder = "subquery{}".format  # the key of a clause's i-th subquery
_PLACEHOLDER = r"subquery\d+"
_is_placeholder = re.compile(_PLACEHOLDER).fullmatch
# A placeholder, or a quoted literal to pass over: 'subquery0' is a value.
_PLACEHOLDER_RE = re.compile(rf"{QUOTED}|\b{_PLACEHOLDER}\b")


def placeholder_index(key: str) -> Optional[int]:
    """i when key is the placeholder of the i-th subquery, else None."""
    return int(key.removeprefix("subquery")) if _is_placeholder(key) else None


class Composite:
    """A clause whose text references nested subqueries by placeholder id."""

    __slots__ = ("clause", "subqueries")

    def __init__(self, clause: str, subqueries: dict[str, "ClauseMap"]):
        named = [m for m in _PLACEHOLDER_RE.findall(clause) if m[0] not in "'\""]
        if len(named) != len(set(named)):
            raise MapError(f"placeholder repeated in clause text: {clause!r}")
        expected = [_placeholder(i) for i in range(len(named))]
        if named != expected:
            raise MapError(
                f"placeholders must be subquery0..subquery{len(named) - 1} "
                f"in order of appearance, got {named}")
        if set(named) != set(subqueries):
            raise MapError(
                f"placeholders {sorted(named)} do not match subquery keys "
                f"{sorted(subqueries)}")
        self.clause = clause
        self.subqueries = {sid: subqueries[sid] for sid in expected}

    def __eq__(self, other):
        return (isinstance(other, Composite) and self.clause == other.clause
                and self.subqueries == other.subqueries)

    def __repr__(self):
        return f"Composite({self.clause!r}, {self.subqueries!r})"

    def copy(self) -> "Composite":
        return Composite(self.clause, {k: v.copy() for k, v in self.subqueries.items()})


Entry = Union[str, Composite, "ClauseMap"]


class ClauseMap:
    """Ordered mapping from clause key to entry, kept in canonical key order."""

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        self._entries: dict[str, Entry] = {}
        if entries:
            pairs = entries.items() if isinstance(entries, dict) else entries
            for key, value in pairs:
                if key in self._entries:
                    raise MapError(f"clause {key!r} appears twice")
                self.set(key, value)

    def set(self, key: str, entry: Entry) -> None:
        if key not in CLAUSE_INDEX:
            raise MapError(f"unknown clause key {key!r}")
        if key in SET_OP_KEYS:
            if not isinstance(entry, ClauseMap):
                raise MapError(f"value of {key!r} must be a nested clause map")
        elif not isinstance(entry, (str, Composite)):
            raise MapError(f"value of {key!r} must be clause text or a composite entry")
        entries = self._entries
        in_order = (not entries or key in entries
                    or CLAUSE_INDEX[key] > CLAUSE_INDEX[next(reversed(entries))])
        entries[key] = entry
        if not in_order:
            self._entries = {k: entries[k] for k in sorted(entries, key=CLAUSE_INDEX.get)}

    def pop(self, key: str) -> Entry:
        if key not in self._entries:
            raise MapError(f"clause key {key!r} not present")
        return self._entries.pop(key)

    def get(self, key: str) -> Optional[Entry]:
        return self._entries.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, Entry]]:
        return iter(list(self._entries.items()))

    def __eq__(self, other):
        return isinstance(other, ClauseMap) and self._entries == other._entries

    def __repr__(self):
        return f"ClauseMap({self._entries!r})"

    def copy(self) -> "ClauseMap":
        out = ClauseMap()
        for key, entry in self._entries.items():
            out._entries[key] = entry.copy() if isinstance(entry, (Composite, ClauseMap)) else entry
        return out


# ---------------------------------------------------------------------------
# AST -> clause map


def decompose(query: Query) -> ClauseMap:
    """Split a normalized query into its clause map, depth first: subqueries
    become independent clause maps referenced by placeholders. This is the
    lexical split of the query's canonical tokens."""
    return ClauseMap(_read_all(render_tokens(query)))


# ---------------------------------------------------------------------------
# clause map -> SQL


def to_sql(cm: ClauseMap) -> str:
    """Reassemble the SQL text: clause texts in canonical order, placeholders
    re-inlined as parenthesized subqueries, set operations appended."""
    if "select" not in cm or "from" not in cm:
        raise MapError("clause map must contain both select and from")
    return " ".join([entry_sql(key, entry) for key, entry in cm.items()])


def entry_sql(key: str, entry: Entry) -> str:
    """SQL text of one entry: composite placeholders inlined; a set-op entry
    becomes the operator keyword followed by the right-hand query."""
    text = entry_value_sql(entry)
    return f"{key} {text}" if isinstance(entry, ClauseMap) else text


def entry_value_sql(entry: Entry) -> str:
    """SQL text of an entry value alone: like :func:`entry_sql` but a set-op
    entry yields just the right-hand query without the operator keyword.
    This is the string form edit-program assignments carry."""
    if isinstance(entry, ClauseMap):
        return to_sql(entry)
    if isinstance(entry, Composite):
        return _inline_placeholders(entry)
    return entry


def _inline_placeholders(entry: Composite) -> str:
    def repl(match):
        if match.group(0)[0] in "'\"":
            return match.group(0)
        sub = entry.subqueries.get(match.group(0))
        if sub is None:
            raise MapError(f"dangling placeholder {match.group(0)!r}")
        return to_sql(sub)

    return _PLACEHOLDER_RE.sub(repl, entry.clause)


# ---------------------------------------------------------------------------
# SQL text -> clause map (lexical; for already-canonical text)


def sql_to_clause_map(sql: str) -> ClauseMap:
    """Build a clause map from canonical SQL text without a schema, by
    splitting at top-level clause keywords and extracting ``(select ...)``
    spans. On render output this is :func:`decompose`."""
    return ClauseMap(_read_all([t.text for t in tokenize(sql)]))


def entry_from_clause_text(key: str, text: str) -> Entry:
    """Build one entry from its SQL text (an edit program's value): exactly
    one clause, which starts with its key's keyword. A set operation's text
    is its keyword and then its query, as :func:`entry_sql` writes it."""
    if key not in CLAUSE_INDEX:
        raise MapError(f"unknown clause key {key!r}")
    tokens = [t.text for t in tokenize(text)]
    lead = CLAUSE_KEYWORDS[CLAUSE_INDEX[key]]
    if tokens[0] != lead:
        raise MapError(f"clause text for {key!r} must start with {lead!r}: {text!r}")
    (_, entry), *more = _read_all(tokens)
    if more:
        raise MapError(f"clause text for {key!r} holds a second clause, "
                       f"{more[0][0]!r}: {text!r}")
    return entry


def clause_entries(text: str) -> list[tuple[str, Entry]]:
    """The (key, entry) pairs of a run of clause texts (or a whole query),
    in one token pass."""
    return _read_all([t.text for t in tokenize(text)])


def _read_all(tokens: list[str]) -> list[tuple[str, Entry]]:
    pairs, stop = _read(tokens, 0)
    if stop < len(tokens):  # a ")" that closes nothing
        raise MapError("unbalanced parenthesis in clause text")
    return pairs


def _read(tokens: list[str], i: int) -> tuple[list[tuple[str, Entry]], int]:
    """The (key, entry) pairs of the clause run that starts at tokens[i], and
    the index where it stops: the ``)`` that closes the span the run is in,
    or the end of the tokens. Clause keywords split the run where the depth
    counter is 0; each ``( select ... )`` span is read by a recursive call
    and becomes the clause's next ``subqueryN``; a set operation takes the
    rest of the run as its query, its keyword left out."""
    if tokens[i] not in _KEYWORD_TO_KEY:
        raise MapError(f"clause text must start with a clause keyword, got {tokens[i]!r}")
    n = len(tokens)
    pairs: list[tuple[str, Entry]] = []
    key = None
    depth = 0
    while i < n:
        tok = tokens[i]
        if tok == "(":
            if i + 1 < n and tokens[i + 1] == "select":
                sub, stop = _read(tokens, i + 1)
                if stop == n:
                    raise MapError("unbalanced parenthesis in clause text")
                name = _placeholder(len(subs))
                subs[name] = ClauseMap(sub)
                text += tokens[start:i]
                text += ("(", name, ")")
                start = i = stop + 1
                continue
            depth += 1
        elif tok == ")":
            if not depth:
                break
            depth -= 1
        elif not depth and tok in _KEYWORD_TO_KEY:
            if key is not None:
                pairs.append((key, _entry(text + tokens[start:i], subs)))
            if tok in SET_OP_KEYS:
                if i + 1 == n or tokens[i + 1] == ")":
                    raise MapError(f"set operation {tok!r} has no query after it")
                rest, stop = _read(tokens, i + 1)
                pairs.append((tok, ClauseMap(rest)))
                return pairs, stop
            key, text, subs, start = _KEYWORD_TO_KEY[tok], [], {}, i
        i += 1
    if depth:
        raise MapError("unbalanced parenthesis in clause text")
    pairs.append((key, _entry(text + tokens[start:i], subs)))
    return pairs, i


def _entry(tokens: list[str], subs: dict[str, ClauseMap]) -> Entry:
    """Clause text, or a composite entry when the clause has subqueries. A
    clause is its keyword (``group by`` and ``order by`` with their ``by``)
    and at least one token after it."""
    head = 2 if tokens[0] in ("group", "order") else 1
    if head == 2 and tokens[1:2] != ["by"]:
        raise MapError(f"{tokens[0]!r} must be followed by 'by': {detokenize(tokens)!r}")
    if len(tokens) == head:
        raise MapError(f"clause {detokenize(tokens)!r} has nothing after its keyword")
    return Composite(detokenize(tokens), subs) if subs else detokenize(tokens)
