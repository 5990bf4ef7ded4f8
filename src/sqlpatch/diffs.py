"""Edit-script computation between a wrong and a gold query.

Token level: minimal LCS diff over the canonical token sequences with
contiguous runs merged and adjacent delete/insert runs fused into one
replace. The LCS table is read from bit-parallel rows, which give its
exact values, so the script is that of the plain O(n*m) table. Clause
level (SQL and dictionary forms) and programs all share one canonical
walk over the two clause maps; the frontends only differ in how they
render the touched entries.
"""

from __future__ import annotations

from typing import Union

from .clausemap import (
    CLAUSE_INDEX, ClauseMap, Composite, decompose, entry_sql, entry_value_sql,
)
from .editscript import EditAction, EditScript
from .nodes import Query, Record
from .program import Assign, EditProgram, Pop
from .pydict import render_entry_fragment
from .render import render_tokens
from .tokens import detokenize

MapLike = Union[Query, ClauseMap]


def _as_map(value: MapLike) -> ClauseMap:
    if isinstance(value, Query):
        return decompose(value)
    return value


# ---------------------------------------------------------------------------
# Token level


def diff_tokens(wrong: Query, gold: Query) -> EditScript:
    ops = _lcs_ops(render_tokens(wrong), render_tokens(gold))
    actions: list[EditAction] = []
    deleted: list[str] = []
    inserted: list[str] = []

    def flush():
        if deleted and inserted:
            actions.append(EditAction("replace", old=detokenize(deleted),
                                      new=detokenize(inserted)))
        elif deleted:
            actions.append(EditAction("delete", old=detokenize(deleted)))
        elif inserted:
            actions.append(EditAction("insert", new=detokenize(inserted)))
        deleted.clear()
        inserted.clear()

    for op, token in ops:
        if op == "keep":
            flush()
        elif op == "del":
            deleted.append(token)
        else:
            inserted.append(token)
    flush()
    return EditScript("token", tuple(actions))


def _lcs_ops(a: list[str], b: list[str]):
    """LCS alignment walked front to back, matching the earliest equal tokens
    and preferring deletions on ties, so runs come out in source order.

    The walk reads table[i][j] = LCS(a[i:], b[j:]) from bit-parallel rows
    (Allison & Dix 1986; Hyyro 2004) over the reversed sequences: bit l of
    rows[k] is clear where LCS(a[n-k:], b[m-l-1:]) exceeds LCS(a[n-k:],
    b[m-l:]), so table[i][j] = (m - j) - popcount(rows[n - i] & ((1 << (m -
    j)) - 1)). These are the exact values of the O(n*m) table, so the
    script is the same; the rows take O(n * m / w) word operations.
    """
    n, m = len(a), len(b)
    masks: dict[str, int] = {}
    for bit, token in enumerate(reversed(b)):
        masks[token] = masks.get(token, 0) | (1 << bit)
    full = (1 << m) - 1
    v = full
    rows = [v]
    for token in reversed(a):
        u = v & masks.get(token, 0)
        v = ((v + u) | (v - u)) & full
        rows.append(v)
    ops = []
    i = j = 0
    while i < n and j < m:
        if a[i] == b[j]:
            ops.append(("keep", a[i]))
            i += 1
            j += 1
            continue
        # table[i + 1][j] >= table[i][j + 1], each read as its length minus
        # a popcount; the lengths m - j and m - j - 1 differ by one
        low = (1 << (m - j - 1)) - 1
        below = (rows[n - i - 1] & (low << 1 | 1)).bit_count()
        right = (rows[n - i] & low).bit_count()
        if below <= right + 1:
            ops.append(("del", a[i]))
            i += 1
        else:
            ops.append(("ins", b[j]))
            j += 1
    ops.extend(("del", tok) for tok in a[i:])
    ops.extend(("ins", tok) for tok in b[j:])
    return ops


# ---------------------------------------------------------------------------
# Shared clause walk


class DiffItem(Record, hashable=True):
    __slots__ = ("kind", "path", "pairs", "old")

    def __init__(self, kind: str, path: tuple[str, ...], pairs: tuple[tuple[str, object], ...],
                 old: tuple[tuple[str, object], ...] = ()):
        self.kind = kind    # replace | delete | insert
        self.path = path    # map level that owns the key(s)
        self.pairs = pairs  # (key, entry): new side for insert/replace
        self.old = old      # (key, entry): old side for replace/delete


def clause_diff_items(wrong: MapLike, gold: MapLike) -> list[DiffItem]:
    return _walk(_as_map(wrong), _as_map(gold), ())


def _walk(wrong: ClauseMap, gold: ClauseMap, path: tuple[str, ...]) -> list[DiffItem]:
    items: list[DiffItem] = []
    pending: list[tuple[str, object]] = []

    def flush():
        if pending:
            items.append(DiffItem("insert", path, tuple(pending)))
            pending.clear()

    keys = sorted(set(wrong.keys()) | set(gold.keys()), key=CLAUSE_INDEX.get)
    for key in keys:
        w = wrong.get(key)
        g = gold.get(key)
        if w is not None and g is not None:
            flush()
            if isinstance(w, ClauseMap) and isinstance(g, ClauseMap):
                items.extend(_walk(w, g, path + (key,)))
            elif (isinstance(w, Composite) and isinstance(g, Composite)
                  and w.clause == g.clause):
                for sid in w.subqueries:
                    items.extend(_walk(w.subqueries[sid], g.subqueries[sid],
                                       path + (key, sid)))
            elif w != g:
                items.append(DiffItem("replace", path, ((key, g),), ((key, w),)))
        elif w is not None:
            flush()
            items.append(DiffItem("delete", path, (), ((key, w),)))
        else:
            pending.append((key, g))
    flush()
    return items


# ---------------------------------------------------------------------------
# Clause-level frontends


def diff_clauses_sql(wrong: MapLike, gold: MapLike) -> EditScript:
    return _clause_script(wrong, gold, "clause-sql", entry_sql, " ")


def diff_clauses_pydict(wrong: MapLike, gold: MapLike) -> EditScript:
    return _clause_script(wrong, gold, "clause-pydict", render_entry_fragment, ", ")


def _clause_script(wrong: MapLike, gold: MapLike, granularity: str,
                   render_entry, separator: str) -> EditScript:
    """One action per diff item; each side renders its (key, entry) pairs
    with ``render_entry`` joined by ``separator``, so a replace or delete
    names one entry and an insert names its whole contiguous run."""
    actions = []
    for item in clause_diff_items(wrong, gold):
        old = separator.join(render_entry(k, e) for k, e in item.old)
        new = separator.join(render_entry(k, e) for k, e in item.pairs)
        actions.append(EditAction(item.kind, old=old, new=new))
    return EditScript(granularity, tuple(actions))


def diff_program(wrong: MapLike, gold: MapLike) -> EditProgram:
    stmts = []
    for item in clause_diff_items(wrong, gold):
        if item.kind == "delete":
            (key, _), = item.old
            stmts.append(Pop(item.path, key))
        else:
            for key, entry in item.pairs:
                stmts.append(Assign(item.path + (key,), entry_value_sql(entry)))
    return EditProgram(tuple(stmts))
