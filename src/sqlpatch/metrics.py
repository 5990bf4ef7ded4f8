"""Evaluation: exact set match, execution match, and McNemar's test.

Exact set match compares the components of two normalized queries under
set semantics (select items, FROM tables plus join conditions, top-level
AND conjuncts, group-by columns) while keeping ORDER BY an ordered list
and literal values exact. It is a per-query boolean, not a partial score.
Only SqliteBackend runs SQLite, so scoring without one never loads it.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from pathlib import Path
from typing import Optional, Protocol

from .errors import BackendUnavailable, ExecutionError
from .nodes import (
    BoolOp, ColUnit, Condition, Literal, Query, Record, ValueList, conjuncts,
)


class EvalOutcome(Record, hashable=True):
    __slots__ = ("em", "ex")

    def __init__(self, em: bool, ex: Optional[bool] = None):
        self.em = em
        self.ex = ex  # present iff an execution backend was supplied


# ---------------------------------------------------------------------------
# Exact set match


def exact_set_match(pred: Query, gold: Query) -> bool:
    return query_canon(pred) == query_canon(gold)


def query_canon(q: Query):
    """Hashable canonical form; two queries are an exact set match iff their
    canonical forms are equal."""
    select = (q.select.distinct,
              frozenset(_item_canon(item) for item in q.select.items))
    fc = q.from_clause
    if fc.subquery is not None:
        from_canon = ("subquery", query_canon(fc.subquery))
    else:
        tables = tuple(sorted(jt.table for jt in fc.tables))
        conds = frozenset(_join_cond_canon(c) for jt in fc.tables for c in jt.conds)
        from_canon = ("tables", tables, conds)
    where = _bool_canon(q.where)
    group = frozenset((c.table, c.column) for c in q.group_by)
    having = _bool_canon(q.having)
    order = tuple((_val_canon(i.val), i.direction) for i in q.order_by)
    set_op = (q.set_op.kind, query_canon(q.set_op.right)) if q.set_op else None
    return ("query", select, from_canon, where, group, having, order, q.limit, set_op)


def _item_canon(item):
    return (item.agg, item.distinct, _val_canon(item.val))


def _val_canon(val):
    return (val.op, _unit_canon(val.left),
            _unit_canon(val.right) if val.right is not None else None)


def _unit_canon(unit: ColUnit):
    return (unit.agg, unit.distinct, unit.col.table, unit.col.column)


def _bool_canon(expr):
    """Top-level AND conjuncts as a set; OR subtrees compared structurally."""
    if expr is None:
        return frozenset()
    return frozenset(_conjunct_canon(c) for c in conjuncts(expr))


def _conjunct_canon(expr):
    if isinstance(expr, BoolOp):  # an OR subtree: ordered, structural
        return ("or",) + tuple(_conjunct_canon(a) for a in expr.args)
    return _cond_canon(expr)


def _cond_canon(cond: Condition):
    return (cond.op, _val_canon(cond.left), _operand_canon(cond.right),
            _operand_canon(cond.right2) if cond.right2 is not None else None)


def _join_cond_canon(cond: Condition):
    # join conditions are unordered equalities: sort the two column sides
    if cond.op == "=" and isinstance(cond.right, ColUnit) and cond.left.op is None:
        left = _unit_canon(cond.left.left)
        right = _unit_canon(cond.right)
        first, second = sorted((left, right), key=repr)
        return ("=", ("col", first), ("col", second))
    return _cond_canon(cond)


def _operand_canon(operand):
    if isinstance(operand, Literal):
        return ("lit", operand.kind, operand.value())
    if isinstance(operand, ColUnit):
        return ("col", _unit_canon(operand))
    if isinstance(operand, ValueList):
        return ("list", tuple(("lit", v.kind, v.value()) for v in operand.items))
    if isinstance(operand, Query):
        return query_canon(operand)
    raise TypeError(f"cannot canonicalize operand {operand!r}")


# ---------------------------------------------------------------------------
# Execution match


class ExecBackend(Protocol):
    def execute(self, sql: str, db_id: str) -> list[tuple]:
        """Run a read-only query and return its rows in result order.

        Raises ExecutionError for queries the database rejects and
        BackendUnavailable when the database itself cannot be opened.
        """
        ...


sqlite3 = _REFUSED = None  # the module and what _read_only denies: set by the first backend


class SqliteBackend:
    """Reads databases laid out as ``<db_dir>/<db_id>/<db_id>.sqlite`` (or
    ``.db``, ``.sqlite3``); no other file is opened. The first one built
    imports ``sqlite3``.

    Holds one read-only connection per database, opened on first use, until
    close() or until the backend is collected. Statements that would change
    what a later query sees (ATTACH, DETACH, transaction control, savepoints,
    temporary objects, a PRAGMA given a value) are refused as an
    ExecutionError, so every query runs as it would on a fresh connection.
    """

    def __init__(self, db_dir):
        global sqlite3, _REFUSED
        if sqlite3 is None:
            import sqlite3
            _REFUSED = frozenset({
                sqlite3.SQLITE_ATTACH, sqlite3.SQLITE_DETACH, sqlite3.SQLITE_TRANSACTION,
                sqlite3.SQLITE_SAVEPOINT, sqlite3.SQLITE_CREATE_TEMP_INDEX,
                sqlite3.SQLITE_CREATE_TEMP_TABLE, sqlite3.SQLITE_CREATE_TEMP_TRIGGER,
                sqlite3.SQLITE_CREATE_TEMP_VIEW, sqlite3.SQLITE_CREATE_VTABLE,
            })
        self.db_dir = Path(db_dir)
        self._conns: dict[str, sqlite3.Connection] = {}
        weakref.finalize(self, _close_all, self._conns)

    def __reduce__(self):
        """Pickled as its directory: a process that unpickles it (a pool
        worker under spawn or forkserver) builds it anew, loading SQLite."""
        return type(self), (self.db_dir,)

    def __enter__(self) -> "SqliteBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        _close_all(self._conns)

    def _db_path(self, db_id: str) -> Path:
        base = self.db_dir / db_id
        for ext in (".sqlite", ".db", ".sqlite3"):
            candidate = base / f"{db_id}{ext}"
            if candidate.exists():
                return candidate
        raise BackendUnavailable(f"no database file for {db_id!r} under {self.db_dir}")

    def _connection(self, db_id: str) -> sqlite3.Connection:
        conn = self._conns.get(db_id)
        if conn is None:
            path = self._db_path(db_id)
            try:
                conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True,
                                       isolation_level=None, cached_statements=0)
            except sqlite3.Error as exc:
                raise BackendUnavailable(f"cannot open {path}: {exc}") from None
            conn.set_authorizer(_read_only)
            self._conns[db_id] = conn
        return conn

    def execute(self, sql: str, db_id: str) -> list[tuple]:
        conn = self._connection(db_id)
        try:
            return conn.execute(sql).fetchall()
        except sqlite3.Error as exc:
            raise ExecutionError(str(exc)) from None


def _close_all(conns: dict[str, sqlite3.Connection]) -> None:
    while conns:
        conns.popitem()[1].close()


def _read_only(action, arg1, arg2, db_name, trigger) -> int:
    """SQLite authorizer of a held connection: deny what would outlive the
    statement. The authorizer cannot tell a PRAGMA's setting from its
    argument, so pragma table_info(t) is refused too."""
    if action in _REFUSED or (action == sqlite3.SQLITE_PRAGMA and arg2 is not None):
        return sqlite3.SQLITE_DENY
    return sqlite3.SQLITE_OK


def query_rows(backend: ExecBackend, sql: str, db_id: str) -> Optional[list[tuple]]:
    """The rows a query returns, or None when the database rejects it; an
    unavailable backend raises instead."""
    try:
        return backend.execute(sql, db_id)
    except ExecutionError:
        return None


def execution_match(pred_rows: Optional[list[tuple]], gold_rows: Optional[list[tuple]],
                    gold_ordered: bool) -> bool:
    """True iff both queries ran and returned the same rows: compared as
    multisets, or as ordered sequences when gold_ordered says the gold
    query orders its result (see orders_result). None stands for a query
    the database rejected (see query_rows) and never matches."""
    if pred_rows is None or gold_rows is None:
        return False
    if pred_rows is gold_rows:  # one result read for both sides
        return True
    if gold_ordered:
        return pred_rows == gold_rows
    return len(pred_rows) == len(gold_rows) and Counter(pred_rows) == Counter(gold_rows)


def orders_result(query: Query) -> bool:
    """True iff the query orders its result: some query of its set-op chain
    has an ORDER BY."""
    while query is not None:
        if query.order_by:
            return True
        query = query.set_op.right if query.set_op else None
    return False


# ---------------------------------------------------------------------------
# McNemar's test


class McNemarResult(Record, hashable=True):
    __slots__ = ("b", "c", "p", "degenerate")

    def __init__(self, b: int, c: int, p: float, degenerate: bool = False):
        self.b = b  # first system correct, second wrong
        self.c = c  # first system wrong, second correct
        self.p = p
        self.degenerate = degenerate  # no discordant pairs at all


def mcnemar_counts(b: int, c: int) -> McNemarResult:
    """Exact two-sided binomial McNemar test over the discordant pair counts."""
    n = b + c
    if n == 0:
        return McNemarResult(0, 0, 1.0, degenerate=True)
    k = min(b, c)
    tail = sum(math.comb(n, i) for i in range(k + 1))
    p = min(1.0, 2.0 * tail / 2.0 ** n)
    return McNemarResult(b, c, p)
