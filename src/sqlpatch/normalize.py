"""Query normalization: reference checking, alias resolution, column
qualification, lowercasing.

One walk checks every table and column against the schema and resolves it.
An unknown table or column, or an undeclared qualifier, is a ParseError; a
reference that names no single table occurrence is a NormalizeError.
Aliases for tables that occur once in FROM are dropped and their references
rewritten to the real table name; aliases on repeated tables (self-joins)
are kept, since dropping them would lose which occurrence a column means.
The pass resolves the parser's fresh tree in place, and is idempotent.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .errors import NormalizeError, ParseError
from .nodes import (
    BoolExpr, BoolOp, ColumnRef, ColUnit, Condition, FromClause, Literal, Query,
    ValueList, ValUnit,
)
from .schema import SchemaInfo


def normalize(query: Query, schema: SchemaInfo) -> Query:
    """Check and resolve query in place, and return it. Every reference
    node is rewritten where it stands, so the tree must share no node; the
    parser builds such a tree and hands it here before anything else sees it.
    Each query's scope writes its FROM tables; this walk writes the columns."""
    fc = query.from_clause
    if fc.subquery is not None:
        normalize(fc.subquery, schema)
    scope = _Scope(fc, schema)
    for jt in fc.tables:
        for cond in jt.conds:
            _cond(cond, scope)
    fc.subquery_alias = None
    for item in query.select.items:
        _val(item.val, scope)
    _bool(query.where, scope)
    for col in query.group_by:
        scope.resolve(col)
    _bool(query.having, scope)
    for item in query.order_by:
        _val(item.val, scope)
    if query.set_op is not None:
        normalize(query.set_op.right, schema)
    return query


class _Scope:
    """The tables one query's column references resolve against.

    ``tables`` holds the distinct FROM tables in FROM order, or, for a FROM
    subquery, the tables visible inside it. ``quals`` maps each declared
    qualifier (a table name or an alias) to the tables it can mean; a FROM
    subquery's alias means all of them, and is dropped. ``kept`` holds the
    aliases of repeated tables, which stay in the output. Building the scope
    writes each FROM table's name in lower case, and its alias only when it
    is kept.
    """

    def __init__(self, fc: FromClause, schema: SchemaInfo):
        self.schema = schema
        if fc.subquery is None:
            names = [jt.table.lower() for jt in fc.tables]
            for name in names:
                if not schema.has_table(name):
                    raise ParseError(f"unknown table {name!r} in schema {schema.db_id!r}")
        else:
            names = sorted(visible_tables(fc.subquery))
        self.counts = counts = Counter(names)
        self.tables = list(counts)
        self.quals = {t: (t,) for t in self.tables}
        self.kept: set[str] = set()
        aliases: set[str] = set()
        for jt, table in zip(fc.tables, names):
            alias = jt.alias.lower() if jt.alias else None
            jt.table, jt.alias = table, None
            if alias:
                if alias in aliases:
                    raise NormalizeError(f"alias {alias!r} declared more than once")
                aliases.add(alias)
                self.quals[alias] = (table,)
                if counts[table] > 1:
                    self.kept.add(alias)
                    jt.alias = alias
        self.sub_alias = fc.subquery_alias.lower() if fc.subquery_alias else None
        if self.sub_alias:
            self.quals[self.sub_alias] = tuple(self.tables)

    def resolve(self, col: ColumnRef) -> None:
        col.column = column = col.column.lower()
        if not col.table:
            if column == "*":
                col.table = None
                return
            owner = self._owner(column, self.tables, qualified=False)
            if self.counts[owner] > 1:
                raise NormalizeError(
                    f"column {column!r} of repeated table {owner!r} must be alias-qualified")
            col.table = owner
            return
        qual = col.table.lower()
        tables = self.quals.get(qual)
        if tables is None:
            what = "qualifying '*'" if column == "*" else f"for column {column!r}"
            raise ParseError(f"unknown table {qual!r} {what}")
        if column != "*":
            owner = self._owner(column, tables, qualified=True)
        elif qual == self.sub_alias:
            col.table = None  # the alias is dropped, as for t.col
            return
        else:
            owner = tables[0]
        col.table = qual if qual in self.kept else owner

    def _owner(self, column: str, tables, qualified: bool) -> str:
        owners = [t for t in tables if self.schema.has_column(t, column)]
        if len(owners) == 1:
            return owners[0]
        if owners:
            raise NormalizeError(f"column {column!r} is ambiguous across tables {owners}")
        where = f" in {sorted(tables)}" if qualified else ""
        raise ParseError(f"unknown column {column!r}{where}")


def visible_tables(query: Query) -> set[str]:
    """Real table names a query's columns can resolve against."""
    if query.from_clause.subquery is not None:
        return visible_tables(query.from_clause.subquery)
    return {jt.table for jt in query.from_clause.tables}


def _val(val: ValUnit, scope: _Scope) -> None:
    scope.resolve(val.left.col)
    if val.right is not None:
        scope.resolve(val.right.col)


def _bool(expr: Optional[BoolExpr], scope: _Scope) -> None:
    if isinstance(expr, BoolOp):
        for arg in expr.args:
            _bool(arg, scope)
    elif expr is not None:
        _cond(expr, scope)


def _cond(cond: Condition, scope: _Scope) -> None:
    _val(cond.left, scope)
    _operand(cond.right, scope)
    if cond.right2 is not None:
        _operand(cond.right2, scope)


def _operand(operand, scope: _Scope) -> None:
    if isinstance(operand, Query):
        normalize(operand, scope.schema)
    elif isinstance(operand, ColUnit):
        scope.resolve(operand.col)
    elif not isinstance(operand, (Literal, ValueList)):
        raise NormalizeError(f"unsupported operand {operand!r}")
