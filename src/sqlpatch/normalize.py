"""Query normalization: reference checking, alias resolution, column
qualification, lowercasing.

One walk checks every table and column against the schema and resolves it.
An unknown table or column, or an undeclared qualifier, is a ParseError; a
reference that names no single table occurrence is a NormalizeError.
Aliases for tables that occur once in FROM are dropped and their references
rewritten to the real table name; aliases on repeated tables (self-joins)
are kept, since dropping them would lose which occurrence a column means.
The pass is idempotent.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .errors import NormalizeError, ParseError
from .nodes import (
    BoolExpr, BoolOp, ColumnRef, ColUnit, Condition, FromClause, JoinedTable,
    Literal, OrderItem, Query, Select, SelectItem, SetOp, ValueList, ValUnit,
)
from .schema import SchemaInfo
from .traverse import visible_tables


def normalize(query: Query, schema: SchemaInfo) -> Query:
    fc = query.from_clause
    sub = normalize(fc.subquery, schema) if fc.subquery is not None else None
    scope = _Scope(fc, sub, schema)
    new_from = FromClause(
        tuple(
            JoinedTable(
                jt.table.lower(),
                scope.kept_alias(jt),
                tuple(_norm_cond(c, scope) for c in jt.conds),
            )
            for jt in fc.tables
        ),
        sub,
    )
    select = Select(
        query.select.distinct,
        tuple(
            SelectItem(item.agg, item.distinct, _norm_val(item.val, scope))
            for item in query.select.items
        ),
    )
    where = _norm_bool(query.where, scope)
    group_by = tuple(scope.resolve(c) for c in query.group_by)
    having = _norm_bool(query.having, scope)
    order_by = tuple(OrderItem(_norm_val(i.val, scope), i.direction) for i in query.order_by)
    set_op = None
    if query.set_op is not None:
        set_op = SetOp(query.set_op.kind, normalize(query.set_op.right, schema))
    return Query(select, new_from, where, group_by, having, order_by, query.limit, set_op)


class _Scope:
    """The tables one query's column references resolve against.

    ``tables`` holds the distinct FROM tables in FROM order, or, for a FROM
    subquery, the tables visible inside it. ``quals`` maps each declared
    qualifier (a table name or an alias) to the tables it can mean; a FROM
    subquery's alias means all of them, and is dropped. ``kept`` holds the
    aliases of repeated tables, which stay in the output.
    """

    def __init__(self, fc: FromClause, sub: Optional[Query], schema: SchemaInfo):
        self.schema = schema
        if sub is None:
            names = [jt.table.lower() for jt in fc.tables]
            for name in names:
                if not schema.has_table(name):
                    raise ParseError(f"unknown table {name!r} in schema {schema.db_id!r}")
        else:
            names = sorted(visible_tables(sub))
        self.counts = counts = Counter(names)
        self.tables = list(counts)
        self.quals = {t: (t,) for t in self.tables}
        self.kept: set[str] = set()
        aliases: set[str] = set()
        for jt, table in zip(fc.tables, names):
            if jt.alias:
                alias = jt.alias.lower()
                if alias in aliases:
                    raise NormalizeError(f"alias {alias!r} declared more than once")
                aliases.add(alias)
                self.quals[alias] = (table,)
                if counts[table] > 1:
                    self.kept.add(alias)
        self.sub_alias = fc.subquery_alias.lower() if fc.subquery_alias else None
        if self.sub_alias:
            self.quals[self.sub_alias] = tuple(self.tables)

    def kept_alias(self, jt: JoinedTable) -> Optional[str]:
        if jt.alias and jt.alias.lower() in self.kept:
            return jt.alias.lower()
        return None

    def resolve(self, col: ColumnRef) -> ColumnRef:
        column = col.column.lower()
        if not col.table:
            if column == "*":
                return ColumnRef(None, "*")
            owner = self._owner(column, self.tables, qualified=False)
            if self.counts[owner] > 1:
                raise NormalizeError(
                    f"column {column!r} of repeated table {owner!r} must be alias-qualified")
            return ColumnRef(owner, column)
        qual = col.table.lower()
        tables = self.quals.get(qual)
        if tables is None:
            what = "qualifying '*'" if column == "*" else f"for column {column!r}"
            raise ParseError(f"unknown table {qual!r} {what}")
        if column != "*":
            owner = self._owner(column, tables, qualified=True)
        elif qual == self.sub_alias:
            return ColumnRef(None, "*")  # the alias is dropped, as for t.col
        else:
            owner = tables[0]
        return ColumnRef(qual if qual in self.kept else owner, column)

    def _owner(self, column: str, tables, qualified: bool) -> str:
        owners = [t for t in tables if self.schema.has_column(t, column)]
        if len(owners) == 1:
            return owners[0]
        if owners:
            raise NormalizeError(f"column {column!r} is ambiguous across tables {owners}")
        where = f" in {sorted(tables)}" if qualified else ""
        raise ParseError(f"unknown column {column!r}{where}")


def _norm_val(val: ValUnit, scope: _Scope) -> ValUnit:
    left = _norm_unit(val.left, scope)
    right = _norm_unit(val.right, scope) if val.right is not None else None
    return ValUnit(val.op, left, right)


def _norm_unit(unit: ColUnit, scope: _Scope) -> ColUnit:
    return ColUnit(unit.agg, unit.distinct, scope.resolve(unit.col))


def _norm_bool(expr: Optional[BoolExpr], scope: _Scope) -> Optional[BoolExpr]:
    if expr is None:
        return None
    if isinstance(expr, BoolOp):
        return BoolOp(expr.op, tuple(_norm_bool(a, scope) for a in expr.args))
    return _norm_cond(expr, scope)


def _norm_cond(cond: Condition, scope: _Scope) -> Condition:
    return Condition(
        _norm_val(cond.left, scope),
        cond.op,
        _norm_operand(cond.right, scope),
        _norm_operand(cond.right2, scope) if cond.right2 is not None else None,
    )


def _norm_operand(operand, scope: _Scope):
    if isinstance(operand, Query):
        return normalize(operand, scope.schema)
    if isinstance(operand, ColUnit):
        return _norm_unit(operand, scope)
    if isinstance(operand, (Literal, ValueList)):
        return operand
    raise NormalizeError(f"unsupported operand {operand!r}")
