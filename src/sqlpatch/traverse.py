"""Read-only traversal helpers over the query AST."""

from __future__ import annotations

from typing import Iterator, Optional

from .nodes import BoolExpr, Condition, Query


def iter_conditions(expr: Optional[BoolExpr]) -> Iterator[Condition]:
    if expr is None:
        return
    if isinstance(expr, Condition):
        yield expr
        return
    for arg in expr.args:
        yield from iter_conditions(arg)


def iter_child_queries(query: Query) -> Iterator[Query]:
    """Directly nested queries: condition subqueries, FROM subquery, set-op right."""
    if query.from_clause.subquery is not None:
        yield query.from_clause.subquery
    for expr in (query.where, query.having):
        for cond in iter_conditions(expr):
            for operand in (cond.right, cond.right2):
                if isinstance(operand, Query):
                    yield operand
    if query.set_op is not None:
        yield query.set_op.right


def visible_tables(query: Query) -> set[str]:
    """Real table names a query's columns can resolve against."""
    if query.from_clause.subquery is not None:
        return visible_tables(query.from_clause.subquery)
    return {jt.table for jt in query.from_clause.tables}
