"""Deterministic text rendering of normalized query ASTs.

One canonical form: lowercase keywords and identifiers, single spaces,
", " after commas, spaces around comparison operators, no space inside
function parentheses, "table.column" with no spaces, ascending direction
left implicit, explicit "desc". Subqueries render inline, in parentheses.
"""

from __future__ import annotations

from typing import Iterable

from .nodes import (
    BoolExpr, ColUnit, Condition, FromClause, Literal,
    Query, Select, SelectItem, ValueList, ValUnit,
)
from .tokens import detokenize


def render_tokens(query: Query) -> list[str]:
    out = select_tokens(query.select)
    out += from_tokens(query.from_clause)
    if query.where is not None:
        out += ["where"] + bool_tokens(query.where)
    if query.group_by:
        out += ["group", "by"] + _joined(",", [[col.text()] for col in query.group_by])
    if query.having is not None:
        out += ["having"] + bool_tokens(query.having)
    if query.order_by:
        out += ["order", "by"] + _joined(",", [
            val_tokens(item.val) + (["desc"] if item.direction == "desc" else [])
            for item in query.order_by])
    if query.limit is not None:
        out += ["limit", str(query.limit)]
    if query.set_op is not None:
        out += [query.set_op.kind] + render_tokens(query.set_op.right)
    return out


def render(query: Query) -> str:
    """Canonical text of a normalized query."""
    return detokenize(render_tokens(query))


def _joined(sep: str, parts: Iterable[list[str]]) -> list[str]:
    out: list[str] = []
    for part in parts:
        if out:
            out.append(sep)
        out += part
    return out


def select_tokens(select: Select) -> list[str]:
    out = ["select", "distinct"] if select.distinct else ["select"]
    return out + _joined(",", map(item_tokens, select.items))


def item_tokens(item: SelectItem) -> list[str]:
    if item.agg is not None:
        out = [item.agg, "("]
        if item.distinct:
            out.append("distinct")
        out += val_tokens(item.val)
        out.append(")")
        return out
    return val_tokens(item.val)


def val_tokens(val: ValUnit) -> list[str]:
    out = unit_tokens(val.left)
    if val.op is not None:
        out.append(val.op)
        out += unit_tokens(val.right)
    return out


def unit_tokens(unit: ColUnit) -> list[str]:
    if unit.agg is not None:
        out = [unit.agg, "("]
        if unit.distinct:
            out.append("distinct")
        out.append(unit.col.text())
        out.append(")")
        return out
    return [unit.col.text()]


def from_tokens(fc: FromClause) -> list[str]:
    if fc.subquery is not None:
        out = ["from", "("] + render_tokens(fc.subquery) + [")"]
        if fc.subquery_alias:
            out += ["as", fc.subquery_alias]
        return out
    out = ["from"]
    for i, jt in enumerate(fc.tables):
        if i:
            out.append("join")
        out.append(jt.table)
        if jt.alias:
            out += ["as", jt.alias]
        if jt.conds:
            out += ["on"] + _joined("and", map(cond_tokens, jt.conds))
    return out


def bool_tokens(expr: BoolExpr) -> list[str]:
    if isinstance(expr, Condition):
        return cond_tokens(expr)
    return _joined(expr.op, map(bool_tokens, expr.args))


def cond_tokens(cond: Condition) -> list[str]:
    out = val_tokens(cond.left)
    out += cond.op.split(" ")  # "not in" / "not like" become two tokens
    out += operand_tokens(cond.right)
    if cond.op == "between":
        out.append("and")
        out += operand_tokens(cond.right2)
    return out


def operand_tokens(operand) -> list[str]:
    if isinstance(operand, Literal):
        return [operand.text]
    if isinstance(operand, ColUnit):
        return unit_tokens(operand)
    if isinstance(operand, ValueList):
        return ["("] + _joined(",", [[lit.text] for lit in operand.items]) + [")"]
    if isinstance(operand, Query):
        return ["("] + render_tokens(operand) + [")"]
    raise TypeError(f"cannot render operand {operand!r}")

