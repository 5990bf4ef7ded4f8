"""Deterministic text rendering of normalized query ASTs.

One canonical form: lowercase keywords and identifiers, single spaces,
", " after commas, spaces around comparison operators, no space inside
function parentheses, "table.column" with no spaces, ascending direction
left implicit, explicit "desc". Subqueries render inline, in parentheses.
"""

from __future__ import annotations

from .nodes import (
    BoolExpr, BoolOp, ColUnit, Condition, FromClause, Literal, Query, Select,
    ValueList, ValUnit,
)
from .tokens import detokenize


def render_tokens(query: Query) -> list[str]:
    """Canonical token texts of a normalized query."""
    out: list[str] = []
    _query(query, out)
    return out


def render(query: Query) -> str:
    """Canonical text of a normalized query."""
    return detokenize(render_tokens(query))


# Each helper appends the tokens of one node to out.

def _query(q: Query, out: list[str]) -> None:
    _select(q.select, out)
    _from(q.from_clause, out)
    if q.where is not None:
        out.append("where")
        _bool(q.where, out)
    if q.group_by:
        out.append("group")
        for i, col in enumerate(q.group_by):
            out += ("," if i else "by", col.text())
    if q.having is not None:
        out.append("having")
        _bool(q.having, out)
    if q.order_by:
        out.append("order")
        for i, item in enumerate(q.order_by):
            out.append("," if i else "by")
            _val(item.val, out)
            if item.direction == "desc":
                out.append("desc")
    if q.limit is not None:
        out += ("limit", str(q.limit))
    if q.set_op is not None:
        out.append(q.set_op.kind)
        _query(q.set_op.right, out)


def _select(select: Select, out: list[str]) -> None:
    out.append("select")
    if select.distinct:
        out.append("distinct")
    for i, item in enumerate(select.items):
        if i:
            out.append(",")
        if item.agg is None:
            _val(item.val, out)
        else:
            out += (item.agg, "(", "distinct") if item.distinct else (item.agg, "(")
            _val(item.val, out)
            out.append(")")


def _val(val: ValUnit, out: list[str]) -> None:
    _unit(val.left, out)
    if val.op is not None:
        out.append(val.op)
        _unit(val.right, out)


def _unit(unit: ColUnit, out: list[str]) -> None:
    if unit.agg is None:
        out.append(unit.col.text())
    elif unit.distinct:
        out += (unit.agg, "(", "distinct", unit.col.text(), ")")
    else:
        out += (unit.agg, "(", unit.col.text(), ")")


def _from(fc: FromClause, out: list[str]) -> None:
    if fc.subquery is not None:
        out += ("from", "(")
        _query(fc.subquery, out)
        out.append(")")
        if fc.subquery_alias:
            out += ("as", fc.subquery_alias)
        return
    for i, jt in enumerate(fc.tables):
        out += ("join" if i else "from", jt.table)
        if jt.alias:
            out += ("as", jt.alias)
        for j, cond in enumerate(jt.conds):
            out.append("and" if j else "on")
            _cond(cond, out)


def _bool(expr: BoolExpr, out: list[str]) -> None:
    if isinstance(expr, BoolOp):
        for i, arg in enumerate(expr.args):
            if i:
                out.append(expr.op)
            _bool(arg, out)
    else:
        _cond(expr, out)


def _cond(cond: Condition, out: list[str]) -> None:
    _val(cond.left, out)
    out += cond.op.split(" ")  # "not in" / "not like" become two tokens
    _operand(cond.right, out)
    if cond.op == "between":
        out.append("and")
        _operand(cond.right2, out)


def _operand(operand, out: list[str]) -> None:
    if isinstance(operand, Literal):
        out.append(operand.text)
    elif isinstance(operand, ColUnit):
        _unit(operand, out)
    elif isinstance(operand, ValueList):
        for i, lit in enumerate(operand.items):
            out += ("," if i else "(", lit.text)
        out.append(")")
    elif isinstance(operand, Query):
        out.append("(")
        _query(operand, out)
        out.append(")")
    else:
        raise TypeError(f"cannot render operand {operand!r}")
