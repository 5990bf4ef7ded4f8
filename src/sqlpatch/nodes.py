"""AST nodes for the Spider SQL subset.

Nodes are slotted dataclasses with structural equality and no hash. No code
mutates one after parse returns it; every transformation builds new values
(tests/test_nodes.py). Before that, normalize resolves the parser's fresh
tree in place, so a parsed tree shares no node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


@dataclass(slots=True)
class ColumnRef:
    table: Optional[str]  # real table name or retained alias; None before qualification
    column: str           # may be "*"

    def text(self) -> str:
        if self.table:
            return f"{self.table}.{self.column}"
        return self.column


@dataclass(slots=True)
class ColUnit:
    """A column possibly wrapped in one aggregate: ``agg(distinct col)``."""
    agg: Optional[str]
    distinct: bool
    col: ColumnRef


@dataclass(slots=True)
class ValUnit:
    """A column unit or a binary arithmetic expression over two of them."""
    op: Optional[str]  # one of + - * /
    left: ColUnit
    right: Optional[ColUnit] = None


@dataclass(slots=True)
class SelectItem:
    """One select-list entry; ``agg`` is only set for an aggregate over arithmetic."""
    agg: Optional[str]
    distinct: bool
    val: ValUnit


@dataclass(slots=True)
class Select:
    distinct: bool
    items: tuple[SelectItem, ...]


@dataclass(slots=True)
class Literal:
    kind: str  # number | string
    text: str  # verbatim token text (strings keep their quotes)

    def value(self) -> str:
        if self.kind == "string":
            return self.text[1:-1]
        return self.text


@dataclass(slots=True)
class ValueList:
    items: tuple[Literal, ...]


# Right-hand operand of a condition.
Operand = Union[Literal, ColUnit, ValueList, "Query"]


@dataclass(slots=True)
class Condition:
    left: ValUnit
    op: str  # = != < > <= >= between like "not like" in "not in"
    right: Operand
    right2: Optional[Operand] = None  # upper bound for between


@dataclass(slots=True)
class BoolOp:
    op: str  # and | or
    args: tuple["BoolExpr", ...]


BoolExpr = Union[Condition, BoolOp]


@dataclass(slots=True)
class JoinedTable:
    table: str
    alias: Optional[str] = None
    conds: tuple[Condition, ...] = ()  # ON conditions; empty for the first table


@dataclass(slots=True)
class FromClause:
    tables: tuple[JoinedTable, ...] = ()
    subquery: Optional["Query"] = None  # alternative source: FROM (subquery)
    subquery_alias: Optional[str] = None


@dataclass(slots=True)
class OrderItem:
    val: ValUnit
    direction: str = "asc"


@dataclass(slots=True)
class SetOp:
    kind: str  # intersect | union | except
    right: "Query"


@dataclass(slots=True)
class Query:
    select: Select
    from_clause: FromClause
    where: Optional[BoolExpr] = None
    group_by: tuple[ColumnRef, ...] = ()
    having: Optional[BoolExpr] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    set_op: Optional[SetOp] = None


def conjuncts(expr: Optional[BoolExpr]) -> tuple[BoolExpr, ...]:
    """Top-level AND conjuncts of a boolean expression tree."""
    if expr is None:
        return ()
    if isinstance(expr, BoolOp) and expr.op == "and":
        return expr.args
    return (expr,)
