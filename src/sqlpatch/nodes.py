"""AST nodes for the Spider SQL subset, and the base of every value record.

Nodes are slotted records with structural equality and no hash. No code
mutates one after parse returns it; every transformation builds new values
(tests/test_nodes.py). Before that, normalize resolves the parser's fresh
tree in place, so a parsed tree shares no node.
"""

from __future__ import annotations

import json
from typing import Optional, Union


class Record:
    """A value whose fields are its class's ``__slots__``. It equals a value
    of the same class with equal fields and shows as ``Class(field=value,
    ...)``; it is hashed by its fields when its class is declared with
    ``hashable=True``, and has no hash otherwise."""

    __slots__ = ()

    def __init_subclass__(cls, hashable: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        if hashable:
            cls.__hash__ = Record._hash

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def _hash(self) -> int:
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def _fields(self) -> dict:
        return dict(zip(self.__slots__, self._values()))

    def to_json(self) -> str:
        """The record as one JSON object: each field under its name, in
        ``__slots__`` order; a record in a field is such an object too."""
        return json.dumps(self._fields(), ensure_ascii=False, default=Record._fields)


class ColumnRef(Record):
    __slots__ = ("table", "column")

    def __init__(self, table: Optional[str], column: str):
        self.table = table    # real table name or retained alias; None before qualification
        self.column = column  # may be "*"

    def text(self) -> str:
        if self.table:
            return f"{self.table}.{self.column}"
        return self.column


class ColUnit(Record):
    """A column possibly wrapped in one aggregate: ``agg(distinct col)``."""
    __slots__ = ("agg", "distinct", "col")

    def __init__(self, agg: Optional[str], distinct: bool, col: ColumnRef):
        self.agg, self.distinct, self.col = agg, distinct, col


class ValUnit(Record):
    """A column unit or a binary arithmetic expression over two of them."""
    __slots__ = ("op", "left", "right")

    def __init__(self, op: Optional[str], left: ColUnit, right: Optional[ColUnit] = None):
        self.op, self.left, self.right = op, left, right  # op: one of + - * /


class SelectItem(Record):
    """One select-list entry; ``agg`` is only set for an aggregate over arithmetic."""
    __slots__ = ("agg", "distinct", "val")

    def __init__(self, agg: Optional[str], distinct: bool, val: ValUnit):
        self.agg, self.distinct, self.val = agg, distinct, val


class Select(Record):
    __slots__ = ("distinct", "items")

    def __init__(self, distinct: bool, items: tuple[SelectItem, ...]):
        self.distinct, self.items = distinct, items


class Literal(Record):
    __slots__ = ("kind", "text")

    def __init__(self, kind: str, text: str):
        self.kind = kind  # number | string
        self.text = text  # verbatim token text (strings keep their quotes)

    def value(self) -> str:
        if self.kind == "string":  # the text inside the quotes, a doubled quote read as one
            quote = self.text[0]
            return self.text[1:-1].replace(quote * 2, quote)
        return self.text


class ValueList(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple[Literal, ...]):
        self.items = items


# Right-hand operand of a condition.
Operand = Union[Literal, ColUnit, ValueList, "Query"]


class Condition(Record):
    __slots__ = ("left", "op", "right", "right2")

    def __init__(self, left: ValUnit, op: str, right: Operand,
                 right2: Optional[Operand] = None):
        self.left = left
        self.op = op  # = != < > <= >= between like "not like" in "not in"
        self.right = right
        self.right2 = right2  # upper bound for between


class BoolOp(Record):
    __slots__ = ("op", "args")

    def __init__(self, op: str, args: tuple[BoolExpr, ...]):
        self.op, self.args = op, args  # op: and | or


BoolExpr = Union[Condition, BoolOp]


class JoinedTable(Record):
    __slots__ = ("table", "alias", "conds")

    def __init__(self, table: str, alias: Optional[str] = None,
                 conds: tuple[Condition, ...] = ()):
        self.table, self.alias = table, alias
        self.conds = conds  # ON conditions; empty for the first table


class FromClause(Record):
    __slots__ = ("tables", "subquery", "subquery_alias")

    def __init__(self, tables: tuple[JoinedTable, ...] = (), subquery: Optional[Query] = None,
                 subquery_alias: Optional[str] = None):
        self.tables = tables
        self.subquery = subquery  # alternative source: FROM (subquery)
        self.subquery_alias = subquery_alias


class OrderItem(Record):
    __slots__ = ("val", "direction")

    def __init__(self, val: ValUnit, direction: str = "asc"):
        self.val, self.direction = val, direction


class SetOp(Record):
    __slots__ = ("kind", "right")

    def __init__(self, kind: str, right: Query):
        self.kind, self.right = kind, right  # kind: intersect | union | except


class Query(Record):
    __slots__ = ("select", "from_clause", "where", "group_by", "having", "order_by",
                 "limit", "set_op")

    def __init__(self, select: Select, from_clause: FromClause,
                 where: Optional[BoolExpr] = None, group_by: tuple[ColumnRef, ...] = (),
                 having: Optional[BoolExpr] = None, order_by: tuple[OrderItem, ...] = (),
                 limit: Optional[int] = None, set_op: Optional[SetOp] = None):
        self.select, self.from_clause, self.where = select, from_clause, where
        self.group_by, self.having, self.order_by = group_by, having, order_by
        self.limit, self.set_op = limit, set_op


def conjuncts(expr: Optional[BoolExpr]) -> tuple[BoolExpr, ...]:
    """Top-level AND conjuncts of a boolean expression tree."""
    if expr is None:
        return ()
    if isinstance(expr, BoolOp) and expr.op == "and":
        return expr.args
    return (expr,)
