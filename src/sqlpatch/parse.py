"""Recursive-descent parser for the Spider SQL subset.

Covers SELECT/FROM/WHERE/GROUP BY/HAVING/ORDER BY/LIMIT, joins, set
operations, and nested subqueries in WHERE, HAVING, and FROM. The parsed
query is handed to :func:`sqlpatch.normalize.normalize`, which checks every
table and column reference against the schema while it resolves aliases.
Each lookahead is an index into the cursor's lists of token texts and kinds.
"""

from __future__ import annotations

from typing import Optional

from .errors import ParseError
from .nodes import (
    BoolOp, ColumnRef, ColUnit, Condition, FromClause, JoinedTable, Literal,
    OrderItem, Query, Select, SelectItem, SetOp, ValueList, ValUnit,
)
from .normalize import normalize
from .schema import SchemaInfo
from .tokens import AGGREGATORS, ARITH_OPS, COMPARE_OPS, Token, tokenize

_SET_OPS = ("intersect", "union", "except")
_END = "end of input"  # no token has this text: only string literals hold a space


class _Cursor:
    """The token stream as parallel lists of texts and kinds. Each list ends
    in two sentinels, so a lookahead of up to one token past the current one
    is a plain index. The sentinel text is what error messages show at the
    end, and the sentinel kind is None."""

    def __init__(self, tokens: list[Token]):
        self.texts = [t.text for t in tokens] + [_END, _END]
        self.kinds = [t.kind for t in tokens] + [None, None]
        self.n = len(tokens)
        self.i = 0

    @property
    def position(self) -> int:
        """1-based position of the current token, one past the last at the end."""
        return self.i + 1

    def accept(self, text: str) -> bool:
        if self.texts[self.i] == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> None:
        got = self.texts[self.i]
        if got != text:
            raise ParseError(f"expected {text!r}, got {got!r} at token {self.position}",
                             position=self.position)
        self.i += 1

    def error(self, message: str):
        raise ParseError(f"{message} at token {self.position}", position=self.position)


def parse(tokens: list[Token], schema: SchemaInfo) -> Query:
    """Parse a token list into a normalized, schema-checked Query AST."""
    cur = _Cursor(tokens)
    query = _query(cur)
    while cur.accept(";"):
        pass
    if cur.i < cur.n:
        cur.error(f"unexpected token {cur.texts[cur.i]!r}")
    return normalize(query, schema)


def parse_sql(sql: str, schema: SchemaInfo) -> Query:
    """Convenience wrapper: tokenize and parse one query."""
    return parse(tokenize(sql), schema)


def _query(cur: _Cursor) -> Query:
    select = _select(cur)
    from_clause = _from(cur)
    where = _cond_expr(cur) if cur.accept("where") else None
    group_by: tuple[ColumnRef, ...] = ()
    having = None
    if cur.accept("group"):
        cur.expect("by")
        group_by = _column_list(cur)
        if cur.accept("having"):
            having = _cond_expr(cur)
    order_by: tuple[OrderItem, ...] = ()
    if cur.accept("order"):
        cur.expect("by")
        order_by = _order_items(cur)
    limit = None
    if cur.accept("limit"):
        if cur.kinds[cur.i] != "number-literal":
            cur.error("expected integer after limit")
        text = cur.texts[cur.i]
        try:
            limit = int(text)
        except ValueError:
            cur.error(f"limit must be a non-negative integer, got {text!r}")
        cur.i += 1
    set_op = None
    kind = cur.texts[cur.i]
    if kind in _SET_OPS:
        cur.i += 1
        set_op = SetOp(kind, _query(cur))
    return Query(select, from_clause, where, group_by, having, order_by, limit, set_op)


def _select(cur: _Cursor) -> Select:
    cur.expect("select")
    distinct = cur.accept("distinct")
    items = [_select_item(cur)]
    while cur.accept(","):
        items.append(_select_item(cur))
    return Select(distinct, tuple(items))


def _select_item(cur: _Cursor) -> SelectItem:
    agg = cur.texts[cur.i]
    if agg in AGGREGATORS and cur.texts[cur.i + 1] == "(":
        cur.i += 2
        distinct = cur.accept("distinct")
        val = _val_unit(cur)
        cur.expect(")")
        if val.op is None:
            inner = val.left
            if inner.agg is not None:
                cur.error("aggregates cannot be nested")
            unit = ColUnit(agg, distinct, inner.col)
            return SelectItem(None, False, ValUnit(None, unit, None))
        if val.left.agg is not None or (val.right and val.right.agg is not None):
            cur.error("aggregates cannot be nested")
        return SelectItem(agg, distinct, val)
    return SelectItem(None, False, _val_unit(cur))


def _col_unit(cur: _Cursor) -> ColUnit:
    agg = cur.texts[cur.i]
    if agg in AGGREGATORS and cur.texts[cur.i + 1] == "(":
        cur.i += 2
        distinct = cur.accept("distinct")
        col = _column(cur)
        cur.expect(")")
        return ColUnit(agg, distinct, col)
    return ColUnit(None, False, _column(cur))


def _val_unit(cur: _Cursor) -> ValUnit:
    left = _col_unit(cur)
    op = cur.texts[cur.i]
    if op in ARITH_OPS:
        cur.i += 1
        return ValUnit(op, left, _col_unit(cur))
    return ValUnit(None, left, None)


def _column(cur: _Cursor) -> ColumnRef:
    text = cur.texts[cur.i]
    if cur.kinds[cur.i] not in ("identifier", "star"):
        cur.error(f"expected column reference, got {text!r}")
    cur.i += 1
    if text == "*":
        return ColumnRef(None, "*")
    if text.endswith(".*"):
        return ColumnRef(text[:-2], "*")
    if "." in text:
        table, _, column = text.partition(".")
        if not table or not column or "." in column:
            cur.error(f"malformed column reference {text!r}")
        return ColumnRef(table, column)
    return ColumnRef(None, text)


def _column_list(cur: _Cursor) -> tuple[ColumnRef, ...]:
    cols = [_column(cur)]
    while cur.accept(","):
        cols.append(_column(cur))
    return tuple(cols)


def _order_items(cur: _Cursor) -> tuple[OrderItem, ...]:
    items = []
    while True:
        val = _val_unit(cur)
        direction = cur.texts[cur.i]
        if direction in ("asc", "desc"):
            cur.i += 1
        else:
            direction = "asc"
        items.append(OrderItem(val, direction))
        if not cur.accept(","):
            return tuple(items)


def _from(cur: _Cursor) -> FromClause:
    cur.expect("from")
    if cur.texts[cur.i] == "(" and cur.texts[cur.i + 1] == "select":
        cur.i += 1
        sub = _query(cur)
        cur.expect(")")
        alias = None
        if cur.accept("as"):
            alias = _identifier(cur, "subquery alias")
        return FromClause((), sub, alias)
    tables = [JoinedTable(_identifier(cur, "table name"), _maybe_alias(cur), ())]
    while True:
        if cur.accept("join") or cur.accept(","):
            name = _identifier(cur, "table name")
            alias = _maybe_alias(cur)
            conds: tuple[Condition, ...] = ()
            if cur.accept("on"):
                clist = [_condition(cur)]
                while cur.accept("and"):
                    clist.append(_condition(cur))
                conds = tuple(clist)
            tables.append(JoinedTable(name, alias, conds))
        else:
            return FromClause(tuple(tables), None)


def _identifier(cur: _Cursor, what: str) -> str:
    text = cur.texts[cur.i]
    if cur.kinds[cur.i] != "identifier" or "." in text:
        cur.error(f"expected {what}, got {text!r}")
    cur.i += 1
    return text


def _maybe_alias(cur: _Cursor) -> Optional[str]:
    if cur.accept("as"):
        return _identifier(cur, "alias")
    return None


def _cond_expr(cur: _Cursor):
    left = _and_expr(cur)
    args = [left]
    while cur.accept("or"):
        args.append(_and_expr(cur))
    if len(args) == 1:
        return left
    return BoolOp("or", tuple(args))


def _and_expr(cur: _Cursor):
    args = [_condition(cur)]
    while cur.accept("and"):
        args.append(_condition(cur))
    if len(args) == 1:
        return args[0]
    return BoolOp("and", tuple(args))


def _condition(cur: _Cursor) -> Condition:
    left = _val_unit(cur)
    negated = cur.accept("not")
    if cur.kinds[cur.i] is None:
        cur.error("expected comparison operator")
    op = cur.texts[cur.i]
    if negated and op not in ("in", "like"):
        cur.error(f"'not' must be followed by 'in' or 'like', got {op!r}")
    if op == "between":
        cur.i += 1
        low = _operand(cur)
        cur.expect("and")
        high = _operand(cur)
        return Condition(left, "between", low, high)
    if op == "in":
        cur.i += 1
        cur.expect("(")
        if cur.texts[cur.i] == "select":
            sub = _query(cur)
            cur.expect(")")
            return Condition(left, "not in" if negated else "in", sub)
        values = [_literal(cur)]
        while cur.accept(","):
            values.append(_literal(cur))
        cur.expect(")")
        return Condition(left, "not in" if negated else "in", ValueList(tuple(values)))
    if op == "like":
        cur.i += 1
        return Condition(left, "not like" if negated else "like", _operand(cur))
    if op in COMPARE_OPS:
        cur.i += 1
        return Condition(left, op, _operand(cur))
    cur.error(f"expected comparison operator, got {op!r}")


def _operand(cur: _Cursor):
    text, kind = cur.texts[cur.i], cur.kinds[cur.i]
    if kind is None:
        cur.error("expected operand")
    if text == "(" and cur.texts[cur.i + 1] == "select":
        cur.i += 1
        sub = _query(cur)
        cur.expect(")")
        return sub
    if kind in ("number-literal", "string-literal"):
        return _literal(cur)
    if kind in ("identifier", "star") or (text in AGGREGATORS and cur.texts[cur.i + 1] == "("):
        return _col_unit(cur)
    cur.error(f"expected operand, got {text!r}")


def _literal(cur: _Cursor) -> Literal:
    text, kind = cur.texts[cur.i], cur.kinds[cur.i]
    if kind not in ("number-literal", "string-literal"):
        cur.error(f"expected literal value, got {text!r}")
    cur.i += 1
    return Literal("number" if kind == "number-literal" else "string", text)
