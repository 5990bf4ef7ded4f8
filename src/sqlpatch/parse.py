"""Recursive-descent parser for the Spider SQL subset.

Covers SELECT/FROM/WHERE/GROUP BY/HAVING/ORDER BY/LIMIT, joins, set
operations, and nested subqueries in WHERE, HAVING, and FROM. The parsed
query is handed to :func:`sqlpatch.normalize.normalize`, which checks every
table and column reference against the schema while it resolves aliases.
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


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def position(self) -> int:
        """1-based position of the current token (for error messages)."""
        return min(self.i, len(self.tokens) - 1) + 1 if self.tokens else 1

    def peek(self, off: int = 0) -> Optional[Token]:
        j = self.i + off
        return self.tokens[j] if j < len(self.tokens) else None

    def peek_text(self, off: int = 0) -> Optional[str]:
        tok = self.peek(off)
        return tok.text if tok else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", position=len(self.tokens) + 1)
        self.i += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.peek_text() == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok is None or tok.text != text:
            got = tok.text if tok else "end of input"
            raise ParseError(f"expected {text!r}, got {got!r} at token {self.position}",
                             position=self.position)
        return self.next()

    def error(self, message: str):
        raise ParseError(f"{message} at token {self.position}", position=self.position)


def parse(tokens: list[Token], schema: SchemaInfo) -> Query:
    """Parse a token list into a normalized, schema-checked Query AST."""
    cur = _Cursor(tokens)
    query = _query(cur)
    while cur.accept(";"):
        pass
    if cur.peek() is not None:
        cur.error(f"unexpected token {cur.peek_text()!r}")
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
        tok = cur.peek()
        if tok is None or tok.kind != "number-literal":
            cur.error("expected integer after limit")
        cur.next()
        try:
            limit = int(tok.text)
        except ValueError:
            cur.error(f"limit must be a non-negative integer, got {tok.text!r}")
    set_op = None
    if cur.peek_text() in _SET_OPS:
        kind = cur.next().text
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
    if cur.peek_text() in AGGREGATORS and cur.peek_text(1) == "(":
        agg = cur.next().text
        cur.expect("(")
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
    if cur.peek_text() in AGGREGATORS and cur.peek_text(1) == "(":
        agg = cur.next().text
        cur.expect("(")
        distinct = cur.accept("distinct")
        col = _column(cur)
        cur.expect(")")
        return ColUnit(agg, distinct, col)
    return ColUnit(None, False, _column(cur))


def _val_unit(cur: _Cursor) -> ValUnit:
    left = _col_unit(cur)
    if cur.peek_text() in ARITH_OPS:
        op = cur.next().text
        right = _col_unit(cur)
        return ValUnit(op, left, right)
    return ValUnit(None, left, None)


def _column(cur: _Cursor) -> ColumnRef:
    tok = cur.peek()
    if tok is None or tok.kind not in ("identifier", "star"):
        got = tok.text if tok else "end of input"
        cur.error(f"expected column reference, got {got!r}")
    cur.next()
    text = tok.text
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
        direction = "asc"
        if cur.peek_text() in ("asc", "desc"):
            direction = cur.next().text
        items.append(OrderItem(val, direction))
        if not cur.accept(","):
            return tuple(items)


def _from(cur: _Cursor) -> FromClause:
    cur.expect("from")
    if cur.peek_text() == "(" and cur.peek_text(1) == "select":
        cur.expect("(")
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
    tok = cur.peek()
    if tok is None or tok.kind != "identifier" or "." in tok.text:
        got = tok.text if tok else "end of input"
        cur.error(f"expected {what}, got {got!r}")
    cur.next()
    return tok.text


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
    tok = cur.peek()
    if tok is None:
        cur.error("expected comparison operator")
    op = tok.text
    if negated and op not in ("in", "like"):
        cur.error(f"'not' must be followed by 'in' or 'like', got {op!r}")
    if op == "between":
        cur.next()
        low = _operand(cur)
        cur.expect("and")
        high = _operand(cur)
        return Condition(left, "between", low, high)
    if op == "in":
        cur.next()
        cur.expect("(")
        if cur.peek_text() == "select":
            sub = _query(cur)
            cur.expect(")")
            return Condition(left, "not in" if negated else "in", sub)
        values = [_literal(cur)]
        while cur.accept(","):
            values.append(_literal(cur))
        cur.expect(")")
        return Condition(left, "not in" if negated else "in", ValueList(tuple(values)))
    if op == "like":
        cur.next()
        return Condition(left, "not like" if negated else "like", _operand(cur))
    if op in COMPARE_OPS:
        cur.next()
        return Condition(left, op, _operand(cur))
    cur.error(f"expected comparison operator, got {op!r}")


def _operand(cur: _Cursor):
    tok = cur.peek()
    if tok is None:
        cur.error("expected operand")
    if tok.text == "(" and cur.peek_text(1) == "select":
        cur.expect("(")
        sub = _query(cur)
        cur.expect(")")
        return sub
    if tok.kind in ("number-literal", "string-literal"):
        return _literal(cur)
    if tok.kind in ("identifier", "star") or (tok.text in AGGREGATORS and cur.peek_text(1) == "("):
        return _col_unit(cur)
    cur.error(f"expected operand, got {tok.text!r}")


def _literal(cur: _Cursor) -> Literal:
    tok = cur.peek()
    if tok is None or tok.kind not in ("number-literal", "string-literal"):
        got = tok.text if tok else "end of input"
        cur.error(f"expected literal value, got {got!r}")
    cur.next()
    kind = "number" if tok.kind == "number-literal" else "string"
    return Literal(kind, tok.text)
