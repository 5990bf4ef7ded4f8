"""Seeded random query generation and wrong/gold pair perturbation.

Queries are built directly as normalized ASTs (fully qualified columns, no
aliases) over the toy schemas, covering joins, subqueries in WHERE/FROM/
HAVING, set operations, and every aggregator.

Perturbed pairs drive the diff/apply inverse suites. The generator only
emits pairs whose clause-level scripts are placement-unambiguous (applying
the script reconstructs the gold map); clause-level actions carry no paths,
so a pair whose script admits two placements is inherently out of reach for
clause-level editing, which is exactly what edit programs exist to fix.
"""

from __future__ import annotations

import random

from sqlpatch.clausemap import decompose
from sqlpatch.diffs import diff_clauses_sql
from sqlpatch.errors import SqlPatchError
from sqlpatch.nodes import (
    BoolOp, ColumnRef, ColUnit, Condition, FromClause, JoinedTable, Literal,
    OrderItem, Query, Select, SelectItem, SetOp, ValUnit,
)
from sqlpatch.normalize import visible_tables
from sqlpatch.schema import SchemaInfo
from sqlpatch.vm import apply_clause_edits

AGGS = ("max", "min", "count", "sum", "avg")


def replace(node, **changes):
    """A copy of an AST node with the given fields changed."""
    return type(node)(**{name: changes.get(name, getattr(node, name)) for name in node.__slots__})
COMPARES = ("=", "!=", "<", ">", "<=", ">=")
ARITHS = ("+", "-", "*", "/")
WORDS = ("'Asti'", "'Bern%'", "'Cusco'", "'Drax'", "'Elba'")


class QueryFuzzer:
    def __init__(self, schemas: dict[str, SchemaInfo], seed: int = 0):
        self.schemas = dict(schemas)
        self.rng = random.Random(seed)

    # -- query generation ---------------------------------------------------

    def query(self, db_id: str | None = None) -> tuple[str, Query]:
        if db_id is None:
            db_id = self.rng.choice(sorted(self.schemas))
        return db_id, self._query(self.schemas[db_id], depth=0)

    def _query(self, schema: SchemaInfo, depth: int) -> Query:
        rng = self.rng
        if depth == 0 and rng.random() < 0.08:
            sub = self._query(schema, depth + 1)
            from_clause = FromClause((), sub, None)
            tables = sorted(visible_tables(sub))
        else:
            tables, from_clause = self._from(schema)
        select = self._select(schema, tables)
        where = self._bool(schema, tables, depth) if rng.random() < 0.6 else None
        group_by = ()
        having = None
        if rng.random() < 0.3:
            group_by = tuple(self._col(schema, tables) for _ in range(rng.randint(1, 2)))
            if rng.random() < 0.5:
                having = self._having_cond(schema, tables, depth)
        order_by = self._order(schema, tables) if rng.random() < 0.45 else ()
        limit = rng.randint(1, 10) if rng.random() < 0.4 else None
        set_op = None
        if depth == 0 and rng.random() < 0.12:
            kind = rng.choice(("intersect", "union", "except"))
            set_op = SetOp(kind, self._query(schema, depth + 1))
        return Query(select, from_clause, where, group_by, having, order_by, limit, set_op)

    def _from(self, schema: SchemaInfo):
        rng = self.rng
        n = rng.randint(1, min(3, len(schema.tables)))
        chosen = rng.sample(list(schema.tables), n)
        joined = [JoinedTable(chosen[0], None, ())]
        for i in range(1, n):
            cond = self._join_cond(schema, chosen[i - 1], chosen[i])
            joined.append(JoinedTable(chosen[i], None, (cond,)))
        return chosen, FromClause(tuple(joined), None)

    def _join_cond(self, schema: SchemaInfo, a: str, b: str) -> Condition:
        for left, right in schema.foreign_keys:
            lt, lc = left.split(".")
            rt, rc = right.split(".")
            if {lt, rt} == {a, b}:
                return _col_eq(ColumnRef(lt, lc), ColumnRef(rt, rc))
        return _col_eq(ColumnRef(a, self.rng.choice(schema.columns[a])),
                       ColumnRef(b, self.rng.choice(schema.columns[b])))

    def _col(self, schema: SchemaInfo, tables) -> ColumnRef:
        table = self.rng.choice(list(tables))
        return ColumnRef(table, self.rng.choice(schema.columns[table]))

    def _select(self, schema: SchemaInfo, tables) -> Select:
        rng = self.rng
        items = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.15:
                items.append(SelectItem(None, False, _unit_val(
                    ColUnit("count", False, ColumnRef(None, "*")))))
            elif roll < 0.45:
                agg = rng.choice(AGGS)
                distinct = rng.random() < 0.15
                items.append(SelectItem(None, False, _unit_val(
                    ColUnit(agg, distinct, self._col(schema, tables)))))
            elif roll < 0.55:
                table = rng.choice(list(tables))
                cols = schema.columns[table]
                val = ValUnit(rng.choice(ARITHS),
                              ColUnit(None, False, ColumnRef(table, rng.choice(cols))),
                              ColUnit(None, False, ColumnRef(table, rng.choice(cols))))
                if roll < 0.58 and False:
                    pass
                items.append(SelectItem(None, False, val))
            else:
                items.append(SelectItem(None, False, _unit_val(
                    ColUnit(None, False, self._col(schema, tables)))))
        return Select(rng.random() < 0.2, tuple(items))

    def _bool(self, schema: SchemaInfo, tables, depth: int):
        rng = self.rng
        conds = [self._cond(schema, tables, depth)
                 for _ in range(rng.randint(1, 3))]
        if len(conds) == 1:
            return conds[0]
        shape = rng.random()
        if shape < 0.6:
            return BoolOp("and", tuple(conds))
        if shape < 0.85:
            return BoolOp("or", tuple(conds))
        return BoolOp("or", (BoolOp("and", tuple(conds[:2])),) + tuple(conds[2:])) \
            if len(conds) > 2 else BoolOp("or", tuple(conds))

    def _cond(self, schema: SchemaInfo, tables, depth: int) -> Condition:
        rng = self.rng
        left = _unit_val(ColUnit(None, False, self._col(schema, tables)))
        roll = rng.random()
        if roll < 0.12 and depth < 2:
            op = rng.choice(("in", "not in"))
            return Condition(left, op, self._subquery(schema, scalar=False, depth=depth))
        if roll < 0.22 and depth < 2:
            return Condition(left, rng.choice((">", "<", ">=", "<=")),
                             self._subquery(schema, scalar=True, depth=depth))
        if roll < 0.32:
            return Condition(left, "between", self._number(), self._number_above())
        if roll < 0.42:
            return Condition(left, "like", Literal("string", rng.choice(WORDS)))
        if roll < 0.52 and len(tables) > 1:
            return Condition(left, "=", ColUnit(None, False, self._col(schema, tables)))
        op = rng.choice(COMPARES)
        if rng.random() < 0.25:
            return Condition(left, op, Literal("string", rng.choice(WORDS)))
        return Condition(left, op, self._number())

    def _having_cond(self, schema: SchemaInfo, tables, depth: int) -> Condition:
        rng = self.rng
        if rng.random() < 0.5:
            left = _unit_val(ColUnit("count", False, ColumnRef(None, "*")))
        else:
            left = _unit_val(ColUnit(rng.choice(AGGS), False, self._col(schema, tables)))
        if rng.random() < 0.15 and depth < 2:
            return Condition(left, rng.choice((">", "<")),
                             self._subquery(schema, scalar=True, depth=depth))
        return Condition(left, rng.choice(COMPARES), self._number())

    def _subquery(self, schema: SchemaInfo, scalar: bool, depth: int) -> Query:
        rng = self.rng
        table = rng.choice(list(schema.tables))
        col = ColumnRef(table, rng.choice(schema.columns[table]))
        if scalar:
            item = SelectItem(None, False, _unit_val(
                ColUnit(rng.choice(AGGS), False, col)))
        else:
            item = SelectItem(None, False, _unit_val(ColUnit(None, False, col)))
        where = None
        if rng.random() < 0.4:
            where = self._cond(schema, [table], depth + 2)  # depth+2: no further nesting
        order_by = ()
        limit = None
        if scalar and rng.random() < 0.3:
            order_by = (OrderItem(_unit_val(ColUnit(None, False, ColumnRef(
                table, rng.choice(schema.columns[table])))), rng.choice(("asc", "desc"))),)
            limit = 1
        return Query(Select(False, (item,)), FromClause((JoinedTable(table, None, ()),), None),
                     where, (), None, order_by, limit, None)

    def _order(self, schema: SchemaInfo, tables) -> tuple[OrderItem, ...]:
        rng = self.rng
        items = []
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.3:
                unit = ColUnit(rng.choice(AGGS), False, self._col(schema, tables))
            else:
                unit = ColUnit(None, False, self._col(schema, tables))
            items.append(OrderItem(_unit_val(unit), rng.choice(("asc", "desc"))))
        return tuple(items)

    def _number(self) -> Literal:
        return Literal("number", str(self.rng.randint(0, 99)))

    def _number_above(self) -> Literal:
        return Literal("number", str(self.rng.randint(100, 500)))

    # -- pair perturbation ---------------------------------------------------

    def pair(self, db_id: str | None = None, max_edits: int = 4):
        """A (db_id, wrong, gold) pair differing in 1..max_edits clauses,
        guaranteed clause-script invertible (see module docstring)."""
        while True:
            chosen_db, gold = self.query(db_id)
            wrong = self._perturb(self.schemas[chosen_db], gold, max_edits)
            if wrong is None or wrong == gold:
                continue
            if self._clause_invertible(wrong, gold):
                return chosen_db, wrong, gold

    def _perturb(self, schema: SchemaInfo, gold: Query, max_edits: int):
        rng = self.rng
        wrong = gold
        wanted = rng.randint(1, max_edits)
        applied = 0
        for _ in range(40):
            if applied >= wanted:
                break
            op = rng.choice(_PERTURBATIONS)
            changed = op(self, schema, wrong)
            if changed is not None and changed != wrong:
                wrong = changed
                applied += 1
        return wrong if applied else None

    def _clause_invertible(self, wrong: Query, gold: Query) -> bool:
        try:
            wrong_map, gold_map = decompose(wrong), decompose(gold)
            script = diff_clauses_sql(wrong_map, gold_map)
            return apply_clause_edits(wrong_map, script) == gold_map
        except SqlPatchError:
            return False


def _unit_val(unit: ColUnit) -> ValUnit:
    return ValUnit(None, unit, None)


def _col_eq(a: ColumnRef, b: ColumnRef) -> Condition:
    return Condition(_unit_val(ColUnit(None, False, a)), "=", ColUnit(None, False, b))


# ---------------------------------------------------------------------------
# Perturbations: each takes (fuzzer, schema, query) and returns a modified
# query or None when inapplicable.


def _tables_of(query: Query):
    return sorted(visible_tables(query))


def _p_select_column(fz, schema, q):
    items = list(q.select.items)
    idx = fz.rng.randrange(len(items))
    item = items[idx]
    unit = item.val.left
    if unit.col.column == "*" or item.val.op is not None:
        return None
    table = unit.col.table
    options = [c for c in schema.columns.get(table, ()) if c != unit.col.column]
    if not options:
        return None
    new_col = ColumnRef(table, fz.rng.choice(options))
    items[idx] = replace(item, val=_unit_val(replace(unit, col=new_col)))
    return replace(q, select=replace(q.select, items=tuple(items)))


def _p_select_agg(fz, schema, q):
    items = list(q.select.items)
    idx = fz.rng.randrange(len(items))
    item = items[idx]
    unit = item.val.left
    if unit.agg is None or item.val.op is not None:
        return None
    options = [a for a in AGGS if a != unit.agg]
    items[idx] = replace(item, val=_unit_val(replace(unit, agg=fz.rng.choice(options))))
    return replace(q, select=replace(q.select, items=tuple(items)))


def _p_where_literal(fz, schema, q):
    if q.where is None:
        return None
    new_where, done = _mutate_first_literal(fz, q.where)
    if not done:
        return None
    return replace(q, where=new_where)


def _mutate_first_literal(fz, expr):
    if isinstance(expr, Condition):
        if isinstance(expr.right, Literal):
            if expr.right.kind == "number":
                lit = Literal("number", str(int(expr.right.text) + 1 + fz.rng.randint(0, 9)))
            else:
                options = [w for w in WORDS if w != expr.right.text]
                lit = Literal("string", fz.rng.choice(options))
            return replace(expr, right=lit), True
        return expr, False
    new_args = []
    done = False
    for arg in expr.args:
        if done:
            new_args.append(arg)
            continue
        new_arg, done = _mutate_first_literal(fz, arg)
        new_args.append(new_arg)
    return BoolOp(expr.op, tuple(new_args)), done


def _p_add_where(fz, schema, q):
    tables = _tables_of(q)
    cond = Condition(_unit_val(ColUnit(None, False, fz._col(schema, tables))),
                     fz.rng.choice(COMPARES), fz._number())
    if q.where is None:
        return replace(q, where=cond)
    if isinstance(q.where, BoolOp) and q.where.op == "and":
        return replace(q, where=BoolOp("and", q.where.args + (cond,)))
    return replace(q, where=BoolOp("and", (q.where, cond)))


def _p_drop_where(fz, schema, q):
    if q.where is None:
        return None
    return replace(q, where=None)


def _p_group_by(fz, schema, q):
    if q.group_by:
        return replace(q, group_by=(), having=None)
    tables = _tables_of(q)
    if not tables:
        return None
    return replace(q, group_by=(fz._col(schema, tables),))


def _p_order(fz, schema, q):
    rng = fz.rng
    tables = _tables_of(q)
    if q.order_by and rng.random() < 0.4:
        return replace(q, order_by=())
    if q.order_by:
        item = q.order_by[0]
        if rng.random() < 0.4:
            flipped = "desc" if item.direction == "asc" else "asc"
            return replace(q, order_by=(replace(item, direction=flipped),) + q.order_by[1:])
        new_item = OrderItem(_unit_val(ColUnit(None, False, fz._col(schema, tables))),
                             item.direction)
        return replace(q, order_by=(new_item,) + q.order_by[1:])
    return replace(q, order_by=(OrderItem(_unit_val(
        ColUnit(None, False, fz._col(schema, tables))), rng.choice(("asc", "desc"))),))


def _p_limit(fz, schema, q):
    if q.limit is None:
        return replace(q, limit=fz.rng.randint(1, 10))
    if fz.rng.random() < 0.5:
        return replace(q, limit=None)
    return replace(q, limit=q.limit + 1 + fz.rng.randint(0, 5))


def _p_set_op_kind(fz, schema, q):
    if q.set_op is None:
        return None
    options = [k for k in ("intersect", "union", "except") if k != q.set_op.kind]
    return replace(q, set_op=SetOp(fz.rng.choice(options), q.set_op.right))


def _p_subquery_edit(fz, schema, q):
    """Perturb inside the first WHERE/HAVING condition subquery."""
    for field in ("where", "having"):
        expr = getattr(q, field)
        if expr is None:
            continue
        new_expr, done = _mutate_first_subquery(fz, schema, expr)
        if done:
            return replace(q, **{field: new_expr})
    return None


def _mutate_first_subquery(fz, schema, expr):
    if isinstance(expr, Condition):
        if isinstance(expr.right, Query):
            mutated = _mutate_subquery(fz, schema, expr.right)
            if mutated is None:
                return expr, False
            return replace(expr, right=mutated), True
        return expr, False
    new_args = []
    done = False
    for arg in expr.args:
        if done:
            new_args.append(arg)
            continue
        new_arg, done = _mutate_first_subquery(fz, schema, arg)
        new_args.append(new_arg)
    return BoolOp(expr.op, tuple(new_args)), done


def _mutate_subquery(fz, schema, sub: Query):
    rng = fz.rng
    choices = []
    item = sub.select.items[0]
    unit = item.val.left
    if unit.agg is not None:
        choices.append("agg")
    if unit.col.column != "*":
        choices.append("col")
    if sub.limit is not None:
        choices.append("drop_limit")
    if sub.order_by:
        choices.append("drop_order")
    if sub.where is not None:
        choices.append("where_lit")
    if not choices:
        return None
    what = rng.choice(choices)
    if what == "agg":
        new_unit = replace(unit, agg=rng.choice([a for a in AGGS if a != unit.agg]))
        return replace(sub, select=Select(False, (replace(item, val=_unit_val(new_unit)),)))
    if what == "col":
        table = unit.col.table
        options = [c for c in schema.columns.get(table, ()) if c != unit.col.column]
        if not options:
            return None
        new_unit = replace(unit, col=ColumnRef(table, rng.choice(options)))
        return replace(sub, select=Select(False, (replace(item, val=_unit_val(new_unit)),)))
    if what == "drop_limit":
        return replace(sub, limit=None, order_by=())
    if what == "drop_order":
        return replace(sub, order_by=())
    new_where, done = _mutate_first_literal(fz, sub.where)
    return replace(sub, where=new_where) if done else None


_PERTURBATIONS = (
    _p_select_column, _p_select_agg, _p_where_literal, _p_add_where,
    _p_drop_where, _p_group_by, _p_order, _p_limit, _p_set_op_kind,
    _p_subquery_edit, _p_subquery_edit,
)
