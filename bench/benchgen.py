"""Seeded inputs for the pipeline benchmark.

Everything here is owned by the benchmark and imports nothing from
``sqlpatch`` or from the repository's tests, so a change to either cannot
silently change a workload. Queries are built in a small structural model
and rendered two ways: in canonical text (the README's "Canonical SQL
text" rules, re-implemented here) and in Spider surface form (upper-case
keywords, ``AS T1`` aliases, bare columns, explicit ``asc``, loose
spacing). The canonical text is what the checks compare against.

The same seed always yields the same schemas, rows and JSONL lines.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random

# ---------------------------------------------------------------------------
# Schemas and rows

# table -> [(column, type)], type in int | real | text; the first column of
# each table is its key, unique within the table.
SCHEMAS = {
    "social": {
        "user_profiles": [("uid", "int"), ("name", "text"), ("email", "text"),
                          ("followers", "int")],
        "tweets": [("id", "int"), ("uid", "int"), ("text", "text"),
                   ("createdate", "text")],
    },
    "cars": {
        "car_makers": [("maker_id", "int"), ("maker", "text"), ("country", "text")],
        "model_list": [("model_id", "int"), ("maker_id", "int"), ("model", "text")],
        "cars_data": [("id", "int"), ("model_id", "int"), ("mpg", "real"),
                      ("horsepower", "int"), ("weight", "int"), ("year", "int")],
    },
    "hr": {
        "employee": [("employee_id", "int"), ("name", "text"), ("age", "int"),
                     ("city", "text")],
        "shop": [("shop_id", "int"), ("name", "text"), ("district", "text"),
                 ("num_products", "int")],
        "hiring": [("hire_id", "int"), ("shop_id", "int"), ("employee_id", "int"),
                   ("start_from", "int")],
        "evaluation": [("eval_id", "int"), ("employee_id", "int"),
                       ("year_awarded", "int"), ("bonus", "real")],
    },
    "school": {
        "students": [("student_id", "int"), ("name", "text"), ("gpa", "real"),
                     ("age", "int")],
        "courses": [("course_id", "int"), ("title", "text"), ("credits", "int")],
        "enrollment": [("enroll_id", "int"), ("student_id", "int"),
                       ("course_id", "int"), ("grade", "text")],
    },
    "store": {
        "customers": [("customer_id", "int"), ("name", "text"), ("city", "text")],
        "products": [("product_id", "int"), ("name", "text"), ("price", "real"),
                     ("category", "text")],
        "orders": [("order_id", "int"), ("customer_id", "int"),
                   ("product_id", "int"), ("quantity", "int")],
    },
    "flights": {
        "airlines": [("aid", "int"), ("name", "text"), ("country", "text")],
        "flight": [("fno", "int"), ("aid", "int"), ("origin", "text"),
                   ("destination", "text"), ("distance", "int"), ("price", "real")],
    },
}

# (child table, child column, parent table, parent column); parents' key
# columns are unique, so every join along these edges has at most as many
# rows as its largest child table.
FOREIGN_KEYS = {
    "social": [("tweets", "uid", "user_profiles", "uid")],
    "cars": [("model_list", "maker_id", "car_makers", "maker_id"),
             ("cars_data", "model_id", "model_list", "model_id")],
    "hr": [("hiring", "shop_id", "shop", "shop_id"),
           ("hiring", "employee_id", "employee", "employee_id"),
           ("evaluation", "employee_id", "employee", "employee_id")],
    "school": [("enrollment", "student_id", "students", "student_id"),
               ("enrollment", "course_id", "courses", "course_id")],
    "store": [("orders", "customer_id", "customers", "customer_id"),
              ("orders", "product_id", "products", "product_id")],
    "flights": [("flight", "aid", "airlines", "aid")],
}

# Row counts per table are drawn from this range. The widest query is a
# three-table join along foreign keys, so it stays within ROWS_MAX rows and
# no query runs long even though the execution backend has no time limit.
ROWS_MIN, ROWS_MAX = 100, 200

WORDS = ("Asti", "Bern", "Cusco", "Drax", "Elba", "Faro", "Gao", "Hue",
         "Ibiza", "Jena")
INT_RANGES = {"followers": (0, 5000), "horsepower": (50, 250), "weight": (1500, 5000),
              "year": (1970, 1985), "age": (18, 70), "num_products": (1, 100),
              "start_from": (2000, 2020), "year_awarded": (2010, 2020),
              "credits": (1, 6), "quantity": (1, 20), "distance": (100, 5000)}
REAL_RANGES = {"mpg": (10, 45), "bonus": (100, 3000), "gpa": (1, 4),
               "price": (5, 900)}

AGGS = ("max", "min", "count", "sum", "avg")
NUMERIC_AGGS = ("max", "min", "sum", "avg")
COMPARES = ("=", "!=", "<", ">", "<=", ">=")
SET_OPS = ("intersect", "union", "except")


def tables_json() -> list[dict]:
    """The schemas in the Spider ``tables.json`` layout."""
    out = []
    for db_id, tables in SCHEMAS.items():
        names = list(tables)
        columns = [[-1, "*"]]
        index = {}
        for t_idx, table in enumerate(names):
            for col, _ in tables[table]:
                index[(table, col)] = len(columns)
                columns.append([t_idx, col])
        fks = [[index[(ct, cc)], index[(pt, pc)]]
               for ct, cc, pt, pc in FOREIGN_KEYS[db_id]]
        out.append({"db_id": db_id, "table_names_original": names,
                    "column_names_original": columns, "foreign_keys": fks})
    return out


def schema_serial(db_id: str) -> str:
    """README schema serialization: ``db_id | table : col, col | ...``."""
    parts = [db_id]
    for table, cols in SCHEMAS[db_id].items():
        parts.append(f"{table} : " + ", ".join(c for c, _ in cols))
    return " | ".join(parts)


def _col_type(db_id, table, column):
    return dict(SCHEMAS[db_id][table])[column]


def _value(rng, column, ctype):
    if ctype == "text":
        return rng.choice(WORDS) + ("" if rng.random() < 0.5 else str(rng.randint(1, 9)))
    if ctype == "real":
        lo, hi = REAL_RANGES.get(column, (0, 100))
        return round(rng.uniform(lo, hi), 1)
    lo, hi = INT_RANGES.get(column, (0, 100))
    return rng.randint(lo, hi)


def database_rows(seed: int) -> dict[str, dict[str, list[tuple]]]:
    """db_id -> table -> rows. Key columns count from 1; foreign key columns
    draw from their parent's keys."""
    rng = random.Random(f"rows:{seed}")
    out = {}
    for db_id, tables in SCHEMAS.items():
        sizes = {t: rng.randint(ROWS_MIN, ROWS_MAX) for t in tables}
        fk_parent = {(ct, cc): pt for ct, cc, pt, _ in FOREIGN_KEYS[db_id]}
        rows = {}
        for table, cols in tables.items():
            table_rows = []
            for i in range(1, sizes[table] + 1):
                row = [i]
                for col, ctype in cols[1:]:
                    parent = fk_parent.get((table, col))
                    if parent is not None:
                        row.append(rng.randint(1, sizes[parent]))
                    else:
                        row.append(_value(rng, col, ctype))
                table_rows.append(tuple(row))
            rows[table] = table_rows
        out[db_id] = rows
    return out


# ---------------------------------------------------------------------------
# Query model
#
# A query is a dict:
#   select  [item]; item = ("col", agg|None, distinct, (t, c)) | ("star",)
#                   | ("arith", op, (t, c), (t, c))
#   distinct  bool
#   tables  [t0, t1, ...];  joins [((t, c), (t, c))] for t1..
#   where   None | cond | ("and"|"or", [cond, ...]) | ("mixed", [c, c], [c])
#   group   [(t, c)];  having None | cond
#   order   [(agg|None, (t, c), "asc"|"desc")]
#   limit   None | int
#   setop   None | (kind, query)
# cond = ((agg|None, (t, c)), op, operand[, operand2 for between]);
# operand = ("num", text) | ("str", text) | ("col", (t, c)) | ("sub", query)


class QueryGen:
    def __init__(self, db_id: str, rng: random.Random):
        self.db_id = db_id
        self.rng = rng
        self.tables = SCHEMAS[db_id]

    # -- helpers --------------------------------------------------------------

    def cols(self, tables, kind=None):
        out = []
        for t in tables:
            for c, ctype in self.tables[t]:
                if kind is None or (kind == "num" and ctype != "text") or kind == ctype:
                    out.append((t, c))
        return out

    def literal_for(self, col):
        t, c = col
        ctype = _col_type(self.db_id, t, c)
        rng = self.rng
        if ctype == "text":
            return ("str", f"'{rng.choice(WORDS)}'")
        if ctype == "real":
            lo, hi = REAL_RANGES.get(c, (0, 100))
            return ("num", f"{rng.uniform(lo, hi):.1f}")
        lo, hi = INT_RANGES.get(c, (0, 160))
        return ("num", str(rng.randint(lo, hi)))

    def join_path(self, n):
        fks = FOREIGN_KEYS[self.db_id]
        rng = self.rng
        start = rng.choice(list(self.tables))
        chosen, joins = [start], []
        while len(chosen) < n:
            options = []
            for ct, cc, pt, pc in fks:
                if ct in chosen and pt not in chosen:
                    options.append((pt, ((ct, cc), (pt, pc))))
                elif pt in chosen and ct not in chosen:
                    options.append((ct, ((pt, pc), (ct, cc))))
            if not options:
                break
            table, cond = rng.choice(options)
            chosen.append(table)
            joins.append(cond)
        return chosen, joins

    # -- generation -----------------------------------------------------------

    def query(self, long: bool = False) -> dict:
        rng = self.rng
        n_tables = 3 if long else rng.choices((1, 2, 3), (6, 3, 1))[0]
        tables, joins = self.join_path(n_tables)
        q = {"distinct": rng.random() < 0.1, "tables": tables, "joins": joins,
             "select": self.select_items(tables, rng.randint(3, 4) if long else
                                         rng.choices((1, 2, 3), (5, 3, 2))[0]),
             "where": None, "group": [], "having": None, "order": [],
             "limit": None, "setop": None}
        if long or rng.random() < 0.6:
            q["where"] = self.where(tables, n=rng.randint(3, 4) if long else
                                    rng.choices((1, 2, 3), (5, 3, 2))[0],
                                    subqueries=2 if long else None)
        if rng.random() < (0.5 if long else 0.25):
            q["group"] = [rng.choice(self.cols(tables))]
            if rng.random() < 0.5:
                q["having"] = self.having(tables)
        if rng.random() < 0.35:
            # SQLite rejects an aggregate in ORDER BY of a query without GROUP BY
            q["order"] = self.order_items(tables, aggregates=bool(q["group"]))
        if rng.random() < 0.3:
            q["limit"] = rng.randint(2, 10)
        if rng.random() < (0.5 if long else 0.1):
            # SQLite rejects ORDER BY / LIMIT before a compound operator, and
            # both sides must have the same number of result columns.
            q["order"], q["limit"] = [], None
            right = self.query_plain(len(q["select"]), long)
            q["setop"] = (rng.choice(SET_OPS), right)
        return q

    def query_plain(self, n_items, long):
        rng = self.rng
        tables, joins = self.join_path(rng.randint(1, 2))
        return {"distinct": False, "tables": tables, "joins": joins,
                "select": self.select_items(tables, n_items),
                "where": self.where(tables, n=rng.randint(1, 3 if long else 2),
                                    subqueries=1 if long else 0)
                if long or rng.random() < 0.5 else None,
                "group": [], "having": None, "order": [], "limit": None, "setop": None}

    def select_items(self, tables, n):
        rng = self.rng
        items = []
        for _ in range(n * 4):
            if len(items) >= n:
                break
            roll = rng.random()
            if roll < 0.12:
                item = ("star",)
            elif roll < 0.42:
                agg = rng.choice(AGGS)
                pool = self.cols(tables, "num") if agg in NUMERIC_AGGS else self.cols(tables)
                item = ("col", agg, agg == "count" and rng.random() < 0.3, rng.choice(pool))
            elif roll < 0.5:
                t = rng.choice(tables)
                nums = self.cols([t], "num")
                a, b = rng.choice(nums), rng.choice(nums)
                item = ("arith", rng.choice("+-"), a, b)
            else:
                item = ("col", None, False, rng.choice(self.cols(tables)))
            if item not in items:
                items.append(item)
        return items

    def cond(self, tables, allow_sub: bool):
        rng = self.rng
        col = rng.choice(self.cols(tables))
        ctype = _col_type(self.db_id, *col)
        roll = rng.random()
        if allow_sub and roll < 0.14:
            sub = self.subquery(scalar=False)
            return ((None, col), rng.choice(("in", "not in")), ("sub", sub))
        if allow_sub and roll < 0.24:
            sub = self.subquery(scalar=True)
            return ((None, col), rng.choice((">", "<", ">=", "<=")), ("sub", sub))
        if ctype != "text" and roll < 0.36:
            lo = self.literal_for(col)
            hi = ("num", str(int(float(lo[1])) + rng.randint(5, 500)))
            return ((None, col), "between", lo, hi)
        if ctype == "text" and roll < 0.5:
            word = rng.choice(WORDS)
            pattern = f"'{word[:2]}%'" if rng.random() < 0.5 else f"'{word}'"
            return ((None, col), rng.choice(("like", "not like")), ("str", pattern))
        return ((None, col), rng.choice(COMPARES), self.literal_for(col))

    def where(self, tables, n, subqueries=None):
        rng = self.rng
        conds = []
        for i in range(n * 4):
            if len(conds) >= n:
                break
            if subqueries is None:
                cond = self.cond(tables, allow_sub=True)
            else:
                forced = i < subqueries
                cond = self.cond_with_sub(tables) if forced else self.cond(tables, False)
            if cond not in conds:
                conds.append(cond)
        if len(conds) == 1:
            return conds[0]
        shape = rng.random()
        if shape < 0.6 or subqueries:
            return ("and", conds)
        if shape < 0.85 or len(conds) < 3:
            return ("or", conds)
        return ("mixed", conds[:2], conds[2:])

    def cond_with_sub(self, tables):
        rng = self.rng
        col = rng.choice(self.cols(tables, "num"))
        if rng.random() < 0.5:
            return ((None, col), rng.choice(("in", "not in")), ("sub", self.subquery(False)))
        return ((None, col), rng.choice((">", "<")), ("sub", self.subquery(True)))

    def subquery(self, scalar: bool) -> dict:
        rng = self.rng
        table = rng.choice(list(self.tables))
        if scalar:
            agg = rng.choice(AGGS)
            pool = self.cols([table], "num") if agg in NUMERIC_AGGS else self.cols([table])
            item = ("col", agg, False, rng.choice(pool))
        else:
            item = ("col", None, False, rng.choice(self.cols([table])))
        where = self.cond([table], allow_sub=False) if rng.random() < 0.5 else None
        return {"distinct": False, "tables": [table], "joins": [], "select": [item],
                "where": where, "group": [], "having": None, "order": [],
                "limit": None, "setop": None}

    def having(self, tables):
        rng = self.rng
        if rng.random() < 0.5:
            return (("count", (None, "*")), rng.choice(COMPARES), ("num", str(rng.randint(1, 5))))
        col = rng.choice(self.cols(tables, "num"))
        agg = rng.choice(NUMERIC_AGGS)
        return ((agg, col), rng.choice(COMPARES), self.literal_for(col))

    def order_items(self, tables, aggregates: bool):
        rng = self.rng
        items = []
        for _ in range(rng.randint(1, 2)):
            if aggregates and rng.random() < 0.5:
                col = rng.choice(self.cols(tables, "num"))
                item = (rng.choice(NUMERIC_AGGS), col, rng.choice(("asc", "desc")))
            else:
                item = (None, rng.choice(self.cols(tables)), rng.choice(("asc", "desc")))
            if all(item[:2] != other[:2] for other in items):
                items.append(item)
        return items


# ---------------------------------------------------------------------------
# Canonical rendering (README "Canonical SQL text")

_AGG_SET = frozenset(AGGS)


def detok(tokens) -> str:
    out, prev = [], None
    for text in tokens:
        if prev is None or prev == "(" or text in (")", ",") or (
                text == "(" and prev in _AGG_SET):
            out.append(text)
        else:
            out.append(" " + text)
        prev = text
    return "".join(out)


def canonical(q: dict) -> str:
    return detok(Renderer().query(q))


class Renderer:
    """Token renderer. The base class emits canonical tokens; the surface
    subclass overrides the hooks that Spider-style text varies."""

    def kw(self, word):
        return word

    def col(self, col):
        t, c = col
        return "*" if c == "*" else f"{t}.{c}"

    def table(self, t):
        return [t]

    def enter(self, q):
        pass

    def leave(self):
        pass

    def direction(self, d):
        return [self.kw("desc")] if d == "desc" else []

    def compare(self, op):
        return [op]

    def query(self, q):
        self.enter(q)
        out = [self.kw("select")]
        if q["distinct"]:
            out.append(self.kw("distinct"))
        for i, item in enumerate(q["select"]):
            if i:
                out.append(",")
            out += self.item(item)
        out.append(self.kw("from"))
        out += self.table(q["tables"][0])
        for i, (a, b) in enumerate(q["joins"], start=1):
            out += [self.kw("join")] + self.table(q["tables"][i])
            out += [self.kw("on"), self.col(a), "=", self.col(b)]
        if q["where"] is not None:
            out += [self.kw("where")] + self.boolean(q["where"])
        if q["group"]:
            out += [self.kw("group"), self.kw("by")]
            for i, c in enumerate(q["group"]):
                if i:
                    out.append(",")
                out.append(self.col(c))
        if q["having"] is not None:
            out += [self.kw("having")] + self.cond(q["having"])
        if q["order"]:
            out += [self.kw("order"), self.kw("by")]
            for i, (agg, c, d) in enumerate(q["order"]):
                if i:
                    out.append(",")
                out += self.unit(agg, False, c) + self.direction(d)
        if q["limit"] is not None:
            out += [self.kw("limit"), str(q["limit"])]
        self.leave()
        if q["setop"] is not None:
            kind, right = q["setop"]
            out += [self.kw(kind)] + self.query(right)
        return out

    def unit(self, agg, distinct, col):
        if agg is None:
            return [self.col(col)]
        out = [self.kw(agg), "("]
        if distinct:
            out.append(self.kw("distinct"))
        return out + [self.col(col), ")"]

    def item(self, item):
        if item[0] == "star":
            return [self.kw("count"), "(", "*", ")"]
        if item[0] == "arith":
            _, op, a, b = item
            return [self.col(a), op, self.col(b)]
        _, agg, distinct, col = item
        return self.unit(agg, distinct, col)

    def boolean(self, expr):
        if expr[0] in ("and", "or"):
            out = []
            for i, c in enumerate(expr[1]):
                if i:
                    out.append(self.kw(expr[0]))
                out += self.cond(c)
            return out
        if expr[0] == "mixed":
            return self.boolean(("and", expr[1])) + [self.kw("or")] + self.boolean(("or", expr[2]))
        return self.cond(expr)

    def cond(self, cond):
        (agg, col), op = cond[0], cond[1]
        out = self.unit(agg, False, col) if col != (None, "*") else \
            [self.kw(agg), "(", "*", ")"]
        if op in COMPARES:
            out += self.compare(op)
        else:
            out += [self.kw(w) for w in op.split(" ")]
        out += self.operand(cond[2])
        if op == "between":
            out += [self.kw("and")] + self.operand(cond[3])
        return out

    def operand(self, operand):
        kind, value = operand
        if kind == "sub":
            return ["("] + self.query(value) + [")"]
        if kind == "col":
            return [self.col(value)]
        return [value]


class SurfaceRenderer(Renderer):
    """Spider-style text that normalizes back to the canonical form."""

    def __init__(self, rng: random.Random):
        self.upper = rng.random() < 0.8
        self.aliases = rng.random() < 0.7
        self.bare = rng.random() < 0.5       # unqualified columns in one-table scopes
        self.explicit_asc = rng.random() < 0.5
        self.diamond = rng.random() < 0.5    # "<>" for "!="
        self.scopes: list[dict] = []

    def kw(self, word):
        return word.upper() if self.upper else word

    def enter(self, q):
        scope = {}
        if self.aliases:
            scope = {t: f"T{i + 1}" for i, t in enumerate(q["tables"])}
        scope["__bare__"] = self.bare and not self.aliases and len(q["tables"]) == 1
        self.scopes.append(scope)

    def leave(self):
        self.scopes.pop()

    def table(self, t):
        scope = self.scopes[-1]
        if t in scope:
            return [t, self.kw("as"), scope[t]]
        return [t]

    def col(self, col):
        t, c = col
        if c == "*":
            return "*"
        scope = self.scopes[-1] if self.scopes else {}
        if scope.get("__bare__"):
            return c
        return f"{scope.get(t, t)}.{c}"

    def direction(self, d):
        if d == "desc":
            return [self.kw("desc")]
        return [self.kw("asc")] if self.explicit_asc else []

    def compare(self, op):
        return ["<>"] if op == "!=" and self.diamond else [op]


def surface(q: dict, rng: random.Random) -> str:
    tokens = SurfaceRenderer(rng).query(q)
    spaced = rng.random() < 0.3
    return " ".join(tokens) if spaced else detok(tokens)


# ---------------------------------------------------------------------------
# Ungrammatical entries: each fails in the tokenizer, the parser or the
# schema check.


def ungrammatical(q: dict, rng: random.Random) -> str:
    text = canonical(q)
    kind = rng.randrange(5)
    if kind == 0:
        return text.replace(" from ", " ", 1)            # missing FROM
    if kind == 1:
        return text + " where"                          # dangling keyword
    if kind == 2:
        return "select from where"
    if kind == 3:
        return text.replace(" from ", " # from ", 1)     # illegal character
    t = q["tables"][0]
    return text.replace(" from ", f", {t}.no_such_column from ", 1)


# ---------------------------------------------------------------------------
# Perturbations: each returns a changed copy, or None when inapplicable.


def _first_literal(expr, path=()):
    """Path to the first literal operand of a root-level condition."""
    if expr is None:
        return None
    if expr[0] in ("and", "or"):
        for i, c in enumerate(expr[1]):
            found = _first_literal(c, path + (1, i))
            if found:
                return found
        return None
    if expr[0] == "mixed":
        for part in (1, 2):
            for i, c in enumerate(expr[part]):
                found = _first_literal(c, path + (part, i))
                if found:
                    return found
        return None
    if expr[2][0] in ("num", "str"):
        return path
    return None


def _get(expr, path):
    for p in path:
        expr = expr[p]
    return expr


def _set(expr, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    items = list(expr)
    items[head] = _set(items[head], rest, value)
    return tuple(items) if isinstance(expr, tuple) else items


def _bump_literal(gen, lit):
    kind, text = lit
    if kind == "num":
        if "." in text:
            return ("num", f"{float(text) + gen.rng.randint(1, 9):.1f}")
        return ("num", str(int(text) + gen.rng.randint(1, 9)))
    if text.endswith("%'"):
        return ("str", f"'{gen.rng.choice([w for w in WORDS if w[:2] != text[1:3]])[:2]}%'")
    return ("str", f"'{gen.rng.choice([w for w in WORDS if w != text[1:-1]])}'")


def p_select_col(gen, q):
    idx = [i for i, it in enumerate(q["select"]) if it[0] == "col"]
    if not idx:
        return None
    i = gen.rng.choice(idx)
    _, agg, distinct, (t, c) = q["select"][i]
    pool = gen.cols([t], "num" if agg in NUMERIC_AGGS else None)
    pool = [col for col in pool if col != (t, c)]
    if not pool:
        return None
    new = ("col", agg, distinct, gen.rng.choice(pool))
    if new in q["select"]:
        return None
    out = copy.deepcopy(q)
    out["select"][i] = new
    return out


def p_select_agg(gen, q):
    idx = [i for i, it in enumerate(q["select"]) if it[0] == "col" and it[1]]
    if not idx:
        return None
    i = gen.rng.choice(idx)
    _, agg, distinct, col = q["select"][i]
    numeric = _col_type(gen.db_id, *col) != "text"
    options = [a for a in (AGGS if numeric else ("max", "min", "count")) if a != agg]
    new = ("col", gen.rng.choice(options), False, col)
    if new in q["select"]:
        return None
    out = copy.deepcopy(q)
    out["select"][i] = new
    return out


def p_distinct(gen, q):
    out = copy.deepcopy(q)
    out["distinct"] = not q["distinct"]
    return out


def p_where_literal(gen, q):
    path = _first_literal(q["where"])
    if path is None:
        return None
    cond = _get(q["where"], path)
    new_cond = cond[:2] + (_bump_literal(gen, cond[2]),) + cond[3:]
    if cond[1] == "between":
        lo = float(new_cond[2][1])
        if lo >= float(cond[3][1]):
            return None
    out = copy.deepcopy(q)
    out["where"] = _set(q["where"], path, new_cond)
    return out


def p_add_where(gen, q):
    col = gen.rng.choice(gen.cols(q["tables"], "num"))
    lo, hi = INT_RANGES.get(col[1], REAL_RANGES.get(col[1], (0, 160)))
    cond = ((None, col), gen.rng.choice(COMPARES), ("num", str(int(hi) + 1 + gen.rng.randint(0, 50))))
    out = copy.deepcopy(q)
    where = q["where"]
    if where is None:
        out["where"] = cond
    elif where[0] == "and":
        out["where"] = ("and", list(where[1]) + [cond])
    elif where[0] in ("or", "mixed"):
        return None
    else:
        out["where"] = ("and", [where, cond])
    return out


def p_drop_where(gen, q):
    if q["where"] is None:
        return None
    out = copy.deepcopy(q)
    out["where"] = None
    return out


def p_group(gen, q):
    out = copy.deepcopy(q)
    if q["group"]:
        out["group"], out["having"] = [], None
    else:
        out["group"] = [gen.rng.choice(gen.cols(q["tables"]))]
    return out


def p_order(gen, q):
    if q["setop"] is not None:
        return None
    rng = gen.rng
    out = copy.deepcopy(q)
    if not q["order"]:
        out["order"] = [(None, rng.choice(gen.cols(q["tables"])), rng.choice(("asc", "desc")))]
    elif rng.random() < 0.4:
        out["order"] = []
    else:
        agg, col, d = q["order"][0]
        out["order"][0] = (agg, col, "asc" if d == "desc" else "desc")
    return out


def p_limit(gen, q):
    if q["setop"] is not None:
        return None
    out = copy.deepcopy(q)
    if q["limit"] is None:
        out["limit"] = gen.rng.randint(2, 10)
    elif gen.rng.random() < 0.5:
        out["limit"] = None
    else:
        out["limit"] = q["limit"] + gen.rng.randint(1, 5)
    return out


def p_setop_kind(gen, q):
    if q["setop"] is None:
        return None
    kind, right = q["setop"]
    out = copy.deepcopy(q)
    out["setop"] = (gen.rng.choice([k for k in SET_OPS if k != kind]), copy.deepcopy(right))
    return out


def _subquery_paths(expr, path=()):
    if expr is None:
        return []
    if expr[0] in ("and", "or"):
        return [p for i, c in enumerate(expr[1]) for p in _subquery_paths(c, path + (1, i))]
    if expr[0] == "mixed":
        return [p for part in (1, 2) for i, c in enumerate(expr[part])
                for p in _subquery_paths(c, path + (part, i))]
    return [path] if expr[2][0] == "sub" else []


def p_subquery(gen, q):
    """Edit inside the first WHERE subquery: its select or its literal."""
    paths = _subquery_paths(q["where"])
    if not paths:
        return None
    path = paths[0]
    cond = _get(q["where"], path)
    sub = cond[2][1]
    if sub["where"] is not None and gen.rng.random() < 0.4:
        new_sub = p_where_literal(gen, sub)
    else:
        new_sub = p_select_agg(gen, sub) if sub["select"][0][1] else p_select_col(gen, sub)
    if new_sub is None:
        return None
    out = copy.deepcopy(q)
    out["where"] = _set(q["where"], path, cond[:2] + (("sub", new_sub),) + cond[3:])
    return out


PERTURBATIONS = (p_select_col, p_select_agg, p_distinct, p_where_literal, p_add_where,
                 p_drop_where, p_group, p_order, p_limit, p_setop_kind,
                 p_subquery, p_subquery)


def perturb(gen: QueryGen, gold: dict, max_edits: int = 3):
    wanted = gen.rng.randint(1, max_edits)
    wrong, applied = gold, 0
    for _ in range(40):
        if applied >= wanted:
            break
        changed = gen.rng.choice(PERTURBATIONS)(gen, wrong)
        if changed is not None and canonical(changed) != canonical(wrong):
            wrong, applied = changed, applied + 1
    # Two edits can cancel out (distinct toggled twice, say).
    return wrong if applied and canonical(wrong) != canonical(gold) else None


# ---------------------------------------------------------------------------
# Clause maps of the model, for the invertibility rule of simulate pairs.
#
# A map is a list of (key, entry); entry = ("text", s) | ("comp", clause,
# [maps]) | ("map", map). It mirrors the README clause-dictionary form.


def clause_map(q: dict) -> list:
    r = Renderer()
    r.enter(q)
    m = [("select", ("text", detok(_select_tokens(r, q))))]
    m.append(("from", ("text", detok(_from_tokens(r, q)))))
    if q["where"] is not None:
        m.append(("where", _composite(["where"], q["where"])))
    if q["group"]:
        m.append(("groupBy", ("text", detok(["group", "by"] + _join_commas(
            [[r.col(c)] for c in q["group"]])))))
    if q["having"] is not None:
        m.append(("having", _composite(["having"], q["having"], cond=True)))
    if q["order"]:
        m.append(("orderBy", ("text", detok(["order", "by"] + _join_commas(
            [r.unit(a, False, c) + r.direction(d) for a, c, d in q["order"]])))))
    if q["limit"] is not None:
        m.append(("limit", ("text", f"limit {q['limit']}")))
    if q["setop"] is not None:
        m.append((q["setop"][0], ("map", clause_map(q["setop"][1]))))
    return m


def _join_commas(parts):
    out = []
    for i, p in enumerate(parts):
        if i:
            out.append(",")
        out += p
    return out


def _select_tokens(r, q):
    out = ["select"] + (["distinct"] if q["distinct"] else [])
    return out + _join_commas([r.item(it) for it in q["select"]])


def _from_tokens(r, q):
    out = ["from", q["tables"][0]]
    for i, (a, b) in enumerate(q["joins"], start=1):
        out += ["join", q["tables"][i], "on", r.col(a), "=", r.col(b)]
    return out


class _PlaceholderRenderer(Renderer):
    def __init__(self):
        self.subs = []

    def operand(self, operand):
        if operand[0] == "sub":
            self.subs.append(clause_map(operand[1]))
            return ["(", f"subquery{len(self.subs) - 1}", ")"]
        return super().operand(operand)


def _composite(lead, expr, cond=False):
    r = _PlaceholderRenderer()
    tokens = lead + (r.cond(expr) if cond else r.boolean(expr))
    if r.subs:
        return ("comp", detok(tokens), r.subs)
    return ("text", detok(tokens))


def diff_items(wrong: list, gold: list, path=()):
    """(kind, path, key, old entry) in canonical walk order, mirroring the
    README's clause-level diff: composites with equal clause text are
    walked into, set-operation maps too; anything else that differs is a
    replace."""
    order = ("select", "from", "where", "groupBy", "having", "orderBy", "limit",
             "intersect", "union", "except")
    w, g = dict(wrong), dict(gold)
    items = []
    for key in sorted(set(w) | set(g), key=order.index):
        a, b = w.get(key), g.get(key)
        if a is not None and b is not None:
            if a[0] == "map" and b[0] == "map":
                items += diff_items(a[1], b[1], path + (key,))
            elif a[0] == "comp" and b[0] == "comp" and a[1] == b[1]:
                for i, (sa, sb) in enumerate(zip(a[2], b[2])):
                    items += diff_items(sa, sb, path + (key, f"subquery{i}"))
            elif a != b:
                items.append(("replace", path, key, a))
        elif a is not None:
            items.append(("delete", path, key, a))
        else:
            items.append(("insert", path, key, None))
    return items


def _preorder(m: list, path=()):
    for key, entry in m:
        yield path, key, entry
        if entry[0] == "comp":
            for i, sub in enumerate(entry[2]):
                yield from _preorder(sub, path + (key, f"subquery{i}"))
        elif entry[0] == "map":
            yield from _preorder(entry[1], path + (key,))


def clause_invertible(wrong: dict, gold: dict) -> bool:
    """True when the clause-level script of the pair has one placement:
    every replaced or deleted entry is the first entry in walk order with
    its key and content, and no insert follows an edit inside a subquery
    (an insert lands in the map of the latest anchored action)."""
    wm = clause_map(wrong)
    items = diff_items(wm, clause_map(gold))
    if not items:
        return False
    walk = list(_preorder(wm))
    nested = False
    for kind, path, key, old in items:
        if kind == "insert":
            if nested or path:
                return False
            continue
        first = next(p for p, k, e in walk if k == key and e == old)
        if first != path:
            return False
        nested = nested or bool(path)
    return True


# ---------------------------------------------------------------------------
# Workload inputs

# Share of questions whose gold is a long nested or set-operation query:
# the extra-hard share of the Spider dev split, 166 of 1,034 questions
# (Yu et al., EMNLP 2018).
LONG_SHARE = 166 / 1034
# Wrong entries per beam, and the chance that a beam holds each optional
# entry kind. With the gold and the ungrammatical entry, beams are 3 to 8
# wide and about 5 on average, the width of the repository's mock beams.
WRONG_PER_BEAM = (1, 3)
OPTIONAL_SHARE = 0.5


def _gold(gen: QueryGen, i: int) -> dict:
    # Long queries sit at fixed positions, so every seed has the same share.
    long = int((i + 1) * LONG_SHARE) != int(i * LONG_SHARE)
    return gen.query(long=long)


def _db_cycle(n: int) -> list[str]:
    dbs = list(SCHEMAS)
    return [dbs[i % len(dbs)] for i in range(n)]


def same_rows(gen: QueryGen, gold: dict):
    """The gold with an always-true conjunct (a key column above 0; keys
    count from 1): the same rows, but not an exact set match. None when the
    top-level WHERE is a disjunction or already holds that condition."""
    where = gold["where"]
    if where is not None and where[0] in ("or", "mixed"):
        return None
    t = gold["tables"][0]
    extra = ((None, (t, gen.tables[t][0][0])), ">", ("num", "0"))
    conds = [] if where is None else list(where[1]) if where[0] == "and" else [where]
    if extra in conds:
        return None
    out = copy.deepcopy(gold)
    out["where"] = extra if not conds else ("and", conds + [extra])
    return out


def beams(seed: int, n: int) -> list[dict]:
    """Parser beam outputs with annotated entries.

    Per question the beam holds the gold query, one to three distinct
    wrong queries and exactly one ungrammatical entry. Each beam may also
    hold a surface variant of the gold, the gold with an always-true
    conjunct (same rows, no exact set match) and a surface variant of an
    earlier wrong entry (which synth must deduplicate). Half the entries
    are in Spider surface form, and so is every ``gold_sql``, as Spider's
    annotations are.
    Each returned item is ``{"line": beam JSON, "gold": canonical text,
    "ordered": whether EX compares sequences, "entries": [(kind,
    canonical text, or None when ungrammatical)]}``.
    """
    rng = random.Random(f"beams:{seed}")
    out = []
    for i, db_id in enumerate(_db_cycle(n)):
        gen = QueryGen(db_id, rng)
        gold = _gold(gen, i)
        gold_c = canonical(gold)
        entries = [("gold", gold), ("ungrammatical", gold)]
        seen = {gold_c}
        if rng.random() < OPTIONAL_SHARE:
            entries.append(("gold_variant", gold))
        same = same_rows(gen, gold) if rng.random() < OPTIONAL_SHARE else None
        if same is not None:
            entries.append(("same_rows", same))
            seen.add(canonical(same))
        dup = rng.random() < OPTIONAL_SHARE
        wanted, wrongs = rng.randint(*WRONG_PER_BEAM), []
        for _ in range(40):
            if len(wrongs) >= wanted:
                break
            w = perturb(gen, gold)
            if w is not None and canonical(w) not in seen:
                seen.add(canonical(w))
                wrongs.append(w)
        dup = dup and bool(wrongs)
        entries += [("wrong", w) for w in wrongs]
        rng.shuffle(entries)
        if dup:
            j = next(k for k, (kind, _) in enumerate(entries) if kind == "wrong")
            entries.insert(rng.randint(j + 1, len(entries)), ("wrong_variant", entries[j][1]))
        scores = sorted((round(rng.uniform(0.01, 0.99), 4) for _ in entries), reverse=True)
        beam, annotated = [], []
        for (kind, model), score in zip(entries, scores):
            if kind == "ungrammatical":
                text, canon = ungrammatical(model, rng), None
            elif kind in ("gold_variant", "wrong_variant") or rng.random() < 0.5:
                text, canon = surface(model, rng), canonical(model)
            else:
                text = canon = canonical(model)
            beam.append({"sql": text, "score": score})
            annotated.append((kind, canon))
        line = json.dumps({"db_id": db_id, "question": f"q{seed}-{i} about {db_id}",
                           "gold_sql": surface(gold, rng), "beam": beam})
        out.append({"line": line, "db_id": db_id, "gold": gold_c,
                    "ordered": bool(gold["order"]), "entries": annotated})
    return out


def eval_pairs(seed: int, n: int) -> list[dict]:
    """One prediction per gold: a surface rewrite of the gold (an exact set
    match) or a perturbed query (not one), in surface or canonical form.
    Golds are in Spider surface form. Every prediction parses; see
    NOTES.md for why."""
    rng = random.Random(f"pairs:{seed}")
    out = []
    for i, db_id in enumerate(_db_cycle(n)):
        gen = QueryGen(db_id, rng)
        gold = _gold(gen, i)
        pred = None
        if rng.random() >= 0.4:
            pred = perturb(gen, gold)
        em = pred is None
        model = gold if em else pred
        pred_text = surface(model, rng) if em or rng.random() < 0.5 else canonical(model)
        out.append({"line": json.dumps({"db_id": db_id, "pred": pred_text,
                                        "gold": surface(gold, rng)}),
                    "db_id": db_id, "em": em, "pred": canonical(model),
                    "gold": canonical(gold),
                    # set operations never carry ORDER BY here, so any
                    # ORDER BY is top-level: EX then compares sequences
                    "ordered": bool(gold["order"])})
    return out


def sim_pairs(seed: int, n: int) -> list[dict]:
    """Clause-invertible (wrong, gold) pairs, an equal share in each of the
    four representation combinations."""
    combos = (("sql", "token"), ("sql", "clause"), ("pydict", "clause"),
              ("pydict", "program"))
    rng = random.Random(f"sim:{seed}")
    out = []
    for i, db_id in enumerate(_db_cycle(n)):
        gen = QueryGen(db_id, rng)
        while True:
            gold = _gold(gen, i)
            wrong = perturb(gen, gold)
            if wrong is not None and clause_invertible(wrong, gold):
                break
        query_rep, edit_rep = combos[i % len(combos)]
        out.append({"db_id": db_id, "question": f"q{seed}-{i} about {db_id}",
                    "wrong": canonical(wrong), "gold": canonical(gold),
                    "query_rep": query_rep, "edit_rep": edit_rep})
    return out


def digest(items) -> str:
    """Stable digest of generated inputs (anything JSON-serializable)."""
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode("utf-8")).hexdigest()[:16]
