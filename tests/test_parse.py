import random
import re
from collections import Counter

import pytest
from queryfuzz import QueryFuzzer

from sqlpatch.errors import NormalizeError, ParseError
from sqlpatch.nodes import BoolOp, Condition, Query
from sqlpatch.parse import parse, parse_sql
from sqlpatch.render import render
from sqlpatch.tokens import detokenize, tokenize


def test_simple_order_by(schemas):
    q = parse(tokenize("select tweets.text from tweets order by tweets.text"),
              schemas["social"])
    assert [i.val.left.col.text() for i in q.select.items] == ["tweets.text"]
    assert q.from_clause.tables[0].table == "tweets"
    assert q.order_by[0].val.left.col.text() == "tweets.text"
    assert q.order_by[0].direction == "asc"


def test_where_subquery(schemas):
    q = parse(tokenize(
        "select count(*) from cars_data where cars_data.accelerate > "
        "(select max(cars_data.horsepower) from cars_data)"), schemas["cars"])
    assert isinstance(q.where, Condition)
    assert isinstance(q.where.right, Query)


def test_syntax_error_position(schemas):
    with pytest.raises(ParseError) as err:
        parse(tokenize("select from"), schemas["social"])
    assert err.value.position == 2


def test_unknown_table(schemas):
    with pytest.raises(ParseError, match="unknown table"):
        parse(tokenize("select x from nope"), schemas["social"])


def test_unknown_column(schemas):
    with pytest.raises(ParseError, match="unknown column"):
        parse(tokenize("select tweets.nope from tweets"), schemas["social"])
    with pytest.raises(ParseError, match="unknown column"):
        parse(tokenize("select nope from tweets"), schemas["social"])


@pytest.mark.parametrize("db,sql,message", [
    ("social", "select x.id from tweets", "unknown table 'x' for column 'id'"),
    ("social", "select x.* from tweets", "unknown table 'x' qualifying '*'"),
    ("hr", "select employee.name from (select evaluation.bonus from evaluation) as t",
     "unknown table 'employee' for column 'name'"),
    ("hr", "select employee.name from employee join evaluation on "
     "employee.employee_id = x.employee_id", "unknown table 'x' for column 'employee_id'"),
    ("hr", "select employee.name from employee join evaluation on "
     "employee.employee_id in (select nope.id from nope)", "unknown table 'nope' in schema"),
    ("social", "select tweets.id from tweets where tweets.uid in "
     "(select x.uid from tweets)", "unknown table 'x' for column 'uid'"),
    ("social", "select tweets.id from tweets union select x.id from tweets",
     "unknown table 'x' for column 'id'"),
])
def test_unknown_table_in_every_scope(schemas, db, sql, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        parse(tokenize(sql), schemas[db])


@pytest.mark.parametrize("db,sql,message", [
    ("social", "select t.nope from tweets as t", "unknown column 'nope' in ['tweets']"),
    ("cars", "select t.nope from (select cars_data.mpg from cars_data) as t",
     "unknown column 'nope' in ['cars_data']"),
    ("cars", "select nope from (select cars_data.mpg from cars_data) as t",
     "unknown column 'nope'"),
    ("hr", "select employee.name from employee join evaluation on "
     "employee.employee_id = evaluation.nope", "unknown column 'nope' in ['evaluation']"),
    ("hr", "select employee.name from employee join evaluation on "
     "employee.employee_id in (select evaluation.nope from evaluation)",
     "unknown column 'nope' in ['evaluation']"),
    ("social", "select tweets.id from tweets where tweets.uid in "
     "(select tweets.nope from tweets)", "unknown column 'nope' in ['tweets']"),
    ("social", "select tweets.id from tweets except select nope from tweets",
     "unknown column 'nope'"),
])
def test_unknown_column_in_every_scope(schemas, db, sql, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(tokenize(sql), schemas[db])


def test_parse_returns_the_normalized_query(schemas):
    q = parse(tokenize("SELECT T1.text FROM tweets AS T1"), schemas["social"])
    assert render(q) == "select tweets.text from tweets"


def test_join_with_on(schemas):
    q = parse_sql("select employee.name from employee join evaluation on "
                  "employee.employee_id = evaluation.employee_id", schemas["hr"])
    assert len(q.from_clause.tables) == 2
    assert len(q.from_clause.tables[1].conds) == 1


def test_set_operation(schemas):
    q = parse_sql("select employee.name from employee union "
                  "select employee.name from employee where employee.age > 40",
                  schemas["hr"])
    assert q.set_op is not None and q.set_op.kind == "union"
    assert q.set_op.right.where is not None


def test_boolean_precedence(schemas):
    q = parse_sql("select tweets.id from tweets where tweets.uid = 1 and "
                  "tweets.uid = 2 or tweets.id = 3", schemas["social"])
    assert isinstance(q.where, BoolOp) and q.where.op == "or"
    assert isinstance(q.where.args[0], BoolOp) and q.where.args[0].op == "and"


def test_between_and_not_in(schemas):
    q = parse_sql("select cars_data.id from cars_data where cars_data.year "
                  "between 1970 and 1980 and cars_data.id not in "
                  "(select cars_data.id from cars_data where cars_data.mpg > 30)",
                  schemas["cars"])
    first, second = q.where.args
    assert first.op == "between" and first.right2 is not None
    assert second.op == "not in" and isinstance(second.right, Query)


def test_in_value_list(schemas):
    q = parse_sql("select cars_data.id from cars_data where cars_data.year in "
                  "(1970, 1980)", schemas["cars"])
    assert render(q) == ("select cars_data.id from cars_data "
                         "where cars_data.year in (1970, 1980)")


def test_aggregate_nesting_rejected(schemas):
    with pytest.raises(ParseError, match="nest"):
        parse(tokenize("select max(min(cars_data.mpg)) from cars_data"),
              schemas["cars"])


def test_limit_must_be_integer(schemas):
    with pytest.raises(ParseError):
        parse(tokenize("select tweets.id from tweets limit x"), schemas["social"])


def test_from_subquery(schemas):
    q = parse_sql("select count(*) from (select cars_data.id from cars_data "
                  "where cars_data.mpg > 20)", schemas["cars"])
    assert q.from_clause.subquery is not None


def test_trailing_semicolon_ok(schemas):
    q = parse_sql("select tweets.id from tweets;", schemas["social"])
    assert render(q) == "select tweets.id from tweets"


def test_trailing_junk_rejected(schemas):
    with pytest.raises(ParseError):
        parse(tokenize("select tweets.id from tweets tweets"), schemas["social"])


_T = "select tweets.id from tweets"


@pytest.mark.parametrize("sql,message,position", [
    ("select", "expected column reference, got 'end of input' at token 2", 2),
    ("select tweets.id from", "expected table name, got 'end of input' at token 4", 4),
    (f"{_T} where", "expected column reference, got 'end of input' at token 6", 6),
    (f"{_T} limit", "expected integer after limit at token 6", 6),
    ("select count(", "expected column reference, got 'end of input' at token 4", 4),
    ("select count(*", "expected ')', got 'end of input' at token 5", 5),
    (f"{_T} where tweets.id in", "expected '(', got 'end of input' at token 8", 8),
    (f"{_T} where tweets.id in (", "expected literal value, got 'end of input' at token 9", 9),
    (f"{_T} where tweets.id in (1,", "expected literal value, got 'end of input' at token 11",
     11),
    (f"{_T} where tweets.id in (select",
     "expected column reference, got 'end of input' at token 10", 10),
    (f"{_T} where tweets.id not = 1",
     "'not' must be followed by 'in' or 'like', got '=' at token 8", 8),
    (f"{_T} where tweets.id not between 1 and 2",
     "'not' must be followed by 'in' or 'like', got 'between' at token 8", 8),
    (f"{_T} where tweets.id not", "expected comparison operator at token 8", 8),
    (f"{_T} where tweets.id", "expected comparison operator at token 7", 7),
    (f"{_T} where tweets.id select", "expected comparison operator, got 'select' at token 7", 7),
    (f"{_T} where tweets.id >", "expected operand at token 8", 8),
    (f"{_T} where tweets.id = select", "expected operand, got 'select' at token 8", 8),
    (f"{_T} where tweets.id between 1", "expected 'and', got 'end of input' at token 9", 9),
    (f"{_T} group", "expected 'by', got 'end of input' at token 6", 6),
    (f"{_T} order by", "expected column reference, got 'end of input' at token 7", 7),
    (f"{_T} limit 1.5", "limit must be a non-negative integer, got '1.5' at token 6", 6),
    (f"{_T} limit 'a'", "expected integer after limit at token 6", 6),
    (f"{_T} as", "expected alias, got 'end of input' at token 6", 6),
    (f"{_T} join", "expected table name, got 'end of input' at token 6", 6),
    ("select tweets.id from (select tweets.id from tweets) as",
     "expected subquery alias, got 'end of input' at token 11", 11),
    ("select a.b.c from tweets", "malformed column reference 'a.b.c' at token 3", 3),
    ("select max(min(tweets.id)) from tweets", "aggregates cannot be nested at token 9", 9),
    (f"{_T}; tweets", "unexpected token 'tweets' at token 6", 6),
    (f"{_T} ; ; select", "unexpected token 'select' at token 7", 7),
    ("from tweets", "expected 'select', got 'from' at token 1", 1),
])
def test_syntax_error_texts_and_positions(schemas, sql, message, position):
    with pytest.raises(ParseError) as err:
        parse(tokenize(sql), schemas["social"])
    assert (str(err.value), err.value.position) == (message, position)


def test_empty_token_list_error(schemas):
    with pytest.raises(ParseError) as err:
        parse([], schemas["social"])
    assert (str(err.value), err.value.position) == (
        "expected 'select', got 'end of input' at token 1", 1)


_SUB = "from (select cars_data.mpg from cars_data) as t"


@pytest.mark.parametrize("sql,canonical", [
    (f"select t.* {_SUB}", "select * from (select cars_data.mpg from cars_data)"),
    (f"select count(t.*) {_SUB}", "select count(*) from (select cars_data.mpg from cars_data)"),
])
def test_star_qualified_by_subquery_alias(schemas, sql, canonical):
    q = parse_sql(sql, schemas["cars"])
    assert render(q) == canonical
    assert parse_sql(render(q), schemas["cars"]) == q
    assert q == parse_sql(sql.replace("t.*", "*"), schemas["cars"])


def _mutant(rng, schema, word):
    """A reference that may not resolve, in place of the identifier ``word``."""
    qual, dot, column = word.rpartition(".")
    kind = rng.randrange(4)
    if kind == 0:
        return f"{qual}.nope" if dot else "nope"
    if kind == 1:
        table = rng.choice(schema.tables)
        other = rng.choice(schema.columns[table])
        return f"{table}.{other}" if rng.random() < 0.5 else other
    if kind == 2:
        return f"t3.{column}"
    return "x.*"


def test_reference_mutations_round_trip_or_raise_domain_errors(schemas):
    """A fuzzed query with one identifier replaced by a bogus column, another
    table's column, an undeclared qualifier or ``x.*`` either parses to a
    query whose canonical text parses back to it, or raises ParseError or
    NormalizeError; no other exception escapes."""
    fuzzer, rng = QueryFuzzer(schemas, seed=1212), random.Random(1212)
    outcomes = Counter()
    for _ in range(1_500):
        db_id, query = fuzzer.query()
        schema = schemas[db_id]
        tokens = tokenize(render(query))
        words = [t.text for t in tokens]
        i = rng.choice([i for i, t in enumerate(tokens) if t.kind == "identifier"])
        words[i] = _mutant(rng, schema, words[i])
        text = detokenize(words)
        try:
            mutated = parse_sql(text, schema)
        except (ParseError, NormalizeError) as exc:
            outcomes[type(exc).__name__] += 1
            continue
        assert parse_sql(render(mutated), schema) == mutated, text
        outcomes["parsed"] += 1
    assert set(outcomes) == {"parsed", "ParseError", "NormalizeError"}, outcomes
