import copy

import pytest

from sqlpatch.errors import NormalizeError
from sqlpatch.normalize import normalize
from sqlpatch.parse import parse
from sqlpatch.render import render
from sqlpatch.tokens import tokenize


def norm(sql, schema):
    return normalize(parse(tokenize(sql), schema), schema)


def test_alias_dropped_for_unique_table(schemas):
    q = norm("SELECT T1.text FROM tweets AS T1", schemas["social"])
    assert render(q) == "select tweets.text from tweets"


def test_alias_kept_for_self_join(schemas):
    sql = ("select e1.name from employee as e1 join employee as e2 "
           "on e1.employee_id = e2.employee_id")
    q = norm(sql, schemas["hr"])
    assert render(q) == sql


def test_unqualified_column_resolved(schemas):
    q = norm("select text from tweets where uid = 3", schemas["social"])
    assert render(q) == "select tweets.text from tweets where tweets.uid = 3"


def test_ambiguous_unqualified_column(schemas):
    with pytest.raises(NormalizeError, match="ambiguous"):
        norm("select employee_id from employee join evaluation on "
             "employee.employee_id = evaluation.employee_id", schemas["hr"])


def test_alias_collision(schemas):
    with pytest.raises(NormalizeError, match="alias"):
        norm("select t.name from employee as t join evaluation as t on "
             "t.employee_id = t.employee_id", schemas["hr"])


def test_idempotence(schemas):
    cases = [
        ("SELECT T1.text FROM tweets AS T1 ORDER BY T1.createdate", "social"),
        ("select e1.name from employee as e1 join employee as e2 "
         "on e1.employee_id = e2.employee_id", "hr"),
        ("select count(*) from cars_data where cars_data.accelerate > "
         "(select max(horsepower) from cars_data)", "cars"),
    ]
    for sql, db in cases:
        schema = schemas[db]
        once = norm(sql, schema)
        before = copy.deepcopy(once)  # normalize returns its argument, resolved in place
        assert normalize(once, schema) == before


def test_values_preserved(schemas):
    q = norm("SELECT Text FROM Tweets WHERE Text = 'MiXeD Case' AND uid = 7",
             schemas["social"])
    rendered = render(q)
    assert "'MiXeD Case'" in rendered
    assert "7" in rendered


def test_subquery_scope_resolution(schemas):
    q = norm("select count(*) from cars_data where cars_data.accelerate > "
             "(select max(horsepower) from cars_data)", schemas["cars"])
    assert "max(cars_data.horsepower)" in render(q)


def test_from_subquery_alias_dropped(schemas):
    q = norm("select t.mpg from (select cars_data.mpg from cars_data) as t",
             schemas["cars"])
    assert render(q) == "select cars_data.mpg from (select cars_data.mpg from cars_data)"


def test_repeated_table_unqualified_rejected(schemas):
    with pytest.raises(NormalizeError):
        norm("select name from employee as e1 join employee as e2 on "
             "e1.employee_id = e2.employee_id", schemas["hr"])
