"""No code mutates an AST node after parse returns it, and no code mutates
a token.

Nodes are slotted classes, so nothing stops an assignment at run time;
this suite stands in for a runtime freeze. normalize resolves the parser's
fresh tree in place, before parse returns it, so that tree must share no
node object. Every consumer of parsed ASTs runs over the seeded query
corpus, and each AST must still equal the deep copy taken before. Tokens
are named tuples, and the shared ones refuse assignment.
"""

import copy

import pytest
from queryfuzz import QueryFuzzer

from sqlpatch.clausemap import decompose
from sqlpatch.diffs import diff_program, diff_tokens
from sqlpatch.metrics import exact_set_match
from sqlpatch.nodes import Record
from sqlpatch.parse import parse_sql
from sqlpatch.render import render
from sqlpatch.tokens import _SHARED


def test_consumers_leave_parsed_asts_unchanged(schemas):
    fuzzer = QueryFuzzer(schemas, seed=1313)
    for _ in range(300):
        db_id, wrong, gold = fuzzer.pair()
        schema = schemas[db_id]
        a, b = parse_sql(render(wrong), schema), parse_sql(render(gold), schema)
        a_copy, b_copy = copy.deepcopy(a), copy.deepcopy(b)
        for x, y in ((a, b), (b, a)):
            render(x)
            decompose(x)
            diff_tokens(x, y)
            diff_program(x, y)
            exact_set_match(x, y)
        assert a == a_copy and b == b_copy, render(gold)


def _nodes(node):
    yield node
    for name in node.__slots__:
        value = getattr(node, name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Record):
                yield from _nodes(child)


def test_parsed_trees_share_no_node(schemas):
    # In-place resolution would rewrite a shared ColumnRef once per place
    # it occurs, each time against that place's scope.
    fuzzer = QueryFuzzer(schemas, seed=1414)
    trees = []
    for _ in range(300):
        db_id, query = fuzzer.query()
        trees.append(parse_sql(render(query), schemas[db_id]))
    ids = [id(node) for tree in trees for node in _nodes(tree)]
    assert len(ids) > 10_000
    assert len(set(ids)) == len(ids)


def test_nodes_are_unhashable(schemas):
    q = parse_sql("select count(*) from cars_data where cars_data.mpg > 20", schemas["cars"])
    for node in (q, q.select.items[0], q.where, q.where.right, q.from_clause.tables[0]):
        with pytest.raises(TypeError, match="unhashable"):
            hash(node)


@pytest.mark.parametrize("text", sorted(_SHARED))
def test_shared_tokens_refuse_assignment(text):
    token = _SHARED[text]
    for field in ("text", "kind"):
        with pytest.raises(AttributeError):
            setattr(token, field, "x")
    assert _SHARED[text] == token
