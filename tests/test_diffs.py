import random

from paperdata import CASES
from queryfuzz import QueryFuzzer

from sqlpatch.clausemap import decompose
from sqlpatch.diffs import (
    _lcs_ops, clause_diff_items, diff_clauses_pydict, diff_clauses_sql, diff_program,
    diff_tokens,
)
from sqlpatch.editscript import render_edits
from sqlpatch.parse import parse_sql
from sqlpatch.program import Assign, Pop, render_program
from sqlpatch.render import render_tokens


def asts(case, schemas):
    schema = schemas[case.db_id]
    return parse_sql(case.wrong, schema), parse_sql(case.gold, schema)


def test_token_scripts_match_fixtures(schemas):
    for case in CASES:
        wrong, gold = asts(case, schemas)
        assert render_edits(diff_tokens(wrong, gold)) == case.token


def test_clause_sql_scripts_match_fixtures(schemas):
    for case in CASES:
        wrong, gold = asts(case, schemas)
        assert render_edits(diff_clauses_sql(wrong, gold)) == case.clause_sql


def test_clause_pydict_scripts_match_fixtures(schemas):
    for case in CASES:
        wrong, gold = asts(case, schemas)
        script = diff_clauses_pydict(decompose(wrong), decompose(gold))
        assert render_edits(script) == case.clause_pydict


def test_programs_match_fixtures(schemas):
    for case in CASES:
        wrong, gold = asts(case, schemas)
        program = diff_program(decompose(wrong), decompose(gold))
        assert render_program(program) == case.program


def test_empty_diff_everywhere(schemas):
    for case in CASES:
        gold = parse_sql(case.gold, schemas[case.db_id])
        gm = decompose(gold)
        assert diff_tokens(gold, gold).actions == ()
        assert diff_clauses_sql(gold, gold).actions == ()
        assert diff_clauses_pydict(gm, gm).actions == ()
        assert diff_program(gm, gm).stmts == ()


def test_delete_then_insert_becomes_replace(schemas):
    wrong = parse_sql("select tweets.text from tweets", schemas["social"])
    gold = parse_sql("select tweets.uid from tweets", schemas["social"])
    script = diff_tokens(wrong, gold)
    assert [a.kind for a in script.actions] == ["replace"]


def test_pure_insert_and_delete_runs(schemas):
    wrong = parse_sql("select tweets.text from tweets", schemas["social"])
    gold = parse_sql("select tweets.text from tweets limit 3", schemas["social"])
    script = diff_tokens(wrong, gold)
    assert [a.kind for a in script.actions] == ["insert"]
    assert script.actions[0].new == "limit 3"
    back = diff_tokens(gold, wrong)
    assert [a.kind for a in back.actions] == ["delete"]


def test_granularity_agreement_on_leaf_paths(schemas):
    """Dictionary-form clause edits and programs touch the same leaves."""
    for case in CASES:
        wrong, gold = asts(case, schemas)
        items = clause_diff_items(decompose(wrong), decompose(gold))
        item_paths = set()
        for item in items:
            for key, _ in item.pairs:
                item_paths.add(item.path + (key,))
            for key, _ in item.old:
                item_paths.add(item.path + (key,))
        program = diff_program(decompose(wrong), decompose(gold))
        program_paths = set()
        for stmt in program.stmts:
            if isinstance(stmt, Assign):
                program_paths.add(stmt.path)
            else:
                program_paths.add(stmt.path + (stmt.key,))
        assert item_paths == program_paths


def test_whole_entry_replace_on_structure_change(schemas):
    schema = schemas["cars"]
    wrong = parse_sql("select count(*) from cars_data where cars_data.accelerate > 20",
                      schema)
    gold = parse_sql("select count(*) from cars_data where cars_data.accelerate > "
                     "(select avg(cars_data.accelerate) from cars_data)", schema)
    script = diff_clauses_sql(wrong, gold)
    assert len(script.actions) == 1
    action = script.actions[0]
    assert action.kind == "replace"
    assert action.old == "where cars_data.accelerate > 20"
    assert action.new == ("where cars_data.accelerate > (select "
                          "avg(cars_data.accelerate) from cars_data)")
    program = diff_program(decompose(wrong), decompose(gold))
    assert len(program.stmts) == 1
    assert program.stmts[0].path == ("where",)


def test_set_op_diffs(schemas):
    schema = schemas["hr"]
    base = "select employee.name from employee"
    wrong = parse_sql(base, schema)
    gold = parse_sql(base + " union select employee.name from employee "
                            "where employee.age > 40", schema)
    script = diff_clauses_sql(wrong, gold)
    assert [a.kind for a in script.actions] == ["insert"]
    assert script.actions[0].new.startswith("union select employee.name")
    program = diff_program(decompose(wrong), decompose(gold))
    assert program.stmts[0] == Assign(
        ("union",), "select employee.name from employee where employee.age > 40")
    back = diff_program(decompose(gold), decompose(wrong))
    assert back.stmts == (Pop((), "union"),)


def test_set_op_inner_recursion(schemas):
    schema = schemas["hr"]
    wrong = parse_sql("select employee.name from employee union "
                      "select employee.name from employee where employee.age > 40",
                      schema)
    gold = parse_sql("select employee.name from employee union "
                     "select employee.name from employee where employee.age > 50",
                     schema)
    program = diff_program(decompose(wrong), decompose(gold))
    assert program.stmts == (Assign(("union", "where"), "where employee.age > 50"),)
    script = diff_clauses_sql(wrong, gold)
    assert script.actions[0].old == "where employee.age > 40"


def _lcs_ops_table(a, b):
    """The O(n*m) LCS table walk that _lcs_ops reads bit-parallel rows for."""
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, nxt = table[i], table[i + 1]
        for j in range(m - 1, -1, -1):
            if a[i] == b[j]:
                row[j] = nxt[j + 1] + 1
            else:
                row[j] = nxt[j] if nxt[j] >= row[j + 1] else row[j + 1]
    ops = []
    i = j = 0
    while i < n and j < m:
        if a[i] == b[j]:
            ops.append(("keep", a[i]))
            i += 1
            j += 1
        elif table[i + 1][j] >= table[i][j + 1]:
            ops.append(("del", a[i]))
            i += 1
        else:
            ops.append(("ins", b[j]))
            j += 1
    ops.extend(("del", tok) for tok in a[i:])
    ops.extend(("ins", tok) for tok in b[j:])
    return ops


def test_lcs_ops_matches_the_table_on_random_sequences():
    # A 3-symbol alphabet makes many ties. One side in ten is up to 130
    # long, so masks span several 30-bit int digits; about one in thirty
    # is empty.
    rng = random.Random(8)

    def length():
        return rng.randrange(131) if rng.random() < 0.1 else rng.randrange(31)

    for _ in range(20_000):
        a = rng.choices("xyz", k=length())
        b = rng.choices("xyz", k=length())
        assert _lcs_ops(a, b) == _lcs_ops_table(a, b), (a, b)


def test_lcs_ops_matches_the_table_on_fuzzed_query_pairs(schemas):
    fuzzer = QueryFuzzer(schemas, seed=8)
    for _ in range(1_000):
        _, wrong, gold = fuzzer.pair()
        a, b = render_tokens(wrong), render_tokens(gold)
        assert _lcs_ops(a, b) == _lcs_ops_table(a, b), (a, b)
