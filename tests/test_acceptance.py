"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a failed criterion shows up as a failed test.
"""

import math
import time

from mockbeams import QUESTIONS_PER_DB, build_mock_beams
from paperdata import CASE_TWEETS, CASES
from queryfuzz import QueryFuzzer
from test_metrics import EM_SUITE

from sqlpatch.clausemap import decompose, sql_to_clause_map, to_sql
from sqlpatch.dataset import (
    ExampleRecord, ParserOutput, Y_SEPARATOR, build_dev_set, split_folds,
    synthesize_train,
)
from sqlpatch.diffs import (
    diff_clauses_pydict, diff_clauses_sql, diff_program, diff_tokens,
)
from sqlpatch.editscript import parse_edits, render_edits
from sqlpatch.interact import OracleGenerator, simulate
from sqlpatch.metrics import SqliteBackend, exact_set_match, mcnemar_counts
from sqlpatch.nodes import Condition, Query
from sqlpatch.parse import parse_sql
from sqlpatch.program import parse_program, render_program
from sqlpatch.pydict import parse_pydict, render_pydict
from sqlpatch.render import render
from sqlpatch.vm import apply_clause_edits, apply_token_edits, exec_program

_SUITE_START = time.monotonic()


def _ok(number, message):
    print(f"\n[acceptance] criterion {number}: PASS - {message}")


def test_criterion_1_fixture_byte_exactness(schemas):
    start = time.monotonic()
    for case in CASES:
        schema = schemas[case.db_id]
        wrong = parse_sql(case.wrong, schema)
        gold = parse_sql(case.gold, schema)
        assert render(wrong) == case.wrong
        assert render(gold) == case.gold
        assert render_pydict(decompose(wrong)) == case.pydict_wrong
        assert render_pydict(decompose(gold)) == case.pydict_gold
        assert render_edits(diff_tokens(wrong, gold)) == case.token
        assert render_edits(diff_clauses_sql(wrong, gold)) == case.clause_sql
        assert render_edits(diff_clauses_pydict(
            decompose(wrong), decompose(gold))) == case.clause_pydict
        assert render_program(diff_program(
            decompose(wrong), decompose(gold))) == case.program
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(1, f"3 fixture pairs x 8 representation cells byte-exact in {elapsed:.3f}s")


def _iter_conditions(expr):
    if expr is None:
        return
    if isinstance(expr, Condition):
        yield expr
        return
    for arg in expr.args:
        yield from _iter_conditions(arg)


def _iter_child_queries(query: Query):
    """Directly nested queries: condition subqueries, FROM subquery, set-op right."""
    if query.from_clause.subquery is not None:
        yield query.from_clause.subquery
    for expr in (query.where, query.having):
        for cond in _iter_conditions(expr):
            for operand in (cond.right, cond.right2):
                if isinstance(operand, Query):
                    yield operand
    if query.set_op is not None:
        yield query.set_op.right


def _string_literals(query: Query) -> list[str]:
    from sqlpatch.nodes import Literal, ValueList

    out = []
    conds = list(_iter_conditions(query.where)) + list(_iter_conditions(query.having))
    for jt in query.from_clause.tables:
        conds.extend(jt.conds)
    for cond in conds:
        for operand in (cond.right, cond.right2):
            if isinstance(operand, Literal) and operand.kind == "string":
                out.append(operand.text)
            elif isinstance(operand, ValueList):
                out.extend(v.text for v in operand.items if v.kind == "string")
    for child in _iter_child_queries(query):
        out.extend(_string_literals(child))
    return sorted(out)


def test_criterion_2_round_trip_suite(schemas):
    from sqlpatch.tokens import tokenize

    start = time.monotonic()
    fuzzer = QueryFuzzer(schemas, seed=20260811)
    coverage = {"join": 0, "where_sub": 0, "from_sub": 0, "having": 0,
                "set_op": 0, "max": 0, "min": 0, "count": 0, "sum": 0, "avg": 0}
    for i in range(500):
        db_id, query = fuzzer.query()
        schema = schemas[db_id]
        sql = render(query)
        reparsed = parse_sql(sql, schema)
        assert reparsed == query, sql
        cm = decompose(query)
        assert to_sql(cm) == sql, sql
        assert sql_to_clause_map(sql) == cm, sql
        for pretty in (False, True):
            assert parse_pydict(render_pydict(cm, pretty=pretty)) == cm, sql
        rendered_literals = sorted(t.text for t in tokenize(sql)
                                   if t.kind == "string-literal")
        assert rendered_literals == _string_literals(query), sql
        if " join " in sql:
            coverage["join"] += 1
        if ("where" in cm or "having" in cm) and "(select" in sql:
            coverage["where_sub"] += 1
        if "from (select" in sql:
            coverage["from_sub"] += 1
        if " having " in sql:
            coverage["having"] += 1
        if any(f" {op} select " in sql for op in ("intersect", "union", "except")):
            coverage["set_op"] += 1
        for agg in ("max", "min", "count", "sum", "avg"):
            if f"{agg}(" in sql:
                coverage[agg] += 1
    assert all(count > 0 for count in coverage.values()), coverage
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _ok(2, f"500 fuzzed queries round-trip (coverage {coverage}) in {elapsed:.2f}s")


def test_criterion_3_diff_apply_inverse(schemas):
    start = time.monotonic()
    fuzzer = QueryFuzzer(schemas, seed=42)
    subquery_edit_pairs = 0
    kinds = {"replace": 0, "insert": 0, "delete": 0}
    for i in range(1000):
        db_id, wrong, gold = fuzzer.pair(max_edits=4)
        wrong_map, gold_map = decompose(wrong), decompose(gold)
        script_sql = diff_clauses_sql(wrong, gold)
        script_pd = diff_clauses_pydict(wrong_map, gold_map)
        program = diff_program(wrong_map, gold_map)
        for action in script_sql.actions:
            kinds[action.kind] += 1
        if any(len(stmt.path) > 1 for stmt in program.stmts):
            subquery_edit_pairs += 1
        assert apply_clause_edits(wrong_map, script_sql) == gold_map, render(wrong)
        assert apply_clause_edits(wrong_map, script_pd) == gold_map, render(wrong)
        result = exec_program(wrong_map, program)
        assert result == gold_map, render(wrong)
        assert to_sql(result) == render(gold)
    assert all(count > 0 for count in kinds.values())
    assert subquery_edit_pairs > 0
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _ok(3, f"1000 perturbed pairs reconstructed via clause scripts and programs "
           f"({kinds}, {subquery_edit_pairs} with subquery-internal edits) "
           f"in {elapsed:.2f}s")


REPEATED_SPAN_PAIRS = [
    ("social", CASE_TWEETS.wrong, CASE_TWEETS.gold),
    ("social", "select tweets.uid from tweets where tweets.uid = 1",
     "select tweets.id from tweets where tweets.uid = 1"),
    ("social", "select tweets.id from tweets where tweets.uid = 1 order by tweets.uid",
     "select tweets.id from tweets where tweets.uid = 1 order by tweets.id"),
    ("hr", "select employee.name from employee order by employee.name",
     "select employee.name from employee order by employee.age"),
    ("cars", "select cars_data.mpg from cars_data where cars_data.mpg > 10",
     "select cars_data.mpg from cars_data where cars_data.horsepower > 10"),
    ("school", "select students.gpa from students group by students.gpa",
     "select students.gpa from students group by students.student_id"),
]


def test_criterion_4_ambiguity_witness(schemas):
    for _ in range(2):  # deterministic: identical behavior across runs
        token_failures = 0
        witnessed_ambiguity = 0
        for db_id, wrong_sql, gold_sql in REPEATED_SPAN_PAIRS:
            schema = schemas[db_id]
            wrong = parse_sql(wrong_sql, schema)
            gold = parse_sql(gold_sql, schema)
            report = apply_token_edits(wrong_sql, diff_tokens(wrong, gold))
            if report.result != gold_sql:
                token_failures += 1
                assert report.ambiguous_spans >= 1
            if report.ambiguous_spans >= 1:
                witnessed_ambiguity += 1
            wrong_map, gold_map = decompose(wrong), decompose(gold)
            assert apply_clause_edits(
                wrong_map, diff_clauses_sql(wrong, gold)) == gold_map
            assert apply_clause_edits(
                wrong_map, diff_clauses_pydict(wrong_map, gold_map)) == gold_map
            assert exec_program(wrong_map,
                                diff_program(wrong_map, gold_map)) == gold_map
        assert token_failures >= 1
        assert witnessed_ambiguity >= 1
    _ok(4, f"token-level fails on {token_failures}/{len(REPEATED_SPAN_PAIRS)} "
           f"repeated-span pairs while clause and program paths fix all")


def test_criterion_5_em_oracle_suite(schemas):
    assert len(EM_SUITE) >= 20
    for db_id, left, right, expected in EM_SUITE:
        a = parse_sql(left, schemas[db_id])
        b = parse_sql(right, schemas[db_id])
        assert exact_set_match(a, b) is expected, (left, right)
        assert exact_set_match(b, a) is expected
    _ok(5, f"{len(EM_SUITE)} hand-labeled set-match pairs all agree")


def test_criterion_6_mcnemar():
    oracle = 2.0 * sum(math.comb(20, i) for i in range(6)) / 2 ** 20
    result = mcnemar_counts(5, 15)
    assert abs(result.p - oracle) < 1e-12
    assert abs(result.p - 0.04139) <= 1e-6
    for k in (1, 2, 5, 20):
        symmetric = mcnemar_counts(k, k)
        assert symmetric.p >= 0.5 and not symmetric.degenerate
    degenerate = mcnemar_counts(0, 0)
    assert degenerate.p == 1.0 and degenerate.degenerate
    _ok(6, f"b=5,c=15 gives p={result.p:.6f} (binomial oracle {oracle:.6f}); "
           f"symmetric and degenerate cases behave")


def test_criterion_7_synthesis_pipeline(schemas, db_dir):
    backend = SqliteBackend(db_dir)
    beams = build_mock_beams()

    # record counts under both wrongness policies, on known verdicts
    either = synthesize_train(beams, schemas, backend=backend, policy="either",
                              reps=[("pydict", "program")])
    both = synthesize_train(beams, schemas, backend=backend, policy="both",
                            reps=[("pydict", "program")])
    assert len(either) == 3 * QUESTIONS_PER_DB * 2
    assert len(both) == 3 * QUESTIONS_PER_DB * 1
    rerun = synthesize_train(beams, schemas, backend=backend, policy="either",
                             reps=[("pydict", "program")])
    assert rerun == either  # deterministic

    # greedy fold assignment with k=5 over ten databases
    fold_inputs = []
    for i, count in enumerate((9, 8, 7, 5, 5, 4, 3, 2, 2, 1)):
        for j in range(count):
            fold_inputs.append(ParserOutput(f"db{i}", f"q{j}", "select 1",
                                            (("select 1", 1.0),)))
    folds = split_folds(fold_inputs, 5)
    assert sorted(len(fold) for fold in folds) == [9, 9, 9, 9, 10]
    for output in fold_inputs:
        assert sum(any(o.db_id == output.db_id for o in fold) for fold in folds) == 1

    # dev extraction: highest beam confidence, no leakage, seed-stable
    split = build_dev_set(either, n_dbs=1, seed=7)
    assert len(split.dev) == QUESTIONS_PER_DB
    assert all(record.beam_rank == 2 for record in split.dev)  # score 0.7 > 0.5
    dev_keys = {(r.db_id, r.question) for r in split.dev}
    assert not dev_keys & {(r.db_id, r.question) for r in split.train}
    assert build_dev_set(either, n_dbs=1, seed=7) == split

    # every record's edits apply back to its gold query
    all_reps = synthesize_train(beams, schemas, backend=backend, policy="either")
    for record in all_reps:
        edits = record.y.split(Y_SEPARATOR, 1)[0]
        if record.edit_rep == "program":
            result = to_sql(exec_program(sql_to_clause_map(record.wrong_sql),
                                         parse_program(edits)))
        elif record.edit_rep == "token":
            result = apply_token_edits(record.wrong_sql,
                                       parse_edits(edits, "token")).result
        else:
            granularity = "clause-sql" if record.query_rep == "sql" else "clause-pydict"
            result = to_sql(apply_clause_edits(sql_to_clause_map(record.wrong_sql),
                                               parse_edits(edits, granularity)))
        assert result == record.gold_sql
    _ok(7, f"counts {len(either)}/{len(both)} per policy, greedy 5-fold split, "
           f"dev extraction and {len(all_reps)} record round-trips verified")


def _interaction_fixtures(schemas, count=50):
    fuzzer = QueryFuzzer(schemas, seed=8)
    fixtures = []
    while len(fixtures) < count:
        db_id, wrong, gold = fuzzer.pair(max_edits=4)
        program = diff_program(decompose(wrong), decompose(gold))
        if not program.stmts:
            continue
        schema = schemas[db_id]
        record = ExampleRecord(
            db_id=db_id, question=f"fixture {len(fixtures)}",
            schema_serial=schema.serialize(),
            wrong_sql=render(wrong), gold_sql=render(gold),
            query_rep="pydict", edit_rep="program",
            x=f"fixture {len(fixtures)} | {schema.serialize()} | "
              f"{render_pydict(decompose(wrong))}",
            y=render_program(program), n_edits=len(program.stmts),
            beam_rank=0, beam_score=1.0)
        fixtures.append((record, program))
    return fixtures


def test_criterion_8_interaction_harness(schemas):
    fixtures = _interaction_fixtures(schemas, count=50)

    corrected = 0
    for record, program in fixtures:
        log = simulate(record, program, OracleGenerator(program), beam_size=3)
        assert log.result_sql == _replay(record, log.selected)
        corrected += log.fully_corrected
    assert corrected == 50  # pure oracle: 100%

    for record, program in fixtures:
        log = simulate(record, program,
                       OracleGenerator(program, distractor_rate=1.0), beam_size=3)
        assert log.selected == [] and log.result_sql == record.wrong_sql
        assert log.result_sql == _replay(record, log.selected)

    small = [(r, p) for r, p in fixtures if len(p.stmts) <= 5]
    assert small
    for record, program in small:
        log = simulate(record, program,
                       OracleGenerator(program, distractor_rate=0.5, shuffle_seed=13),
                       beam_size=3)
        assert log.fully_corrected, record.wrong_sql
        assert log.result_sql == _replay(record, log.selected)
    _ok(8, f"oracle corrects 50/50, adversarial changes nothing, noisy oracle "
           f"corrects all {len(small)} fixtures with <= 5 gold actions")


def _replay(record, selected):
    from sqlpatch.interact import execute_selected

    return execute_selected(record, selected)


def test_criterion_9_suite_runtime():
    elapsed = time.monotonic() - _SUITE_START
    assert elapsed < 120.0
    _ok(9, f"acceptance module finished in {elapsed:.2f}s (< 2 minutes)")
