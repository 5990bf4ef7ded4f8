import json
import random

import pytest

from paperdata import CASE_CARS, CASE_HR, CASE_TWEETS, CASES
from queryfuzz import QueryFuzzer

from sqlpatch.clausemap import (
    SET_OP_KEYS, Composite, decompose, entry_sql, entry_value_sql, sql_to_clause_map, to_sql,
)
from sqlpatch.diffs import (
    clause_diff_items, diff_clauses_pydict, diff_clauses_sql, diff_program, diff_tokens,
)
from sqlpatch.editscript import EditAction, EditScript, parse_edits, render_edits
from sqlpatch.errors import ApplyError, ExecError, ProgramError
from sqlpatch.parse import parse_sql
from sqlpatch.program import EditProgram, Pop, parse_program, render_path, render_program
from sqlpatch.pydict import render_entry_fragment
from sqlpatch.vm import apply_clause_edits, apply_token_edits, exec_program, locate_clause_edits


def maps(case, schemas):
    schema = schemas[case.db_id]
    return (decompose(parse_sql(case.wrong, schema)),
            decompose(parse_sql(case.gold, schema)))


# ---------------------------------------------------------------------------
# exec_program


def test_exec_fixture_programs(schemas):
    for case in CASES:
        wrong_map, gold_map = maps(case, schemas)
        program = parse_program(case.program)
        result = exec_program(wrong_map, program)
        assert result == gold_map
        assert to_sql(result) == case.gold


def test_exec_empty_program_is_identity(schemas):
    wrong_map, _ = maps(CASE_TWEETS, schemas)
    assert exec_program(wrong_map, EditProgram()) == wrong_map


def test_exec_does_not_mutate_input(schemas):
    wrong_map, _ = maps(CASE_HR, schemas)
    before = wrong_map.copy()
    exec_program(wrong_map, parse_program(CASE_HR.program))
    assert wrong_map == before


def test_exec_missing_intermediate(schemas):
    wrong_map, _ = maps(CASE_TWEETS, schemas)  # no where clause at all
    program = parse_program('sql["where"]["subquery0"]["select"] = "select tweets.id"')
    with pytest.raises(ExecError, match="missing"):
        exec_program(wrong_map, program)


def test_exec_pop_absent_key(schemas):
    wrong_map, _ = maps(CASE_TWEETS, schemas)
    with pytest.raises(ExecError, match="absent"):
        exec_program(wrong_map, parse_program('sql.pop("groupBy")'))


def test_exec_pop_subquery_orphans(schemas):
    wrong_map, _ = maps(CASE_CARS, schemas)
    with pytest.raises(ExecError, match="placeholder"):
        exec_program(wrong_map, parse_program('sql["where"].pop("subquery0")'))


def test_exec_assign_unreferenced_placeholder(schemas):
    wrong_map, _ = maps(CASE_CARS, schemas)
    program = parse_program(
        'sql["where"]["subquery1"] = "select cars_data.id from cars_data"')
    with pytest.raises(ExecError, match="not referenced"):
        exec_program(wrong_map, program)


def test_exec_assign_value_with_subquery_recomposes(schemas):
    schema = schemas["cars"]
    wrong_map = decompose(parse_sql(
        "select count(*) from cars_data where cars_data.accelerate > 20", schema))
    gold = parse_sql("select count(*) from cars_data where cars_data.accelerate > "
                     "(select avg(cars_data.accelerate) from cars_data)", schema)
    program = diff_program(wrong_map, decompose(gold))
    result = exec_program(wrong_map, program)
    assert result == decompose(gold)


def test_exec_assign_wrong_keyword_rejected(schemas):
    wrong_map, _ = maps(CASE_TWEETS, schemas)
    with pytest.raises(ExecError):
        exec_program(wrong_map, parse_program('sql["orderBy"] = "limit 3"'))


def test_exec_statement_order_does_not_leak(schemas):
    """Keys end up canonical regardless of assignment order."""
    wrong_map, _ = maps(CASE_TWEETS, schemas)
    program = parse_program('sql["limit"] = "limit 5"\nsql["where"] = "where tweets.uid = 3"')
    result = exec_program(wrong_map, program)
    assert result.keys() == ["select", "from", "where", "orderBy", "limit"]


# ---------------------------------------------------------------------------
# apply_clause_edits


def test_apply_fixture_clause_scripts(schemas):
    for case in CASES:
        schema = schemas[case.db_id]
        wrong = parse_sql(case.wrong, schema)
        gold = parse_sql(case.gold, schema)
        wrong_map, gold_map = decompose(wrong), decompose(gold)
        assert apply_clause_edits(wrong_map, diff_clauses_sql(wrong, gold)) == gold_map
        assert apply_clause_edits(wrong_map,
                                  diff_clauses_pydict(wrong_map, gold_map)) == gold_map


@pytest.fixture(scope="module")
def fuzzed_maps(schemas):
    """The wrong and gold maps of 1,500 seeded fuzzer pairs."""
    fuzzer = QueryFuzzer(schemas, seed=99)
    return [(decompose(wrong), decompose(gold))
            for _, wrong, gold in (fuzzer.pair() for _ in range(1500))]


def test_apply_agrees_with_exec(schemas, fuzzed_maps):
    for wrong_map, gold_map in [maps(case, schemas) for case in CASES] + fuzzed_maps:
        via_script = apply_clause_edits(wrong_map,
                                        diff_clauses_pydict(wrong_map, gold_map))
        via_program = exec_program(wrong_map, diff_program(wrong_map, gold_map))
        assert to_sql(via_script) == to_sql(via_program)


def test_the_locator_recovers_the_diffs_own_items(fuzzed_maps):
    """Locating a diff's clause script gives back the diff's items, paths
    included, and leaves the map as it was."""
    for wrong_map, gold_map in fuzzed_maps:
        before = wrong_map.copy()
        items = clause_diff_items(wrong_map, gold_map)
        for diff in (diff_clauses_sql, diff_clauses_pydict):
            assert locate_clause_edits(wrong_map, diff(wrong_map, gold_map)) == items
        assert wrong_map == before


def test_apply_delete_absent_anchor(schemas):
    wrong_map, _ = maps(CASE_TWEETS, schemas)
    script = EditScript("clause-sql", (EditAction("delete", old="group by tweets.uid"),))
    with pytest.raises(ApplyError, match="anchor"):
        apply_clause_edits(wrong_map, script)


def test_apply_replace_stale_content(schemas):
    wrong_map, _ = maps(CASE_TWEETS, schemas)
    script = EditScript("clause-sql", (
        EditAction("replace", old="order by tweets.uid", new="order by tweets.id"),))
    with pytest.raises(ApplyError, match="anchor"):
        apply_clause_edits(wrong_map, script)


def test_apply_insert_existing_key(schemas):
    wrong_map, _ = maps(CASE_TWEETS, schemas)
    script = EditScript("clause-sql", (EditAction("insert", new="select tweets.id"),))
    with pytest.raises(ApplyError, match="already-present"):
        apply_clause_edits(wrong_map, script)


def test_apply_empty_script_is_identity(schemas):
    wrong_map, _ = maps(CASE_HR, schemas)
    assert apply_clause_edits(wrong_map, EditScript("clause-sql")) == wrong_map


def test_apply_merged_insert_lands_in_subquery(schemas):
    """A grouped insert following a subquery-internal replace stays in the
    same subquery."""
    wrong_map, gold_map = maps(CASE_CARS, schemas)
    script = diff_clauses_sql(parse_sql(CASE_CARS.wrong, schemas["cars"]),
                              parse_sql(CASE_CARS.gold, schemas["cars"]))
    result = apply_clause_edits(wrong_map, script)
    assert result == gold_map
    assert "limit" not in result  # the limit belongs to the subquery


def test_an_insert_waits_for_the_most_recently_anchored_map():
    """After the outer select is replaced, a limit insert passes over the
    FROM subquery, whose limit is free too, and lands in the outer query."""
    wrong = sql_to_clause_map("select t.a from (select t.b from t) where t.c = 1")
    script = EditScript("clause-sql", (EditAction("replace", "select t.a", "select t.b"),
                                       EditAction("insert", new="limit 1")))
    assert [item.path for item in locate_clause_edits(wrong, script)] == [(), ()]
    assert to_sql(apply_clause_edits(wrong, script)) == (
        "select t.b from (select t.b from t) where t.c = 1 limit 1")


def test_an_insert_may_take_the_key_a_delete_freed():
    wrong = sql_to_clause_map("select t.a from t where t.c = 1")
    script = EditScript("clause-sql", (EditAction("delete", old="where t.c = 1"),
                                       EditAction("insert", new="where t.c = 2")))
    assert to_sql(apply_clause_edits(wrong, script)) == "select t.a from t where t.c = 2"


def test_apply_inside_set_op_right_query(schemas):
    schema = schemas["hr"]
    wrong = parse_sql("select employee.name from employee union "
                      "select employee.name from employee where employee.age > 40",
                      schema)
    gold = parse_sql("select employee.name from employee union "
                     "select employee.name from employee where employee.age > 50",
                     schema)
    wrong_map, gold_map = decompose(wrong), decompose(gold)
    assert apply_clause_edits(wrong_map, diff_clauses_sql(wrong, gold)) == gold_map
    assert apply_clause_edits(wrong_map,
                              diff_clauses_pydict(wrong_map, gold_map)) == gold_map
    assert exec_program(wrong_map, diff_program(wrong_map, gold_map)) == gold_map


def test_apply_whole_composite_replace(schemas):
    """When the composite clause text itself changes, the whole entry is
    replaced, subqueries included, at both clause granularities."""
    schema = schemas["cars"]
    wrong = parse_sql("select count(*) from cars_data where cars_data.accelerate > "
                      "(select max(cars_data.horsepower) from cars_data) and "
                      "cars_data.year = 1970", schema)
    gold = parse_sql("select count(*) from cars_data where cars_data.mpg > "
                     "(select max(cars_data.horsepower) from cars_data) and "
                     "cars_data.year = 1970", schema)
    wrong_map, gold_map = decompose(wrong), decompose(gold)
    script = diff_clauses_sql(wrong, gold)
    assert len(script.actions) == 1 and script.actions[0].kind == "replace"
    assert "(select" in script.actions[0].new  # subquery inlined in the payload
    assert apply_clause_edits(wrong_map, script) == gold_map
    assert apply_clause_edits(wrong_map,
                              diff_clauses_pydict(wrong_map, gold_map)) == gold_map
    assert exec_program(wrong_map, diff_program(wrong_map, gold_map)) == gold_map


def test_exec_replace_whole_subquery(schemas):
    wrong_map, _ = maps(CASE_CARS, schemas)
    program = parse_program(
        'sql["where"]["subquery0"] = "select cars_data.id from cars_data limit 3"')
    result = exec_program(wrong_map, program)
    sub = result.get("where").subqueries["subquery0"]
    assert sub.get("select") == "select cars_data.id"
    assert sub.get("limit") == "limit 3"


# ---------------------------------------------------------------------------
# Mutated content: one entry of a diff's edits is broken in one way, and the
# edits must then fail with their applier's error, never yield SQL.

LEADS = {"select": "select", "from": "from", "where": "where", "groupBy": "group by",
         "having": "having", "orderBy": "order by", "limit": "limit"}


def _mutated(granularity, mutation, rng, key, entry):
    """(key, entry) with its key misspelled (in clause-sql, the keyword that
    names the clause), another clause's keyword at the head of its clause
    text, a stray ")" after that text, or the clause written twice."""
    if mutation == "repeated clause":
        text = entry_value_sql(entry)
        return key, f"{text} {text}"
    if mutation == "misspelled key" and granularity != "clause-sql":
        return key[:-1], entry
    text = entry.clause if isinstance(entry, Composite) else entry
    if mutation == "misspelled key":
        text = LEADS[key][:-1] + text[len(LEADS[key]):]
    elif mutation == "keyword":
        text = rng.choice([lead for k, lead in LEADS.items() if k != key]) + text[len(LEADS[key]):]
    else:
        text += " )"
    return key, (Composite(text, entry.subqueries) if isinstance(entry, Composite) else text)


def _edit_text(granularity, items, target=None, mutant=None):
    """The diff items as the row's edit text, the first new entry of
    ``target`` replaced by ``mutant``."""
    lines, actions = [], []
    for item in items:
        pairs = list(item.pairs)
        if item is target:
            pairs[0] = mutant
        if granularity == "program":
            if item.kind == "delete":
                lines.append(render_program(EditProgram((Pop(item.path, item.old[0][0]),))))
            lines += [f"{render_path(item.path + (key,))} = {json.dumps(entry_value_sql(entry))}"
                      for key, entry in pairs]
            continue
        render, sep = ((render_entry_fragment, ", ") if granularity == "clause-pydict"
                       else (entry_sql, " "))
        actions.append(EditAction(item.kind, sep.join(render(k, e) for k, e in item.old),
                                  sep.join(render(k, e) for k, e in pairs)))
    if granularity == "program":
        return "\n".join(lines)
    return render_edits(EditScript(granularity, tuple(actions)))


def _run(granularity, wrong_map, text):
    if granularity == "program":
        return exec_program(wrong_map, parse_program(text))
    return apply_clause_edits(wrong_map, parse_edits(text, granularity))


@pytest.mark.parametrize("mutation", ["keyword", "misspelled key", "stray paren",
                                      "repeated clause"])
@pytest.mark.parametrize("granularity", ["clause-sql", "clause-pydict", "program"])
def test_mutated_content_is_refused(fuzzed_maps, granularity, mutation):
    rng = random.Random(f"{granularity} {mutation}")
    error = (ProgramError if granularity == "program" and mutation == "misspelled key"
             else ExecError if granularity == "program" else ApplyError)
    # in clause-sql another clause's keyword is another key, so an insert of
    # it is a valid edit; a replace may not change its key
    kinds = ("replace",) if (granularity, mutation) == ("clause-sql", "keyword") \
        else ("replace", "insert")
    mutated = 0
    for wrong_map, gold_map in fuzzed_maps[:300]:
        items = clause_diff_items(wrong_map, gold_map)
        assert _run(granularity, wrong_map, _edit_text(granularity, items)) == gold_map
        targets = [item for item in items
                   if item.kind in kinds and item.pairs[0][0] not in SET_OP_KEYS]
        if not targets:
            continue
        target = rng.choice(targets)
        mutant = _mutated(granularity, mutation, rng, *target.pairs[0])
        with pytest.raises(error):
            _run(granularity, wrong_map, _edit_text(granularity, items, target, mutant))
        mutated += 1
    assert mutated > 150


# ---------------------------------------------------------------------------
# apply_token_edits


def test_token_ambiguity_witness(schemas):
    schema = schemas["social"]
    wrong = parse_sql(CASE_TWEETS.wrong, schema)
    gold = parse_sql(CASE_TWEETS.gold, schema)
    report = apply_token_edits(CASE_TWEETS.wrong, diff_tokens(wrong, gold))
    # leftmost match rewrites the select column, not the order-by column
    assert report.result == \
        "select tweets.createdate from tweets order by tweets.text"
    assert report.ambiguous_spans == 1
    assert report.result != CASE_TWEETS.gold


def test_token_unambiguous_replace(schemas):
    schema = schemas["hr"]
    wrong = parse_sql("select employee.name from employee where employee.age > 30",
                      schema)
    gold = parse_sql("select employee.name from employee where employee.age > 40",
                     schema)
    report = apply_token_edits("select employee.name from employee where "
                               "employee.age > 30", diff_tokens(wrong, gold))
    assert report.result == ("select employee.name from employee where "
                             "employee.age > 40")
    assert report.ambiguous_spans == 0
    assert report.skipped == 0


def test_token_empty_script_echoes(schemas):
    report = apply_token_edits(CASE_TWEETS.wrong, EditScript("token"))
    assert report.result == CASE_TWEETS.wrong


def test_token_absent_span_skipped(schemas):
    script = EditScript("token", (EditAction("delete", old="group by tweets.uid"),))
    report = apply_token_edits(CASE_TWEETS.wrong, script)
    assert report.skipped == 1
    assert report.result == CASE_TWEETS.wrong
