"""Tests of the benchmark itself: pinned inputs, honest checks, complete
traces, and the two known defects the workloads are shaped around."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import benchcheck
import benchgen
import run
from benchtrace import SPAN_NAMES

from sqlpatch import (
    decompose, diff_clauses_pydict, diff_clauses_sql, diff_program, exact_set_match,
    exec_program, parse_sql, render, schema_from_entry,
)
from sqlpatch.cli import main as cli_main
from sqlpatch.dataset import ParserOutput, make_record
from sqlpatch.errors import ApplyError, SqlPatchError
from sqlpatch.interact import execute_selected, gold_action_strings
from sqlpatch.vm import apply_clause_edits

BENCH = Path(__file__).resolve().parent
SCHEMAS = {e["db_id"]: schema_from_entry(e) for e in benchgen.tables_json()}

SB, SE, EE, SIM = "synth-beams", "synth-exec", "eval-exec", "simulate"
ALL = {SB, SE, EE, SIM}

# Workloads on which each entry point is called; everywhere else its call
# count must read 0. Written down from the pipeline code before measuring.
CALLED_ON = {
    "tokens.tokenize": ALL, "tokens.detokenize": ALL,
    "parse.parse": ALL, "parse.parse_sql": ALL, "normalize.normalize": ALL,
    "render.render": {SB, SE, EE}, "render.render_tokens": ALL,
    "clausemap.decompose": {SE, SIM}, "clausemap.sql_to_clause_map": {SIM},
    "clausemap.to_sql": {SE, SIM},
    "pydict.render_pydict": {SE}, "pydict.parse_pydict": set(),
    "diffs.diff_tokens": {SB, SIM}, "diffs.diff_clauses_sql": {SIM},
    "diffs.diff_clauses_pydict": {SIM}, "diffs.diff_program": {SE, SIM},
    "editscript.render_edits": {SB, SIM}, "editscript.parse_edits": {SIM},
    "program.render_program": {SE, SIM}, "program.parse_program": {SIM},
    "vm.exec_program": {SIM}, "vm.apply_clause_edits": {SIM},
    "vm.apply_token_edits": {SIM},
    "metrics.exact_set_match": {SB, SE, EE}, "metrics.execution_match": {SE, EE},
    "metrics.SqliteBackend.execute": {SE, EE},
    "dataset.synthesize_train": {SB, SE}, "dataset.make_record": {SB, SE},
    "interact.simulate": {SIM}, "interact.execute_selected": {SIM},
    "interact.OracleGenerator.propose": {SIM},
    "schema.load_tables_json": ALL,
    "cli.main": {SB, SE, EE},
}
SQLITE_COUNTERS = ("metrics.sqlite.connections", "metrics.sqlite.executions")

# sha256 prefixes of each workload's generated inputs at its full size.
PINNED_DIGESTS = {
    "synth-beams": {1: "daa51b46132aaf18", 2: "0ca31bba36a4f2f0", 3: "eb250462c28cd8c4"},
    "synth-exec": {1: "1bac11851358e67a", 2: "04f493c6cf30fb12", 3: "f5da6ffcdc9d99e6"},
    "eval-exec": {1: "67c8229c07be1a1a", 2: "f9c5ad2747050781", 3: "5444dc6930f1ba27"},
    "simulate": {1: "30752872d715802c", 2: "7831e4670a392168", 3: "299bdcf0edca6fca"},
}


def _inputs(workload: str, seed: int):
    size = run.WORKLOADS[workload].size
    rows = benchgen.database_rows(seed) if run.WORKLOADS[workload].uses_db else None
    if workload in (SB, SE):
        made = [(i["line"], i["entries"]) for i in benchgen.beams(seed, size)]
    elif workload == EE:
        made = [p["line"] for p in benchgen.eval_pairs(seed, size)]
    else:
        made = benchgen.sim_pairs(seed, size)
    return [benchgen.tables_json(), rows, made]


@pytest.mark.parametrize("workload", sorted(ALL))
def test_inputs_are_pinned(workload):
    for seed, want in PINNED_DIGESTS[workload].items():
        assert benchgen.digest(_inputs(workload, seed)) == want, (workload, seed)


def test_schema_serialization_matches():
    for db_id, schema in SCHEMAS.items():
        assert benchgen.schema_serial(db_id) == schema.serialize()


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_canonical_text_is_what_sqlpatch_renders(seed, tmp_path):
    benchcheck.build_databases(tmp_path, seed)
    oracle = benchcheck.Oracle(tmp_path)
    kinds = set()
    try:
        for item in benchgen.beams(seed, 150):
            line = json.loads(item["line"])
            schema = SCHEMAS[item["db_id"]]
            gold = parse_sql(line["gold_sql"], schema)
            assert render(gold) == item["gold"]
            assert oracle.rows(item["db_id"], item["gold"]) is not None, item["gold"]
            for entry, (kind, canon) in zip(line["beam"], item["entries"]):
                kinds.add(kind)
                if kind == "ungrammatical":
                    with pytest.raises(SqlPatchError):
                        parse_sql(entry["sql"], schema)
                    continue
                ast = parse_sql(entry["sql"], schema)
                assert render(ast) == canon, entry["sql"]
                assert exact_set_match(ast, gold) == (kind in ("gold", "gold_variant"))
        for pair in benchgen.eval_pairs(seed, 150):
            line = json.loads(pair["line"])
            schema = SCHEMAS[pair["db_id"]]
            pred, gold = parse_sql(line["pred"], schema), parse_sql(line["gold"], schema)
            assert (render(pred), render(gold)) == (pair["pred"], pair["gold"])
            assert exact_set_match(pred, gold) == pair["em"]
            assert oracle.rows(pair["db_id"], pair["gold"]) is not None, pair["gold"]
    finally:
        oracle.close()
    assert kinds == {"gold", "gold_variant", "same_rows", "wrong", "wrong_variant",
                     "ungrammatical"}


def test_simulate_pairs_are_clause_invertible():
    for pair in benchgen.sim_pairs(3, 400):
        schema = SCHEMAS[pair["db_id"]]
        wrong = decompose(parse_sql(pair["wrong"], schema))
        gold = decompose(parse_sql(pair["gold"], schema))
        assert apply_clause_edits(wrong, diff_clauses_sql(wrong, gold)) == gold
        assert apply_clause_edits(wrong, diff_clauses_pydict(wrong, gold)) == gold
        assert exec_program(wrong, diff_program(wrong, gold)) == gold


def test_checks_reject_tampered_output(tmp_path):
    items = benchgen.beams(4, 30)
    expected = benchcheck.expected_synth(items)
    outputs = [ParserOutput.from_json(i["line"]) for i in items]
    from sqlpatch import synthesize_train

    records = synthesize_train(outputs, SCHEMAS, reps=[("pydict", "program")])
    text = "".join(r.to_json() + "\n" for r in records)
    assert benchcheck.check_synth(text, items, expected, "pydict", "program") == []
    first = json.loads(text.splitlines()[0])
    other_program = "\n".join(['sql["limit"] = "limit 99"'] * first["n_edits"])
    for field, value in (("gold_sql", first["wrong_sql"]), ("beam_rank", -1),
                         ("y", other_program + " <sep> " + first["y"].split(" <sep> ")[1]),
                         ("n_edits", first["n_edits"] + 1)):
        tampered = dict(first, **{field: value})
        bad = json.dumps(tampered) + "\n" + "".join(line + "\n" for line in text.splitlines()[1:])
        assert benchcheck.check_synth(bad, items, expected, "pydict", "program"), field
    missing = "".join(line + "\n" for line in text.splitlines()[1:])
    assert benchcheck.check_synth(missing, items, expected, "pydict", "program")

    want = [{"em": True, "ex": True}, {"em": False, "ex": False}]
    assert benchcheck.check_eval('{"em": true, "ex": true}\n{"em": false, "ex": false}\n',
                                 want) == ([], 0)
    assert benchcheck.check_eval('{"em": true, "ex": false}\n', want)[0]
    assert benchcheck.check_eval('{"em": true, "ex": true}\n', want)[1] == 1


def test_policy_both_run_checks_ex_verdicts(tmp_path):
    """Under policy either, EX cannot change which records synth writes;
    under both it decides them, so the verify run catches a wrong verdict."""
    from sqlpatch import SqliteBackend, synthesize_train

    benchcheck.build_databases(tmp_path, 5)
    items = benchgen.beams(5, 40)
    oracle = benchcheck.Oracle(tmp_path)
    try:
        either = benchcheck.expected_synth(items, oracle)
        both = benchcheck.expected_synth(items, oracle, "both")
    finally:
        oracle.close()
    assert len(both) < len(either)
    outputs = [ParserOutput.from_json(i["line"]) for i in items]

    def synth(policy):
        records = synthesize_train(outputs, SCHEMAS, backend=SqliteBackend(tmp_path),
                                   policy=policy, reps=[("pydict", "program")])
        return "".join(r.to_json() + "\n" for r in records)

    assert benchcheck.check_synth(synth("both"), items, both, "pydict", "program") == []
    assert benchcheck.check_synth(synth("either"), items, either, "pydict", "program") == []
    # Output as if EX were False for every entry: right under either, wrong under both.
    assert benchcheck.check_synth(synth("either"), items, both, "pydict", "program")


def test_sim_check_fails_every_error_but_the_known_defect():
    records = [{"gold_sql": "g", "query_rep": "sql", "edit_rep": rep, "n_edits": 1}
               for rep in ("clause", "program", "token")]

    def session(error):
        return json.dumps({"ms": 1.0, "error": error, "message": "m"}) + "\n"

    problems, errors, _ = benchcheck.check_sim(session("ApplyError"), records[:1])
    assert (problems, errors) == ([], {0: "ApplyError"})
    for error, record in (("ApplyError", records[1]), ("ProgramError", records[1]),
                          ("ParseError", records[0]), ("ApplyError", records[2])):
        problems, errors, _ = benchcheck.check_sim(session(error), [record])
        assert problems and errors == {0: error}, (error, record)
    problems, errors, _ = benchcheck.check_sim("", records[:1])
    assert problems and errors == {0: "missing"}


def test_ex_match_follows_readme_rule():
    assert benchcheck.ex_match([(1, "a"), (2, "b")], [(2.0, "b"), (1, "a")], ordered=False)
    assert not benchcheck.ex_match([(1, "a"), (2, "b")], [(2, "b"), (1, "a")], ordered=True)
    assert not benchcheck.ex_match([(1,), (1,)], [(1,)], ordered=False)
    assert not benchcheck.ex_match(None, [], ordered=False)
    assert not benchcheck.ex_match([("1",)], [(1,)], ordered=False)


@pytest.fixture(scope="module")
def traced():
    return {w: run.run(w, seed=1, seconds=0, trace=True, size=120) for w in sorted(ALL)}


def test_trace_sees_every_predicted_call(traced):
    assert set(CALLED_ON) == set(SPAN_NAMES)
    for workload, result in traced.items():
        assert result["correct"], workload
        metrics = result["metrics"]
        for name, called in CALLED_ON.items():
            calls = metrics[f"{name}.calls"]["value"]
            if workload in called:
                assert calls > 0, (workload, name)
            else:
                assert calls == 0, (workload, name)
        for counter in SQLITE_COUNTERS:
            assert (metrics[counter]["value"] > 0) == (workload in (SE, EE)), (workload, counter)
        assert metrics["trace.overhead_ratio"]["value"] > 0
        assert metrics["host.calib_ms"]["value"] > 0


def test_trace_reports_every_per_layer_metric(traced):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for result in traced.values():
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units


@pytest.mark.parametrize("workload", sorted(ALL))
def test_end_to_end_run_reports_every_metric(workload):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = run.run(workload, seed=2, seconds=0, trace=False, size=60)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert result["attempted"] == 60
    if workload != SIM:
        assert result["failed"] == 0


def test_without_sources_the_benchmark_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# Known defects. Each test asserts the defect as it stands; when a fix lands
# the test fails, and the benchmark notes and this test are updated with it.


def test_defect_execute_selected_aborts_on_subquery_select_first():
    """interact._action_order sorts clause actions by top-level key only, so
    picking the subquery's select replace before the outer one raises, and
    the simulate workload counts such sessions as failed."""
    schema = SCHEMAS["social"]
    wrong_text = ("select count(*), sum(*) from tweets where tweets.uid in "
                  "(select tweets.uid from tweets) and tweets.text like 'Drax' limit 7")
    gold_text = ("select count(*), count(*) from tweets where tweets.uid in "
                 "(select tweets.id from tweets) and tweets.text like 'Drax'")
    wrong, gold = parse_sql(wrong_text, schema), parse_sql(gold_text, schema)
    output = ParserOutput("social", "q", gold_text, ((wrong_text, 0.5),))
    record = make_record(output, 0, 0.5, schema, wrong, gold, "sql", "clause")
    actions = gold_action_strings(diff_clauses_sql(wrong, gold))
    assert len(actions) == 3 and "tweets.id" in actions[1]
    assert execute_selected(record, actions) == gold_text
    with pytest.raises(ApplyError):
        execute_selected(record, [actions[1], actions[0], actions[2]])


def test_defect_eval_aborts_on_first_unparseable_prediction(tmp_path, capsys):
    """eval stops at the first prediction that does not parse, so eval-exec
    feeds only predictions that parse (see NOTES.md)."""
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps(benchgen.tables_json()), encoding="utf-8")
    gold = "select tweets.id from tweets"
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        json.dumps({"db_id": "social", "pred": "select from where", "gold": gold}) + "\n"
        + json.dumps({"db_id": "social", "pred": gold, "gold": gold}) + "\n",
        encoding="utf-8")
    assert cli_main(["eval", "--schema", str(tables), str(pairs)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:")
