import json
import math
import os
import queue
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import pytest

from mockbeams import build_mock_beams
from paperdata import CASE_CARS, CASE_HR, CASE_TWEETS, TABLES_JSON

from sqlpatch.cli import _CHUNK, _WINDOW, _map_lines
from sqlpatch.dataset import synthesize_train
from sqlpatch.errors import SqlPatchError

CLI = [sys.executable, "-m", "sqlpatch.cli"]


def run_cli(args, stdin=""):
    return subprocess.run(CLI + args, input=stdin, capture_output=True, text=True)


@pytest.fixture()
def schema_flag(tables_json_path):
    return ["--schema", str(tables_json_path)]


def test_normalize(schema_flag):
    proc = run_cli(["normalize", *schema_flag, "--db-id", "social"],
                   stdin="SELECT T1.text FROM tweets AS T1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "select tweets.text from tweets"


def test_normalize_names_a_malformed_number(schema_flag):
    proc = run_cli(["normalize", *schema_flag, "--db-id", "cars"],
                   stdin="select cars_data.id from cars_data where cars_data.mpg > 1.5E3")
    assert proc.returncode == 1
    assert proc.stderr == "error: malformed number literal '1.5E3' at offset 57\n"


def test_pydict_and_to_sql_pipe(schema_flag):
    proc = run_cli(["pydict", *schema_flag, "--db-id", "cars"], stdin=CASE_CARS.wrong)
    assert proc.returncode == 0
    assert proc.stdout.strip() == CASE_CARS.pydict_wrong
    back = run_cli(["to-sql"], stdin=proc.stdout)
    assert back.returncode == 0
    assert back.stdout.strip() == CASE_CARS.wrong


def test_diff_program_fixture(schema_flag, tmp_path):
    wrong = tmp_path / "w.sql"
    gold = tmp_path / "g.sql"
    wrong.write_text(CASE_TWEETS.wrong)
    gold.write_text(CASE_TWEETS.gold)
    proc = run_cli(["diff", *schema_flag, "--db-id", "social",
                    "--granularity", "program",
                    "--wrong", str(wrong), "--gold", str(gold)])
    assert proc.returncode == 0
    assert proc.stdout.strip() == CASE_TWEETS.program


@pytest.mark.parametrize("granularity", ["clause-sql", "clause-pydict"])
def test_diff_apply_pipe_reproduces_gold(schema_flag, tmp_path, granularity):
    for case, db in ((CASE_TWEETS, "social"), (CASE_CARS, "cars"), (CASE_HR, "hr")):
        wrong = tmp_path / "w.sql"
        gold = tmp_path / "g.sql"
        wrong.write_text(case.wrong)
        gold.write_text(case.gold)
        diff = run_cli(["diff", *schema_flag, "--db-id", db,
                        "--granularity", granularity,
                        "--wrong", str(wrong), "--gold", str(gold)])
        assert diff.returncode == 0
        edits = tmp_path / "e.txt"
        edits.write_text(diff.stdout)
        applied = run_cli(["apply", *schema_flag, "--db-id", db,
                           "--granularity", granularity,
                           "--wrong", str(wrong), "--edits", str(edits)])
        assert applied.returncode == 0
        assert applied.stdout.strip() == case.gold


def test_diff_exec_program_pipe(schema_flag, tmp_path):
    wrong = tmp_path / "w.sql"
    gold = tmp_path / "g.sql"
    wrong.write_text(CASE_CARS.wrong)
    gold.write_text(CASE_CARS.gold)
    diff = run_cli(["diff", *schema_flag, "--db-id", "cars",
                    "--granularity", "program",
                    "--wrong", str(wrong), "--gold", str(gold)])
    program = tmp_path / "p.txt"
    program.write_text(diff.stdout)
    out = run_cli(["exec-program", "--wrong", str(wrong), "--program", str(program)])
    assert out.returncode == 0
    assert out.stdout.strip() == CASE_CARS.gold


def test_render_edits_both_directions():
    actions = [json.dumps({"kind": "replace", "old": "order by tweets.text",
                           "new": "order by tweets.createdate"})]
    rendered = run_cli(["render-edits", "--granularity", "clause-sql"],
                       stdin="\n".join(actions))
    assert rendered.returncode == 0
    assert rendered.stdout.strip() == CASE_TWEETS.clause_sql
    parsed = run_cli(["render-edits", "--granularity", "clause-sql", "--parse"],
                     stdin=rendered.stdout)
    assert parsed.returncode == 0
    assert [json.loads(line) for line in parsed.stdout.splitlines()] == [
        {"kind": "replace", "old": "order by tweets.text",
         "new": "order by tweets.createdate"}]


def test_apply_empty_edits_echoes(schema_flag, tmp_path):
    wrong = tmp_path / "w.sql"
    wrong.write_text(CASE_TWEETS.wrong)
    edits = tmp_path / "e.txt"
    edits.write_text("")
    proc = run_cli(["apply", "--granularity", "clause-sql",
                    "--wrong", str(wrong), "--edits", str(edits)])
    assert proc.returncode == 0
    assert proc.stdout.strip() == CASE_TWEETS.wrong


def test_apply_token_report(tmp_path):
    wrong = tmp_path / "w.sql"
    wrong.write_text(CASE_TWEETS.wrong)
    edits = tmp_path / "e.txt"
    edits.write_text(CASE_TWEETS.token)
    proc = run_cli(["apply", "--granularity", "token", "--report",
                    "--wrong", str(wrong), "--edits", str(edits)])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["ambiguous_spans"] == 1
    assert report["result"] != CASE_TWEETS.gold


@pytest.mark.parametrize("report", [False, True])
def test_apply_token_normalizes_an_aliased_query_given_a_db_id(schema_flag, tmp_path, report):
    wrong = tmp_path / "w.sql"
    wrong.write_text("SELECT T.text FROM tweets AS T")
    edits = tmp_path / "e.txt"
    edits.write_text("<ReplaceOld> tweets.text <ReplaceNew> tweets.id <ReplaceEnd>")
    proc = run_cli(["apply", *schema_flag, "--db-id", "social", "--granularity", "token",
                    *(["--report"] if report else []), "--wrong", str(wrong),
                    "--edits", str(edits)])
    assert proc.returncode == 0, proc.stderr
    if report:
        assert json.loads(proc.stdout) == {"result": "select tweets.id from tweets",
                                           "ambiguous_spans": 0, "skipped": 0}
    else:
        assert proc.stdout == "select tweets.id from tweets\n"


@pytest.mark.parametrize("granularity", ["clause-sql", "clause-pydict", "program"])
def test_apply_report_needs_token_granularity(tmp_path, granularity):
    wrong = tmp_path / "w.sql"
    wrong.write_text(CASE_TWEETS.wrong)
    proc = run_cli(["apply", "--granularity", granularity, "--report",
                    "--wrong", str(wrong), "--edits", str(wrong)])
    assert proc.returncode == 2
    assert proc.stdout == "" and "--report requires --granularity token" in proc.stderr


def test_exec_program(tmp_path):
    wrong = tmp_path / "w.sql"
    wrong.write_text(CASE_HR.wrong)
    program = tmp_path / "p.txt"
    program.write_text(CASE_HR.program)
    proc = run_cli(["exec-program", "--wrong", str(wrong), "--program", str(program)])
    assert proc.returncode == 0
    assert proc.stdout.strip() == CASE_HR.gold


def test_exec_program_names_an_empty_set_operation(tmp_path):
    wrong, program = tmp_path / "w.sql", tmp_path / "p.txt"
    wrong.write_text("select a.b from t")
    program.write_text('sql["union"] = "select a.b from t union"\n')
    proc = run_cli(["exec-program", "--wrong", str(wrong), "--program", str(program)])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == \
        "error: cannot assign sql[\"union\"]: set operation 'union' has no query after it\n"


def test_eval_command(schema_flag, db_dir):
    lines = [
        json.dumps({"db_id": "hr",
                    "pred": "select employee.name from employee where employee.age > 0",
                    "gold": "select employee.name from employee"}),
        json.dumps({"db_id": "hr",
                    "pred": "select employee.name from employee",
                    "gold": "select employee.name from employee"}),
    ]
    proc = run_cli(["eval", *schema_flag, "--db-dir", str(db_dir)],
                   stdin="\n".join(lines))
    assert proc.returncode == 0
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert results == [{"em": False, "ex": True}, {"em": True, "ex": True}]


def test_eval_workers_preserve_order(schema_flag):
    lines = [json.dumps({"db_id": "social",
                         "pred": f"select tweets.id from tweets limit {i + 1}",
                         "gold": "select tweets.id from tweets limit 1"})
             for i in range(6)]
    seq = run_cli(["eval", *schema_flag], stdin="\n".join(lines))
    par = run_cli(["eval", *schema_flag, "--workers", "3"], stdin="\n".join(lines))
    assert seq.returncode == par.returncode == 0
    assert seq.stdout == par.stdout
    assert json.loads(seq.stdout.splitlines()[0])["em"] is True


@pytest.mark.parametrize("workers", ["1", "2"])
def test_eval_unknown_db_id_names_line(schema_flag, workers):
    pair = {"pred": "select tweets.id from tweets", "gold": "select tweets.id from tweets"}
    lines = [json.dumps({"db_id": "social", **pair}), "",
             json.dumps({"db_id": "nope", **pair})]
    proc = run_cli(["eval", *schema_flag, "--workers", workers], stdin="\n".join(lines))
    assert proc.returncode == 1
    assert proc.stdout == '{"em": true, "ex": null}\n'
    assert proc.stderr.startswith("error: line 3: ")
    assert "'nope'" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["eval", "synth"])
def test_workers_with_db_dir_print_the_serial_output(schema_flag, db_dir, command):
    if command == "eval":
        lines = [json.dumps({"db_id": o.db_id, "gold": o.gold_sql, "pred": sql})
                 for o in build_mock_beams() for sql, _ in o.beam
                 if sql != "select from where"]
    else:
        lines = [o.to_json() for o in build_mock_beams()]
    args = [command, *schema_flag, "--db-dir", str(db_dir)]
    if command == "synth":
        args += ["--policy", "both"]
    seq = run_cli(args + ["--workers", "1"], stdin="\n".join(lines))
    par = run_cli(args + ["--workers", "2"], stdin="\n".join(lines))
    assert seq.returncode == par.returncode == 0
    assert seq.stdout and seq.stdout == par.stdout
    if command == "eval":
        assert set(seq.stdout.splitlines()) == \
            {'{"em": true, "ex": true}', '{"em": false, "ex": true}',
             '{"em": false, "ex": false}'}


_WRONG_TYPES = {"wrong-type-list": ["a"], "wrong-type-number": 5, "wrong-type-null": None}
_SQL = "select tweets.id from tweets"
_GOOD_LINES = {
    "eval": {"db_id": "social", "gold": _SQL, "pred": _SQL},
    "synth": {"db_id": "social", "question": "q", "gold_sql": _SQL,
              "beam": [{"sql": "select tweets.uid from tweets", "score": 1.0}]},
    "mcnemar": {"a": True, "b": False},
}
# command -> (field, a value of the wrong type) pairs; "sql" and "score"
# are a beam entry's, and stats, build-dev and simulate read ExampleRecords
_WRONG_FIELDS = {
    "eval": [("pred", 5), ("gold", None), ("db_id", ["social"])],
    "synth": [("question", 5), ("gold_sql", ["x"]), ("db_id", ["social"]), ("sql", 5),
              ("score", "nan"), ("score", "1.0"), ("score", True), ("score", float("nan")),
              ("score", float("inf"))],
    "mcnemar": [("a", "false"), ("b", 0), ("a", "no"), ("b", None)],
    "stats": [("n_edits", "3"), ("beam_rank", True), ("beam_score", float("nan"))],
    "build-dev": [("db_id", 3)],
    "simulate": [("beam_score", True), ("x", None)],
}


def _a_record(schemas):
    return json.loads(synthesize_train(build_mock_beams(), schemas)[0].to_json())


@pytest.mark.parametrize("command,bad", [
    *[(command, bad) for command in ["eval", "synth", "simulate", "mcnemar", "render-edits"]
      for bad in ["invalid-json", "missing-field"]],
    ("simulate", "unknown-field"), ("stats", "unknown-field"),
    *[("render-edits", bad) for bad in _WRONG_TYPES],
    *[(command, f"wrong-{field}-{json.dumps(value)}")
      for command, cases in _WRONG_FIELDS.items() for field, value in cases],
    ("simulate", "unknown-db_id")])
def test_malformed_line_is_a_domain_error(schema_flag, schemas, tmp_path, command, bad):
    field = None
    if bad == "invalid-json":
        line = "not json"
    elif bad == "missing-field":
        line = '{"db_id": "social"}'
    elif bad in _WRONG_TYPES:
        line = json.dumps({"kind": "insert", "new": _WRONG_TYPES[bad]})
    elif bad.startswith("wrong-"):
        field, value = bad.removeprefix("wrong-").split("-", 1)
        record = {**_GOOD_LINES[command]} if command in _GOOD_LINES else _a_record(schemas)
        if field in ("sql", "score"):
            record["beam"] = [{**record["beam"][0], field: json.loads(value)}]
        else:
            record[field] = json.loads(value)
        line = json.dumps(record)
    elif bad == "unknown-db_id":
        line = json.dumps({**_a_record(schemas), "db_id": "nowhere"})
    else:  # a record with one field more than ExampleRecord has
        line = json.dumps({**_a_record(schemas), "beam_size": 5})
    args = [command] + (schema_flag if command in ("eval", "synth", "simulate") else [])
    if command == "render-edits":
        args += ["--granularity", "token"]
    if command == "build-dev":
        args += ["--n-dbs", "1", "--seed", "0", "--train-out", str(tmp_path / "train"),
                 "--dev-out", str(tmp_path / "dev")]
    proc = run_cli(args, stdin="\n" + line + "\n")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: line 2: ")
    assert "Traceback" not in proc.stderr
    if bad == "unknown-field":
        assert "'beam_size'" in proc.stderr
    if bad == "unknown-db_id":
        assert "'nowhere'" in proc.stderr
    if field is not None:
        assert (f'"{field}"' if field in ("sql", "score") else f"'{field}'") in proc.stderr


@pytest.mark.parametrize("line", ['{"a": ' + "1" * 5000 + ', "b": true}', "[" * 100_000],
                         ids=["long-integer", "deep-nesting"])
def test_json_the_decoder_refuses_is_a_domain_error(line):
    proc = run_cli(["mcnemar"], stdin=line)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: line 1: invalid JSON: ")


def test_stats_rejects_an_edit_count_no_float_holds(schemas):
    proc = run_cli(["stats"], stdin=json.dumps({**_a_record(schemas), "n_edits": 10 ** 400}))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: line 1: field 'n_edits' must be an integer")


@pytest.mark.parametrize("bad_line", [37, 60])
@pytest.mark.parametrize("command", ["synth", "eval"])
def test_workers_stop_at_a_malformed_line_in_a_chunk(schema_flag, command, bad_line):
    # With two workers, 60 lines go out in two chunks, of 32 and 28 lines:
    # line 37 is the fifth of the second chunk, line 60 its last.
    if command == "synth":
        inputs = [o.to_json() for o in build_mock_beams()]
        args = ["synth", *schema_flag, "--query-rep", "sql", "--edit-rep", "token"]
    else:
        inputs = [json.dumps({"db_id": "social",
                              "pred": f"select tweets.id from tweets limit {i + 1}",
                              "gold": "select tweets.id from tweets limit 1"})
                  for i in range(3)]
        args = ["eval", *schema_flag]
    lines = [inputs[i % len(inputs)] for i in range(60)]
    lines[bad_line - 1] = "not json"
    seq = run_cli(args + ["--workers", "1"], stdin="\n".join(lines))
    par = run_cli(args + ["--workers", "2"], stdin="\n".join(lines))
    assert seq.returncode == par.returncode == 1
    assert seq.stdout and seq.stdout == par.stdout
    assert seq.stderr == par.stderr
    assert par.stderr.startswith(f"error: line {bad_line}: ")


def test_workers_print_the_serial_output_before_any_failing_line(schema_flag):
    # Line 14, in the one chunk that holds all 20 lines, has a non-string
    # prediction; whatever it raises, the 13 lines before it come out as in a
    # serial run.
    line = {"db_id": "social", "pred": "select tweets.id from tweets",
            "gold": "select tweets.id from tweets"}
    lines = [json.dumps(line)] * 20
    lines[13] = json.dumps({**line, "pred": 5})
    seq = run_cli(["eval", *schema_flag, "--workers", "1"], stdin="\n".join(lines))
    par = run_cli(["eval", *schema_flag, "--workers", "2"], stdin="\n".join(lines))
    assert seq.returncode == par.returncode != 0
    assert seq.stdout == par.stdout == '{"em": true, "ex": null}\n' * 13


def test_schema_file_that_is_not_json_is_a_domain_error(tmp_path):
    bad = tmp_path / "tables.json"
    bad.write_text("")
    proc = run_cli(["eval", "--schema", str(bad)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and str(bad) in proc.stderr
    assert "Traceback" not in proc.stderr


def _broken(**fields):
    return {**TABLES_JSON[0], "db_id": "broken", **fields}


@pytest.mark.parametrize("entry,error", [
    ({"tables": []}, ": missing field 'db_id'"),
    (5, ": 'int' object is not subscriptable"),
    (_broken(column_names_original=[[0, 5]]),
     " ('broken'): 'int' object has no attribute 'lower'"),
    (_broken(foreign_keys=[[0]]),
     " ('broken'): not enough values to unpack (expected 2, got 1)")])
def test_malformed_schema_entry_is_a_domain_error(tmp_path, entry, error):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(TABLES_JSON + [entry]), encoding="utf-8")
    proc = run_cli(["normalize", "--schema", str(path), "--db-id", "social"], stdin=_SQL)
    assert proc.returncode == 1
    assert proc.stderr == f"error: tables.json entry {len(TABLES_JSON)}{error}\n"


@pytest.mark.parametrize("command", ["normalize", "pydict", "diff", "apply", "exec-program",
                                     "eval", "synth", "simulate"])
def test_only_single_query_commands_take_a_db_id(schema_flag, command):
    takes = command not in ("eval", "synth", "simulate")
    assert ("--db-id" in run_cli([command, "--help"]).stdout) is takes
    if not takes:
        proc = run_cli([command, *schema_flag, "--db-id", "social"])
        assert proc.returncode == 2
        assert proc.stderr.endswith("error: unrecognized arguments: --db-id\n")


def test_eval_opens_no_file_but_a_database(schema_flag, tmp_path):
    (tmp_path / "social").mkdir()
    (tmp_path / "social" / "social.json").write_text("{}", encoding="utf-8")
    proc = run_cli(["eval", *schema_flag, "--db-dir", str(tmp_path)],
                   stdin=json.dumps(_GOOD_LINES["eval"]))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: line 1: no database file for 'social' under {tmp_path}\n"


def test_render_edits_skips_blank_lines():
    action = json.dumps({"kind": "replace", "old": "order by tweets.text",
                         "new": "order by tweets.createdate"})
    proc = run_cli(["render-edits", "--granularity", "clause-sql"],
                   stdin="\n" + action + "\n\n")
    assert proc.returncode == 0
    assert proc.stdout.strip() == CASE_TWEETS.clause_sql


def test_records_may_hold_unicode_line_separators(schema_flag):
    beam = json.loads(build_mock_beams()[0].to_json())
    beam["question"] = "which\u2028tweets\x85?"
    synth = run_cli(["synth", *schema_flag], stdin=json.dumps(beam, ensure_ascii=False))
    assert synth.returncode == 0 and "\u2028" in synth.stdout
    stats = run_cli(["stats"], stdin=synth.stdout)
    assert stats.returncode == 0
    assert json.loads(stats.stdout)["count"] == 2


def test_mcnemar_command():
    lines = [json.dumps({"a": True, "b": False})] * 5 + \
            [json.dumps({"a": False, "b": True})] * 15 + \
            [json.dumps({"a": True, "b": True})] * 10
    proc = run_cli(["mcnemar"], stdin="\n".join(lines))
    assert proc.returncode == 0
    result = json.loads(proc.stdout)
    assert result["b"] == 5 and result["c"] == 15
    assert abs(result["p"] - 0.04139) <= 1e-6


def test_mcnemar_command_counts_paired_outcomes():
    outcomes = [(True, False)] * 5 + [(False, True)] * 15 + [(True, True)] * 30 + \
               [(False, False)] * 4
    proc = run_cli(["mcnemar"], stdin="\n".join(json.dumps({"a": a, "b": b})
                                                 for a, b in outcomes))
    assert proc.returncode == 0
    result = json.loads(proc.stdout)
    assert (result["b"], result["c"], result["degenerate"]) == (5, 15, False)
    assert abs(result["p"] - 2.0 * sum(math.comb(20, i) for i in range(6)) / 2 ** 20) < 1e-12


def test_mcnemar_rejects_a_non_boolean_outcome():
    lines = [json.dumps({"a": True, "b": False}), json.dumps({"a": "false", "b": True})]
    proc = run_cli(["mcnemar"], stdin="\n".join(lines))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: line 2: field 'a' must be a boolean, got str\n"


def test_synth_split_dev_stats_pipeline(schema_flag, tmp_path):
    beams = "\n".join(o.to_json() for o in build_mock_beams())
    synth = run_cli(["synth", *schema_flag,
                     "--query-rep", "pydict", "--edit-rep", "program"], stdin=beams)
    assert synth.returncode == 0
    records = synth.stdout
    assert len(records.splitlines()) == 60

    stats = run_cli(["stats"], stdin=records)
    assert json.loads(stats.stdout)["count"] == 60

    folds = run_cli(["split-folds", "--folds", "3"], stdin=beams)
    assert folds.returncode == 0
    assignment = [json.loads(line) for line in folds.stdout.splitlines()]
    assert {a["db_id"] for a in assignment} == {"social", "cars", "hr"}
    assert {a["fold"] for a in assignment} == {0, 1, 2}

    train_out = tmp_path / "train.jsonl"
    dev_out = tmp_path / "dev.jsonl"
    dev = run_cli(["build-dev", "--n-dbs", "1", "--seed", "5",
                   "--train-out", str(train_out), "--dev-out", str(dev_out)],
                  stdin=records)
    assert dev.returncode == 0
    counts = json.loads(dev.stdout)
    assert counts["dev"] == 10 and counts["train"] == 40
    rerun = run_cli(["build-dev", "--n-dbs", "1", "--seed", "5",
                     "--train-out", str(train_out), "--dev-out", str(dev_out)],
                    stdin=records)
    assert rerun.stdout == dev.stdout


def test_simulate_command(schema_flag, tmp_path):
    beams = "\n".join(o.to_json() for o in build_mock_beams()
                      if o.db_id == "social")
    synth = run_cli(["synth", *schema_flag,
                     "--query-rep", "pydict", "--edit-rep", "program"], stdin=beams)
    records = "\n".join(synth.stdout.splitlines()[:3])
    proc = run_cli(["simulate", *schema_flag, "--generator", "oracle",
                    "--beam-size", "3"], stdin=records)
    assert proc.returncode == 0
    logs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(logs) == 3
    assert all(log["fully_corrected"] for log in logs)


def test_simulate_with_external_generator(schema_flag, tmp_path):
    import textwrap

    beams = "\n".join(o.to_json() for o in build_mock_beams()
                      if o.db_id == "social")
    synth = run_cli(["synth", *schema_flag,
                     "--query-rep", "pydict", "--edit-rep", "program"], stdin=beams)
    record_line = synth.stdout.splitlines()[0]
    record = json.loads(record_line)
    gen = tmp_path / "gen.py"
    gen.write_text(textwrap.dedent("""
        import json, sys
        for line in sys.stdin:
            req = json.loads(line)
            # propose nothing useful: an empty candidate list
            sys.stdout.write(json.dumps({"candidates": []}) + "\\n")
            sys.stdout.flush()
    """), encoding="utf-8")
    proc = run_cli(["simulate", *schema_flag,
                    "--generator-cmd", f"{sys.executable} {gen}"],
                   stdin=record_line)
    assert proc.returncode == 0
    log = json.loads(proc.stdout)
    assert log["fully_corrected"] is False
    assert log["result_sql"] == record["wrong_sql"]


@pytest.mark.parametrize("bad_response", ['{"candidates": [{"actions": ["sql', "[1, 2]",
                                          '{"candidates": [1]}',
                                          '{"candidates": [{"actions": "sql"}]}'])
def test_simulate_names_the_line_of_a_malformed_generator_response(
        schema_flag, schemas, tmp_path, bad_response):
    # The generator answers the first request with no candidates and the
    # second with a malformed response; the session of record 1 comes out.
    gen = tmp_path / "gen.py"
    responses = ['{"candidates": []}', bad_response]
    gen.write_text(f"import sys\nresponses = iter({responses!r})\n"
                   "for request in sys.stdin:\n"
                   "    print(next(responses), flush=True)\n", encoding="utf-8")
    record = json.dumps(_a_record(schemas))
    proc = run_cli(["simulate", *schema_flag, "--generator-cmd", f"{sys.executable} {gen}"],
                   stdin=record + "\n" + record + "\n")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["fully_corrected"] is False
    assert proc.stderr.startswith("error: line 2: external generator response: ")
    assert "Traceback" not in proc.stderr


def test_simulate_generator_that_cannot_start_is_a_domain_error(schema_flag, schemas):
    proc = run_cli(["simulate", *schema_flag, "--generator-cmd", "no-such-generator"],
                   stdin=json.dumps(_a_record(schemas)) + "\n")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot start external generator: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("response,error", [
    ('{"candidates":[]}', "external generator still running "),
    ("[1,2]", "line 1: external generator response: ")])
def test_simulate_kills_a_generator_running_past_its_input(
        tables_json_path, schemas, tmp_path, monkeypatch, capsys, response, error):
    import os

    from sqlpatch import interact
    from sqlpatch.cli import main

    monkeypatch.setattr(interact, "EXIT_WAIT_S", 0.2)
    gen, pid_file, records = tmp_path / "gen.py", tmp_path / "pid", tmp_path / "records.jsonl"
    gen.write_text("import os, sys, time\n"
                   "open(sys.argv[1], 'w').write(str(os.getpid()))\n"
                   "for request in sys.stdin:\n"
                   "    print(sys.argv[2], flush=True)\n"
                   "time.sleep(60)\n", encoding="utf-8")
    records.write_text(json.dumps(_a_record(schemas)) + "\n", encoding="utf-8")
    status = main(["simulate", "--schema", str(tables_json_path), "--generator-cmd",
                   f"{sys.executable} {gen} {pid_file} {response}", str(records)])
    assert status == 1
    assert capsys.readouterr().err.startswith("error: " + error)
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(int(pid_file.read_text(encoding="utf-8")), 0)


def test_simulate_requires_schema_before_reading_input():
    proc = run_cli(["simulate"], stdin="not json\n")
    assert proc.returncode == 2
    assert "--schema is required" in proc.stderr


@pytest.mark.parametrize("command", ["", " "])
def test_simulate_generator_command_without_words_is_a_usage_error(schema_flag, command):
    proc = run_cli(["simulate", *schema_flag, "--generator-cmd", command], stdin="")
    assert proc.returncode == 2
    assert "--generator-cmd names no program" in proc.stderr
    assert "Traceback" not in proc.stderr


_RANGES = {"--beam-size": "at least 1", "--distractor-rate": "between 0 and 1"}


@pytest.mark.parametrize("flag,value", [
    ("--beam-size", "0"), ("--beam-size", "-1"),
    ("--distractor-rate", "5"), ("--distractor-rate", "-1"), ("--distractor-rate", "nan")])
def test_simulate_number_out_of_range_is_a_usage_error(schema_flag, schemas, tmp_path,
                                                       flag, value):
    gen, started = tmp_path / "gen.py", tmp_path / "started"
    gen.write_text(f"open({str(started)!r}, 'w').close()\n"
                   "for request in open(0):\n"
                   "    print('{\"candidates\": []}', flush=True)\n", encoding="utf-8")
    record = json.dumps(_a_record(schemas)) + "\n"
    for generator in (["--generator", "oracle"], ["--generator", "noisy", "--seed", "1"],
                      ["--generator-cmd", f"{sys.executable} {gen}"]):
        proc = run_cli(["simulate", *schema_flag, *generator, flag, value], stdin=record)
        assert proc.returncode == 2
        assert proc.stdout == "" and f"{flag} must be {_RANGES[flag]}" in proc.stderr
    assert not started.exists()


@pytest.mark.parametrize("command", ["eval", "synth"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_a_usage_error(schema_flag, command, workers):
    beam = build_mock_beams()[0]
    stdin = beam.to_json() if command == "synth" else json.dumps(
        {"db_id": beam.db_id, "gold": beam.gold_sql, "pred": beam.beam[0][0]})
    proc = run_cli([command, *schema_flag, "--workers", workers], stdin=stdin + "\n")
    assert proc.returncode == 2
    assert proc.stdout == "" and "--workers must be at least 1" in proc.stderr


def test_simulate_noisy_requires_seed(schema_flag):
    proc = run_cli(["simulate", *schema_flag, "--generator", "noisy"], stdin="")
    assert proc.returncode == 2


def test_build_dev_negative_count_is_a_domain_error(schema_flag, schemas, tmp_path):
    proc = run_cli(["build-dev", "--n-dbs", "-1", "--seed", "1",
                    "--train-out", str(tmp_path / "train.jsonl"),
                    "--dev-out", str(tmp_path / "dev.jsonl")],
                   stdin=json.dumps(_a_record(schemas)) + "\n")
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot sample -1 databases from 1\n"


def test_build_dev_requires_seed():
    proc = run_cli(["build-dev", "--n-dbs", "1",
                    "--train-out", "/tmp/x", "--dev-out", "/tmp/y"], stdin="")
    assert proc.returncode == 2


def test_synth_workers_preserve_order(schema_flag):
    beams = "\n".join(o.to_json() for o in build_mock_beams())
    seq = run_cli(["synth", *schema_flag,
                   "--query-rep", "pydict", "--edit-rep", "program"], stdin=beams)
    par = run_cli(["synth", *schema_flag, "--workers", "3",
                   "--query-rep", "pydict", "--edit-rep", "program"], stdin=beams)
    assert seq.returncode == par.returncode == 0
    assert seq.stdout == par.stdout


@pytest.mark.parametrize("query_rep,edit_rep,valid", [
    ("sql", "program", "pydict"), ("pydict", "token", "sql")])
def test_synth_rejects_inconsistent_reps(schema_flag, query_rep, edit_rep, valid):
    proc = run_cli(["synth", *schema_flag,
                    "--query-rep", query_rep, "--edit-rep", edit_rep], stdin="")
    assert proc.returncode == 2
    assert f"{edit_rep} edits require the {valid} query representation" in proc.stderr


def test_synth_program_only_needs_program_edits_before_input(schema_flag):
    proc = run_cli(["synth", *schema_flag, "--program-only",
                    "--query-rep", "pydict", "--edit-rep", "clause"], stdin="")
    assert proc.returncode == 2
    assert "--program-only requires --edit-rep program" in proc.stderr


@pytest.mark.parametrize("workers", ["1", "2"])
def test_synth_unknown_db_id_names_line(schema_flag, schemas, workers):
    beam = build_mock_beams()[0]
    lines = [beam.to_json(), "", json.dumps({**json.loads(beam.to_json()), "db_id": "nope"})]
    proc = run_cli(["synth", *schema_flag, "--workers", workers,
                    "--query-rep", "pydict", "--edit-rep", "program"],
                   stdin="\n".join(lines))
    records = synthesize_train([beam], schemas, reps=[("pydict", "program")])
    assert proc.returncode == 1
    assert proc.stdout == "".join(r.to_json() + "\n" for r in records)
    assert proc.stderr.startswith("error: line 3: ")
    assert "'nope'" in proc.stderr and "Traceback" not in proc.stderr


_ALL_GRANULARITIES = "'token', 'clause-sql', 'clause-pydict', 'program'"
_NO_SCHEMA = ["--schema", "/nonexistent/tables.json"]


@pytest.mark.parametrize("args,valid", [
    (["diff", *_NO_SCHEMA, "--db-id", "social", "--wrong", "/dev/null", "--gold", "/dev/null",
      "--granularity", "nonsense"], _ALL_GRANULARITIES),
    (["apply", *_NO_SCHEMA, "--wrong", "/dev/null", "--edits", "/dev/null",
      "--granularity", "nonsense"], _ALL_GRANULARITIES),
    (["render-edits", "--granularity", "program"], "'token', 'clause-sql', 'clause-pydict'"),
    (["synth", *_NO_SCHEMA, "--query-rep", "nonsense"], "'sql', 'pydict'"),
    (["synth", *_NO_SCHEMA, "--edit-rep", "nonsense"], "'token', 'clause', 'program'"),
    (["synth", *_NO_SCHEMA, "--policy", "nonsense"], "'either', 'both'")],
    ids=["diff", "apply", "render-edits", "query-rep", "edit-rep", "policy"])
def test_usage_error_exit_code(args, valid):
    """An unknown name for a table flag is refused, with the valid names,
    before the schema or any input is read."""
    proc = run_cli(args, stdin="not json\n")
    assert proc.returncode == 2 and proc.stdout == ""
    assert (f"sqlpatch {args[0]}: error: argument {args[-2]}: invalid choice: "
            f"{args[-1]!r} (choose from {valid})") in proc.stderr


def _nested(levels: int) -> str:
    sql = "select tweets.id from tweets"
    for _ in range(levels):
        sql = f"select tweets.id from tweets where tweets.id in ({sql})"
    return sql


@pytest.mark.parametrize("args", [["normalize", "--db-id", "social"], ["eval"],
                                  ["eval", "--workers", "2"]])
def test_input_nested_too_deeply_is_a_domain_error(schema_flag, args):
    """A query nested past Python's recursion limit ends the command with
    status 1 and a message, which names the line of a JSONL input."""
    deep = _nested(400)
    if args[0] == "normalize":
        stdin, where = deep, ""
    else:
        good = {"db_id": "social", "gold": _nested(2), "pred": _nested(2)}
        stdin = "".join(json.dumps(line) + "\n"
                        for line in (good, {**good, "pred": deep}, good))
        where = "line 2: "
    proc = run_cli([args[0], *schema_flag, *args[1:]], stdin=stdin)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {where}input nested too deeply\n"


def test_domain_error_exit_code(schema_flag):
    proc = run_cli(["normalize", *schema_flag, "--db-id", "social"],
                   stdin="select tweets.nope from tweets")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_missing_subcommand_exits_2():
    proc = run_cli([])
    assert proc.returncode == 2


# Modules that only the process pool (workers > 1 on two or more lines),
# the oracle generator's seed (hashlib, which loads OpenSSL) and an external
# generator (subprocess) need; every other command starts without them.
_ON_DEMAND = {"concurrent.futures.process", "multiprocessing", "subprocess", "hashlib",
              "_hashlib"}
# Modules that no command loads: the nodes and records are plain classes, so
# nothing generates code (dataclasses, which imports inspect) at start-up.
_NEVER = {"dataclasses", "inspect"}


def loaded_modules(args, stdin, tmp_path):
    """The names in sys.modules after a CLI run in a fresh interpreter."""
    out = tmp_path / "modules.json"
    probe = ("import json, sys\n"
             "from sqlpatch.cli import main\n"
             "status = main(sys.argv[2:])\n"
             "with open(sys.argv[1], 'w') as fh:\n"
             "    json.dump(sorted(sys.modules), fh)\n"
             "sys.exit(status)\n")
    proc = subprocess.run([sys.executable, "-c", probe, str(out), *args], input=stdin,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout or not stdin
    return set(json.loads(out.read_text(encoding="utf-8")))


def test_commands_start_without_the_pool_subprocess_or_openssl(
        schema_flag, schemas, db_dir, tmp_path):
    eval_lines = "\n".join(json.dumps({"db_id": o.db_id, "gold": o.gold_sql, "pred": sql})
                           for o in build_mock_beams()[:2] for sql, _ in o.beam[:2])
    beams = "\n".join(o.to_json() for o in build_mock_beams()[:2])
    db = ["--db-dir", str(db_dir)]
    runs = [(["eval", *schema_flag, *db], eval_lines),
            (["synth", *schema_flag, *db], beams),
            (["synth", *schema_flag], beams),
            (["synth", *schema_flag, "--workers", "2"], ""),
            (["synth", *schema_flag, "--workers", "2"], beams.splitlines()[0]),
            (["normalize", *schema_flag, "--db-id", "social"],
             "SELECT T1.text FROM tweets AS T1")]
    for args, stdin in runs:
        assert loaded_modules(args, stdin, tmp_path) & (_ON_DEMAND | _NEVER) == set(), args
    record = json.dumps(_a_record(schemas)) + "\n"
    simulate = loaded_modules(["simulate", *schema_flag, "--generator", "oracle"], record,
                              tmp_path)
    assert simulate & _NEVER == set()


def test_the_pool_and_generators_load_what_they_use(schema_flag, schemas, tmp_path):
    beams = "\n".join(o.to_json() for o in build_mock_beams()[:2])
    assert "concurrent.futures.process" in loaded_modules(
        ["synth", *schema_flag, "--workers", "2"], beams, tmp_path)
    record = json.dumps(_a_record(schemas)) + "\n"
    assert "hashlib" in loaded_modules(
        ["simulate", *schema_flag, "--generator", "oracle"], record, tmp_path)
    gen = tmp_path / "gen.py"
    gen.write_text("for request in open(0):\n"
                   "    print('{\"candidates\": []}', flush=True)\n", encoding="utf-8")
    assert "subprocess" in loaded_modules(
        ["simulate", *schema_flag, "--generator-cmd", f"{sys.executable} {gen}"],
        record, tmp_path)


# The modules that synthesis and the simulated interaction run, and that
# scoring, normalizing and the McNemar test do not.
_SYNTHESIS = {f"sqlpatch.{name}" for name in (
    "dataset", "clausemap", "diffs", "editscript", "program", "pydict", "vm", "interact")}
# The modules that scoring and the McNemar test run, and that the commands
# over single queries and edit texts do not.
_SCORING = {"sqlpatch.metrics", "sqlite3"}


def test_commands_load_only_the_modules_they_run(schema_flag, db_dir, tmp_path):
    beams = build_mock_beams()[:2]
    eval_lines = "\n".join(json.dumps({"db_id": o.db_id, "gold": o.gold_sql, "pred": sql})
                           for o in beams for sql, _ in o.beam[:2])
    runs = [(["eval", *schema_flag, "--db-dir", str(db_dir)], eval_lines),
            (["normalize", *schema_flag, "--db-id", "social"],
             "SELECT T1.text FROM tweets AS T1"),
            (["mcnemar"], json.dumps({"a": True, "b": False}))]
    for args, stdin in runs:
        assert loaded_modules(args, stdin, tmp_path) & _SYNTHESIS == set(), args
    synth = loaded_modules(["synth", *schema_flag], "\n".join(o.to_json() for o in beams),
                           tmp_path)
    assert synth & _SYNTHESIS == _SYNTHESIS - {"sqlpatch.interact"}
    assert loaded_modules(*runs[0], tmp_path) >= _SCORING
    action = json.dumps({"kind": "replace", "old": "order by tweets.text",
                         "new": "order by tweets.createdate"})
    pydict = 'sql = {"select": "select tweets.text", "from": "from tweets"}'
    for args, stdin in [runs[1], (["pydict", *schema_flag, "--db-id", "social"], runs[1][1]),
                        (["to-sql"], pydict),
                        (["render-edits", "--granularity", "clause-sql"], action)]:
        assert loaded_modules(args, stdin, tmp_path) & _SCORING == set(), args


@pytest.mark.parametrize("args", [["synth"], ["synth", "--workers", "2"],
                                  ["simulate", "--generator", "oracle"]])
def test_a_reader_that_closes_stdout_ends_the_command_quietly(
        schema_flag, schemas, tmp_path, args):
    """Output to a pipe whose reader has gone ends the command with status 1,
    no traceback and no pool worker left running."""
    beams = build_mock_beams()
    if args[0] == "synth":
        stdin = "\n".join(o.to_json() for o in beams)
    else:
        stdin = "".join(r.to_json() + "\n" for r in synthesize_train(beams, schemas))
    out = tmp_path / "children.json"
    probe = ("import json, multiprocessing, sys\n"
             "from sqlpatch.cli import main\n"
             "status = main(sys.argv[2:])\n"
             "with open(sys.argv[1], 'w') as fh:\n"
             "    json.dump(len(multiprocessing.active_children()), fh)\n"
             "sys.exit(status)\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-c", probe, str(out), args[0], *schema_flag,
                               *args[1:]], input=stdin, stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert json.loads(out.read_text(encoding="utf-8")) == 0


def _mark_line(directory, line):
    """A per-line function that leaves one file for each line it runs; the
    lines after the first 40 take 5 ms each."""
    if line == "bad":
        raise SqlPatchError("a bad line")
    time.sleep(0.005 if int(line) >= 40 else 0)
    (Path(directory) / line).touch()
    return line


def test_a_failing_line_stops_the_pool(tmp_path):
    """When a line fails, no chunk after its window runs. The pool takes
    chunks of _CHUNK lines, at most _WINDOW per worker at a time, and the
    next goes out only once the oldest one's results are checked; the first
    chunk here holds the failing line, so only the first 2 * _WINDOW chunks
    run."""
    lines = ["0", "bad", *map(str, range(2, 320))]
    source = tmp_path / "lines.txt"
    source.write_text("\n".join(lines), encoding="utf-8")
    ran = tmp_path / "ran"
    ran.mkdir()
    with pytest.raises(SqlPatchError, match="^line 2: a bad line$"):
        list(_map_lines(partial(_mark_line, ran), str(source), workers=2))
    assert (ran / "0").exists()
    assert not any((ran / str(n)).exists() for n in range(280, 320))
    assert not any((ran / str(n)).exists() for n in range(2 * _WINDOW * _CHUNK, 320))


def _first_line_while_input_open(args, stdin):
    """The first stdout line of the CLI given stdin on a pipe that it is
    left to wait on, or None if none comes within a minute, and whether the
    command was still running then. Stdout is left buffered, as it is by
    default, so only the command's own flushes make output appear."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(CLI + args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)
    lines = queue.Queue()

    def read():
        lines.put(proc.stdout.readline())
        proc.stdout.read()  # drained, so the command never waits to write

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        proc.stdin.write(stdin)
        proc.stdin.flush()
        try:
            first = lines.get(timeout=60)
        except queue.Empty:
            first = None
        return first, proc.poll() is None
    finally:
        proc.stdin.close()
        reader.join(timeout=60)
        proc.wait(timeout=60)
        proc.stdout.close()
        proc.stderr.close()


def test_eval_prints_each_outcome_before_reading_the_next_line(schema_flag):
    line = json.dumps(_GOOD_LINES["eval"]) + "\n"
    first, running = _first_line_while_input_open(["eval", *schema_flag], line * 2)
    assert (first, running) == ('{"em": true, "ex": null}\n', True)


def test_workers_print_a_chunk_while_the_input_is_still_open(schema_flag):
    """With two workers, the first chunk's records come out once the window
    of chunks is out, while the command waits for the rest of its input."""
    beams = [o.to_json() + "\n" for o in build_mock_beams()]
    stdin = "".join(beams[i % len(beams)] for i in range(2 * _WINDOW * _CHUNK + 1))
    serial = run_cli(["synth", *schema_flag], stdin=beams[0])
    assert serial.returncode == 0 and serial.stdout
    first, running = _first_line_while_input_open(["synth", *schema_flag, "--workers", "2"],
                                                  stdin)
    assert (first, running) == (serial.stdout.splitlines(keepends=True)[0], True)


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf-8", "output-dir-missing"])
def test_a_file_that_cannot_be_opened_or_decoded_is_a_domain_error(
        schema_flag, schemas, tmp_path, case):
    if case == "missing":
        path = tmp_path / "missing.sql"
        args, reason = ["normalize", *schema_flag, "--db-id", "social", str(path)], \
            "cannot read {}: No such file or directory"
    elif case == "directory":
        path = tmp_path
        args, reason = ["synth", *schema_flag, str(path)], "cannot read {}: Is a directory"
    elif case == "not-utf-8":
        path = tmp_path / "beams.jsonl"
        path.write_bytes(b"\xff\xfe" + build_mock_beams()[0].to_json().encode() + b"\n")
        args, reason = ["synth", *schema_flag, str(path)], \
            "cannot read {}: not UTF-8 (invalid start byte)"
    else:
        records = tmp_path / "records.jsonl"
        records.write_text("".join(r.to_json() + "\n"
                                   for r in synthesize_train(build_mock_beams(), schemas)),
                           encoding="utf-8")
        path = tmp_path / "no-such-dir" / "train.jsonl"
        args = ["build-dev", "--n-dbs", "1", "--seed", "1", "--train-out", str(path),
                "--dev-out", str(tmp_path / "dev.jsonl"), str(records)]
        reason = "cannot write {}: No such file or directory"
    proc = run_cli(args)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {reason.format(path)}\n"


def test_a_decode_error_after_printed_lines_keeps_them(schema_flag, tmp_path):
    """Lines decoded before the bad bytes have run and printed, as the lines
    before a failing line have."""
    line = json.dumps(_GOOD_LINES["eval"]) + "\n"
    path = tmp_path / "pairs.jsonl"
    path.write_bytes((line * 500).encode() + b"\xc3(\n" + line.encode())
    proc = run_cli(["eval", *schema_flag, str(path)])
    assert proc.returncode == 1
    assert proc.stderr == f"error: cannot read {path}: not UTF-8 (invalid continuation byte)\n"
    printed = proc.stdout.splitlines()
    assert 0 < len(printed) <= 500 and set(printed) == {'{"em": true, "ex": null}'}


@pytest.mark.parametrize("command", ["eval", "synth"])
@pytest.mark.parametrize("stdin", ["", "good", "bad"])
def test_workers_below_two_lines_print_the_serial_output(schema_flag, command, stdin):
    line = dict(_GOOD_LINES[command])
    if stdin == "bad":
        line["db_id"] = "nope"
    text = "" if stdin == "" else json.dumps(line) + "\n"
    seq = run_cli([command, *schema_flag, "--workers", "1"], stdin=text)
    par = run_cli([command, *schema_flag, "--workers", "2"], stdin=text)
    assert (par.returncode, par.stdout, par.stderr) == \
        (seq.returncode, seq.stdout, seq.stderr)
    if stdin == "bad":
        assert seq.returncode == 1
        assert seq.stderr.startswith("error: line 1: ") and "'nope'" in seq.stderr
    else:
        assert seq.returncode == 0 and bool(seq.stdout) == (stdin == "good")


def test_simulate_kills_a_generator_that_does_not_answer(
        tables_json_path, schemas, tmp_path, monkeypatch, capsys):
    import os

    from sqlpatch import interact
    from sqlpatch.cli import main

    monkeypatch.setattr(interact, "READ_WAIT_S", 0.2)
    gen, pid_file, records = tmp_path / "gen.py", tmp_path / "pid", tmp_path / "records.jsonl"
    gen.write_text("import os, sys, time\n"
                   "open(sys.argv[1], 'w').write(str(os.getpid()))\n"
                   "sys.stdin.readline()\n"
                   "time.sleep(60)\n", encoding="utf-8")
    records.write_text("\n" + json.dumps(_a_record(schemas)) + "\n", encoding="utf-8")
    status = main(["simulate", "--schema", str(tables_json_path), "--generator-cmd",
                   f"{sys.executable} {gen} {pid_file}", str(records)])
    assert status == 1
    assert capsys.readouterr().err == \
        "error: line 2: external generator did not answer within 0.2 s\n"
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(int(pid_file.read_text(encoding="utf-8")), 0)


def test_simulate_generator_that_closes_its_input_is_a_domain_error(
        schema_flag, schemas, tmp_path):
    # The generator closes its input before it answers the first request,
    # so the request for record 2 meets a closed pipe.
    gen = tmp_path / "gen.py"
    gen.write_text("import os, sys\n"
                   "sys.stdin.readline()\n"
                   "os.close(0)\n"
                   "print('{\"candidates\": []}', flush=True)\n", encoding="utf-8")
    record = json.dumps(_a_record(schemas)) + "\n"
    proc = run_cli(["simulate", *schema_flag, "--generator-cmd", f"{sys.executable} {gen}"],
                   stdin=record + record)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["fully_corrected"] is False
    assert proc.stderr == "error: line 2: external generator closed its input stream\n"
