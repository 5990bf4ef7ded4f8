import json
import subprocess
import sys

import pytest

from mockbeams import build_mock_beams
from paperdata import CASE_CARS, CASE_HR, CASE_TWEETS

from sqlpatch.dataset import synthesize_train

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


def test_exec_program(tmp_path):
    wrong = tmp_path / "w.sql"
    wrong.write_text(CASE_HR.wrong)
    program = tmp_path / "p.txt"
    program.write_text(CASE_HR.program)
    proc = run_cli(["exec-program", "--wrong", str(wrong), "--program", str(program)])
    assert proc.returncode == 0
    assert proc.stdout.strip() == CASE_HR.gold


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


def test_mcnemar_command():
    lines = [json.dumps({"a": True, "b": False})] * 5 + \
            [json.dumps({"a": False, "b": True})] * 15 + \
            [json.dumps({"a": True, "b": True})] * 10
    proc = run_cli(["mcnemar"], stdin="\n".join(lines))
    assert proc.returncode == 0
    result = json.loads(proc.stdout)
    assert result["b"] == 5 and result["c"] == 15
    assert abs(result["p"] - 0.04139) <= 1e-6


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


def test_simulate_noisy_requires_seed(schema_flag):
    proc = run_cli(["simulate", *schema_flag, "--generator", "noisy"], stdin="")
    assert proc.returncode == 2


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


def test_usage_error_exit_code():
    proc = run_cli(["diff", "--granularity", "nonsense",
                    "--wrong", "/dev/null", "--gold", "/dev/null"])
    assert proc.returncode == 2


def test_domain_error_exit_code(schema_flag):
    proc = run_cli(["normalize", *schema_flag, "--db-id", "social"],
                   stdin="select tweets.nope from tweets")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_missing_subcommand_exits_2():
    proc = run_cli([])
    assert proc.returncode == 2
