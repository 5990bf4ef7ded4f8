import json
import signal
import sys
import textwrap
import time
from collections import Counter

import pytest

from paperdata import CASE_CARS, CASE_HR, CASE_TWEETS, CASES

from sqlpatch.clausemap import decompose, sql_to_clause_map, to_sql
from sqlpatch import clausemap, interact
from sqlpatch.dataset import ExampleRecord
from sqlpatch.diffs import diff_clauses_sql, diff_program
from sqlpatch.errors import SqlPatchError
from sqlpatch.interact import (
    Candidate, OracleGenerator, SubprocessGenerator, execute_selected,
    gold_action_strings, simulate,
)
from sqlpatch.parse import parse_sql
from sqlpatch.program import EditProgram, parse_program
from sqlpatch.vm import exec_program


def record_for(case, schemas):
    schema = schemas[case.db_id]
    return ExampleRecord(
        db_id=case.db_id, question="q", schema_serial=schema.serialize(),
        wrong_sql=case.wrong, gold_sql=case.gold,
        query_rep="pydict", edit_rep="program",
        x="q | " + schema.serialize() + " | " + case.pydict_wrong,
        y=case.program, n_edits=case.program.count("\n") + 1,
        beam_rank=0, beam_score=1.0)


def test_a_clause_sql_replay_tokenizes_each_content_text_once_per_parse(schemas, monkeypatch):
    """execute_selected reads an action's old side (its new side, for an
    insert) once to order it and each side once to apply it; each read is
    one token pass over the text."""
    case = CASE_CARS
    schema = schemas[case.db_id]
    script = diff_clauses_sql(parse_sql(case.wrong, schema), parse_sql(case.gold, schema))
    record = ExampleRecord(
        db_id=case.db_id, question="q", schema_serial=schema.serialize(),
        wrong_sql=case.wrong, gold_sql=case.gold, query_rep="sql", edit_rep="clause",
        x="", y="", n_edits=len(script.actions), beam_rank=0, beam_score=1.0)
    expected = Counter({case.wrong: 1})
    for action in script.actions:
        expected.update(text for text in (action.old or action.new, action.old, action.new)
                        if text)
    assert {action.kind for action in script.actions} == {"replace", "insert"}
    texts = []
    tokenize = clausemap.tokenize
    monkeypatch.setattr(clausemap, "tokenize", lambda text: texts.append(text) or tokenize(text))
    assert execute_selected(record, gold_action_strings(script)) == case.gold
    assert Counter(texts) == expected


def gold_program(case, schemas):
    schema = schemas[case.db_id]
    return diff_program(decompose(parse_sql(case.wrong, schema)),
                        decompose(parse_sql(case.gold, schema)))


def test_pure_oracle_fully_corrects(schemas):
    for case in CASES:
        record = record_for(case, schemas)
        gold = gold_program(case, schemas)
        log = simulate(record, gold, OracleGenerator(gold), beam_size=3)
        assert log.fully_corrected
        assert log.result_sql == case.gold
        assert log.selected == gold_action_strings(gold)


def test_adversarial_oracle_leaves_input_unchanged(schemas):
    for case in CASES:
        record = record_for(case, schemas)
        gold = gold_program(case, schemas)
        log = simulate(record, gold,
                       OracleGenerator(gold, distractor_rate=1.0), beam_size=3)
        assert not log.fully_corrected
        assert log.selected == []
        assert log.result_sql == case.wrong


def test_noisy_oracle_still_corrects(schemas):
    for seed in range(5):
        for case in CASES:
            record = record_for(case, schemas)
            gold = gold_program(case, schemas)
            generator = OracleGenerator(gold, distractor_rate=0.5, shuffle_seed=seed)
            log = simulate(record, gold, generator, beam_size=3)
            assert log.fully_corrected, (case.db_id, seed)


def test_noisy_oracle_deterministic(schemas):
    record = record_for(CASE_CARS, schemas)
    gold = gold_program(CASE_CARS, schemas)
    runs = [simulate(record, gold,
                     OracleGenerator(gold, distractor_rate=0.7, shuffle_seed=9),
                     beam_size=3).to_json() for _ in range(2)]
    assert runs[0] == runs[1]


def test_result_always_from_execution(schemas):
    """Candidates advertise a bogus final query; the session result must come
    from executing the selected actions, never from the candidate."""

    class LyingOracle(OracleGenerator):
        def propose(self, x, prefix, beam_size):
            out = []
            for cand in super().propose(x, prefix, beam_size):
                out.append(Candidate(cand.actions, "select 1 from nowhere"))
            return out

    record = record_for(CASE_HR, schemas)
    gold = gold_program(CASE_HR, schemas)
    log = simulate(record, gold, LyingOracle(gold), beam_size=3)
    assert log.fully_corrected
    assert log.result_sql == CASE_HR.gold


def test_selected_actions_executed_independently(schemas):
    record = record_for(CASE_CARS, schemas)
    gold = gold_program(CASE_CARS, schemas)
    log = simulate(record, gold, OracleGenerator(gold), beam_size=3)
    stmts = []
    for line in log.selected:
        stmts.extend(parse_program(line).stmts)
    replayed = to_sql(exec_program(sql_to_clause_map(record.wrong_sql),
                                   EditProgram(tuple(stmts))))
    assert replayed == log.result_sql


def test_out_of_order_selection_reordered(schemas):
    record = record_for(CASE_HR, schemas)
    gold = gold_action_strings(gold_program(CASE_HR, schemas))
    shuffled = list(reversed(gold))
    assert execute_selected(record, shuffled) == CASE_HR.gold


def test_skip_probes_deeper_positions(schemas):
    """Gold actions hidden at later positions are still found."""
    record = record_for(CASE_CARS, schemas)
    gold = gold_program(CASE_CARS, schemas)
    gold_strings = gold_action_strings(gold)

    class BuriedOracle:
        def propose(self, x, prefix, beam_size):
            remaining = [a for a in gold_strings if a not in prefix]
            junk = ['sql["limit"] = "limit 990"', 'sql["limit"] = "limit 991"']
            return [Candidate(tuple(junk + remaining), "")]

    log = simulate(record, gold, BuriedOracle(), beam_size=3)
    assert log.fully_corrected
    assert all(step.depth >= 3 for step in log.steps)


def test_monotone_progress_and_termination(schemas):
    record = record_for(CASE_CARS, schemas)
    gold = gold_program(CASE_CARS, schemas)
    log = simulate(record, gold, OracleGenerator(gold, distractor_rate=0.6,
                                                 shuffle_seed=1), beam_size=3)
    assert len(log.steps) <= len(gold.stmts) + 1
    assert len(log.selected) == len(gold.stmts)


def test_clause_granularity_sessions(schemas):
    from sqlpatch.diffs import diff_clauses_pydict

    case = CASE_TWEETS
    schema = schemas[case.db_id]
    script = diff_clauses_pydict(decompose(parse_sql(case.wrong, schema)),
                                 decompose(parse_sql(case.gold, schema)))
    record = ExampleRecord(
        db_id=case.db_id, question="q", schema_serial=schema.serialize(),
        wrong_sql=case.wrong, gold_sql=case.gold,
        query_rep="pydict", edit_rep="clause",
        x="x", y="y", n_edits=len(script), beam_rank=0, beam_score=1.0)
    log = simulate(record, script, OracleGenerator(script), beam_size=3)
    assert log.fully_corrected


def test_session_log_json(schemas):
    record = record_for(CASE_TWEETS, schemas)
    gold = gold_program(CASE_TWEETS, schemas)
    log = simulate(record, gold, OracleGenerator(gold), beam_size=3)
    parsed = json.loads(log.to_json())
    assert parsed["fully_corrected"] is True
    assert parsed["selected"] == log.selected
    assert parsed["steps"][0]["selected"] == log.selected[0]


def test_subprocess_generator_wire_protocol(tmp_path, schemas):
    """Drive a session against an external generator speaking the JSONL
    protocol over stdio."""
    record = record_for(CASE_HR, schemas)
    gold = gold_action_strings(gold_program(CASE_HR, schemas))
    script_path = tmp_path / "gen.py"
    script_path.write_text(textwrap.dedent("""
        import json, sys
        gold = json.loads(sys.argv[1])
        for line in sys.stdin:
            req = json.loads(line)
            remaining = list(gold)
            for p in req["prefix"]:
                if p in remaining:
                    remaining.remove(p)
            resp = {"candidates": [{"actions": remaining, "final_query": ""}]}
            sys.stdout.write(json.dumps(resp) + "\\n")
            sys.stdout.flush()
    """), encoding="utf-8")
    with SubprocessGenerator([sys.executable, str(script_path),
                              json.dumps(gold)]) as generator:
        log = simulate(record, gold, generator, beam_size=3)
    assert log.fully_corrected
    assert log.result_sql == CASE_HR.gold


def test_subprocess_generator_that_cannot_start_is_a_domain_error(tmp_path):
    with pytest.raises(SqlPatchError, match="cannot start external generator"):
        SubprocessGenerator([str(tmp_path / "no-such-generator")])


def test_subprocess_generator_running_past_its_input_is_killed(monkeypatch):
    monkeypatch.setattr(interact, "EXIT_WAIT_S", 0.2)
    generator = SubprocessGenerator(
        [sys.executable, "-c", "import sys, time; sys.stdin.read(); time.sleep(60)"])
    with pytest.raises(SqlPatchError, match="still running"):
        generator.close()
    assert generator.proc.returncode == -signal.SIGKILL  # killed and reaped


# a generator that reads its request and never answers, and one that never
# reads a request larger than the pipe buffer
@pytest.mark.parametrize("child,x", [
    ("import sys, time; sys.stdin.readline(); time.sleep(60)", "x"),
    ("import time; time.sleep(60)", "x" * 1_000_000)], ids=["answer", "request"])
def test_subprocess_generator_that_does_not_answer_is_killed(monkeypatch, child, x):
    monkeypatch.setattr(interact, "READ_WAIT_S", 0.2)
    generator = SubprocessGenerator([sys.executable, "-c", child])
    start = time.monotonic()
    with pytest.raises(SqlPatchError, match=r"did not answer within 0\.2 s"):
        generator.propose(x, [], 1)
    assert time.monotonic() - start < 5
    assert generator.proc.returncode == -signal.SIGKILL  # killed and reaped
    generator.close()


def _replying(*pieces: bytes):
    """A generator that, after its first request, writes each piece with a
    pause between, then closes its output and exits at end of input."""
    script = ("import os, sys, time\n"
              "sys.stdin.readline()\n"
              f"for piece in {list(pieces)!r}:\n"
              "    sys.stdout.buffer.write(piece)\n"
              "    sys.stdout.buffer.flush()\n"
              "    time.sleep(0.05)\n"
              "os.close(1)\n"
              "sys.stdin.read()\n")
    return SubprocessGenerator([sys.executable, "-c", script])


def test_subprocess_generator_reads_a_response_sent_in_pieces():
    response = json.dumps({"candidates": [{"actions": ["<Insert> 'café' <InsertEnd>"],
                                           "final_query": "naïve ü"}]},
                          ensure_ascii=False).encode("utf-8") + b"\n"
    cut = response.index("é".encode("utf-8")) + 1  # inside the two bytes of é
    with _replying(response[:5], response[5:cut], response[cut:]) as generator:
        assert generator.propose("x", [], 1) == \
            [Candidate(("<Insert> 'café' <InsertEnd>",), "naïve ü")]


def test_subprocess_generator_keeps_bytes_past_a_line_for_the_next_call():
    with _replying(b'{"candidates": []}\n{"candidates": [{"actions": ["a"]}]}\n') \
            as generator:
        assert generator.propose("x", [], 1) == []
        assert generator.propose("x", ["b"], 1) == [Candidate(("a",), "")]


def test_subprocess_generator_reads_a_last_line_without_a_line_feed():
    with _replying(b'{"candidates": [{"actions": ["a"]}]}') as generator:
        assert generator.propose("x", [], 1) == [Candidate(("a",), "")]
        with pytest.raises(SqlPatchError, match="closed its output stream"):
            generator.propose("x", ["a"], 1)


def test_subprocess_generator_that_writes_nothing_closed_its_output():
    with _replying() as generator:
        with pytest.raises(SqlPatchError, match="closed its output stream"):
            generator.propose("x", [], 1)


def test_subprocess_generator_response_that_is_not_utf8_is_a_domain_error():
    with _replying(b'{"candidates": ["\xff"]}\n') as generator:
        with pytest.raises(SqlPatchError, match="external generator response: 'utf-8' codec"):
            generator.propose("x", [], 1)

