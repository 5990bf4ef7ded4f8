from collections import Counter

import pytest

from mockbeams import QUESTIONS_PER_DB, build_mock_beams

from sqlpatch import dataset, diffs
from sqlpatch.clausemap import sql_to_clause_map, to_sql
from sqlpatch.dataset import (
    REP_COMBOS, Y_SEPARATOR, ExampleRecord, ParserOutput, build_dev_set,
    dataset_stats, make_record, split_folds, synthesize_train,
)
from sqlpatch.editscript import parse_edits
from sqlpatch.errors import (
    BackendUnavailable, DatasetError, ExecutionError, SchemaError, SqlPatchError,
)
from sqlpatch.metrics import SqliteBackend
from sqlpatch.parse import parse_sql
from sqlpatch.program import parse_program
from sqlpatch.vm import apply_clause_edits, apply_token_edits, exec_program


def _dummy_outputs(sizes):
    outputs = []
    for db, count in sizes.items():
        for i in range(count):
            outputs.append(ParserOutput(db, f"q{i}", "select 1", (("select 1", 1.0),)))
    return outputs


# ---------------------------------------------------------------------------
# Fold splitting


def test_uniform_folds():
    outputs = _dummy_outputs({f"db{i}": 4 for i in range(10)})
    folds = split_folds(outputs, 5)
    assert [len(f) for f in folds] == [8] * 5
    db_sets = [{o.db_id for o in fold} for fold in folds]
    assert all(len(s) == 2 for s in db_sets)


def test_greedy_matches_brute_force():
    """Brute force over all db->fold assignments of sizes [10,9,1,1,1] into
    two folds shows the minimal max-fold-size is 11, reached only by pairing
    the 10 with one singleton and the 9 with the other two; the greedy split
    must land on that shape."""
    sizes = {"a": 10, "b": 9, "c": 1, "d": 1, "e": 1}
    from itertools import product
    best = min(max(sum(n for (db, n), f in zip(sizes.items(), combo) if f == 0),
                   sum(n for (db, n), f in zip(sizes.items(), combo) if f == 1))
               for combo in product((0, 1), repeat=5)
               if len({f for f in combo}) == 2)
    assert best == 11
    folds = split_folds(_dummy_outputs(sizes), 2)
    assert sorted(len(f) for f in folds) == [11, 11]
    by_db = [sorted({o.db_id for o in f}) for f in folds]
    with_a = next(dbs for dbs in by_db if "a" in dbs)
    with_b = next(dbs for dbs in by_db if "b" in dbs)
    assert len(with_a) == 2 and len(with_b) == 3  # {10,1} and {9,1,1}


def test_fold_partition_properties():
    sizes = {f"db{i}": (i * 7) % 13 + 1 for i in range(17)}
    outputs = _dummy_outputs(sizes)
    folds = split_folds(outputs, 5)
    seen = [o for fold in folds for o in fold]
    assert sorted(id(o) for o in seen) == sorted(id(o) for o in outputs)
    for db in sizes:
        hosts = [i for i, fold in enumerate(folds) if any(o.db_id == db for o in fold)]
        assert len(hosts) == 1


def test_too_few_databases():
    with pytest.raises(DatasetError, match="distinct databases"):
        split_folds(_dummy_outputs({"a": 3, "b": 2}), 5)


def test_fold_determinism():
    sizes = {f"db{i}": (i * 3) % 7 + 1 for i in range(12)}
    a = split_folds(_dummy_outputs(sizes), 4)
    b = split_folds(_dummy_outputs(sizes), 4)
    assert [[o.db_id for o in fold] for fold in a] == \
        [[o.db_id for o in fold] for fold in b]


# ---------------------------------------------------------------------------
# Synthesis


def test_synthesis_counts_without_backend(schemas):
    records = synthesize_train(build_mock_beams(), schemas,
                               reps=[("pydict", "program")])
    # ranks 2 and 4 are wrong by set match; gold and its permutation never appear
    assert len(records) == 3 * QUESTIONS_PER_DB * 2
    assert all(r.edit_rep == "program" for r in records)


def test_synthesis_counts_with_backend(schemas, db_dir):
    backend = SqliteBackend(db_dir)
    either = synthesize_train(build_mock_beams(), schemas, backend=backend,
                              policy="either", reps=[("pydict", "program")])
    both = synthesize_train(build_mock_beams(), schemas, backend=backend,
                            policy="both", reps=[("pydict", "program")])
    assert len(either) == 3 * QUESTIONS_PER_DB * 2
    assert len(both) == 3 * QUESTIONS_PER_DB * 1


class _LoggingBackend:
    """Passes every query on to a backend and logs it."""

    def __init__(self, backend):
        self.backend = backend
        self.calls = []

    def execute(self, sql, db_id):
        self.calls.append((db_id, sql))
        return self.backend.execute(sql, db_id)


@pytest.mark.parametrize("policy", ["either", "both"])
def test_synthesis_runs_each_query_once_per_question(schemas, db_dir, policy):
    logged = _LoggingBackend(SqliteBackend(db_dir))
    records = []
    for output in build_mock_beams():
        logged.calls.clear()
        records += synthesize_train([output], schemas, backend=logged, policy=policy)
        assert max(Counter(logged.calls).values()) == 1
    assert records


class _StubBackend:
    """Logs every query; raises what raises maps its text to, else returns
    one row that every query shares."""

    def __init__(self, raises=None):
        self.raises = raises or {}
        self.calls = []

    def execute(self, sql, db_id):
        self.calls.append(sql)
        if sql in self.raises:
            raise self.raises[sql]
        return [(1,)]


_GOLD = "select tweets.id from tweets"
_WRONG = ("select tweets.uid from tweets", "select tweets.text from tweets")


def _stub_output(*beam):
    return ParserOutput("social", "q", _GOLD, tuple((sql, 0.9 - i / 10)
                                                    for i, sql in enumerate(beam)))


def test_synthesis_runs_a_rejected_gold_once_and_scores_no_entry_ex(schemas):
    stub = _StubBackend({_GOLD: ExecutionError("no such column")})
    records = synthesize_train([_stub_output(*_WRONG)], schemas, backend=stub,
                               policy="both", reps=[("sql", "clause")])
    # every row matches, so a gold that ran would make both entries correct
    assert [r.wrong_sql for r in records] == list(_WRONG)
    assert Counter(stub.calls) == {_GOLD: 1, _WRONG[0]: 1, _WRONG[1]: 1}


def test_synthesis_lets_an_unavailable_backend_raise(schemas):
    stub = _StubBackend({_WRONG[0]: BackendUnavailable("no database")})
    with pytest.raises(BackendUnavailable):
        synthesize_train([_stub_output(*_WRONG)], schemas, backend=stub)


def test_synthesis_never_runs_a_beam_entry_equal_to_the_gold(schemas):
    stub = _StubBackend()
    assert synthesize_train([_stub_output("SELECT id FROM tweets")], schemas,
                            backend=stub) == []
    assert stub.calls == []
    records = synthesize_train([_stub_output("SELECT id FROM tweets", _WRONG[0])], schemas,
                               backend=stub, reps=[("sql", "clause")])
    assert [r.beam_rank for r in records] == [1]
    assert stub.calls == [_WRONG[0], _GOLD]


def test_correct_parses_never_enter(schemas):
    records = synthesize_train(build_mock_beams(), schemas,
                               reps=[("sql", "clause")])
    for record in records:
        assert record.wrong_sql != record.gold_sql


def test_ungrammatical_dropped(schemas):
    records = synthesize_train(build_mock_beams(), schemas, reps=REP_COMBOS)
    assert all("select from where" not in r.wrong_sql for r in records)


def test_beam_rank_and_score_recorded(schemas):
    records = synthesize_train(build_mock_beams(), schemas,
                               reps=[("pydict", "program")])
    ranks = {r.beam_rank for r in records}
    assert ranks == {2, 4}
    assert all(r.beam_score in (0.7, 0.5) for r in records)


def test_beam_dedup(schemas):
    output = ParserOutput("social", "q", "select tweets.id from tweets", (
        ("select tweets.uid from tweets", 0.9),
        ("SELECT tweets.uid FROM tweets", 0.8),  # same after normalization
        ("select tweets.text from tweets", 0.7),
    ))
    records = synthesize_train([output], schemas, reps=[("pydict", "program")])
    assert len(records) == 2
    assert {r.beam_rank for r in records} == {0, 2}


def test_missing_schema(schemas):
    output = ParserOutput("unknown_db", "q", "select 1", (("select 1", 1.0),))
    with pytest.raises(SchemaError, match="db_id 'unknown_db' not present in the schema file"):
        synthesize_train([output], schemas)


def test_records_apply_back_to_gold(schemas):
    """The serialized edits of every record rebuild its gold query."""
    records = synthesize_train(build_mock_beams(), schemas, reps=REP_COMBOS)
    assert records
    for record in records:
        edits = record.y.split(Y_SEPARATOR, 1)[0]
        if record.edit_rep == "program":
            result = to_sql(exec_program(sql_to_clause_map(record.wrong_sql),
                                         parse_program(edits)))
        elif record.edit_rep == "token":
            result = apply_token_edits(
                record.wrong_sql, parse_edits(edits, "token")).result
        else:
            granularity = "clause-sql" if record.query_rep == "sql" else "clause-pydict"
            result = to_sql(apply_clause_edits(sql_to_clause_map(record.wrong_sql),
                                               parse_edits(edits, granularity)))
        assert result == record.gold_sql, (record.edit_rep, record.wrong_sql)


def test_x_and_y_shapes(schemas):
    records = synthesize_train(build_mock_beams(), schemas,
                               reps=[("pydict", "program")])
    record = records[0]
    assert record.x.startswith(record.question + " | " + record.db_id)
    assert record.schema_serial in record.x
    assert record.x.endswith('"}')  # the wrong query in dictionary form
    assert Y_SEPARATOR in record.y
    assert record.y.split(Y_SEPARATOR, 1)[0].startswith("sql")
    assert record.n_edits == len(parse_program(
        record.y.split(Y_SEPARATOR, 1)[0]).stmts)


def test_program_only_mode(schemas):
    records = synthesize_train(build_mock_beams(), schemas,
                               reps=[("pydict", "program")], program_only=True)
    assert all(Y_SEPARATOR not in r.y for r in records)


def test_invalid_rep_combo(schemas):
    with pytest.raises(DatasetError, match="pydict"):
        synthesize_train(build_mock_beams(), schemas, reps=[("sql", "program")])


def test_no_edit_pair_makes_no_record(schemas):
    sql = "select tweets.id from tweets"
    wrong = parse_sql(sql, schemas["social"])
    output = ParserOutput("social", "q", sql, ((sql, 1.0),))
    for query_rep, edit_rep in REP_COMBOS:
        assert make_record(output, 0, 1.0, schemas["social"], wrong, wrong,
                           query_rep, edit_rep) is None


@pytest.mark.parametrize("edit_rep", ["clause", "program"])
def test_pydict_record_decomposes_each_query_once(schemas, monkeypatch, edit_rep):
    calls = []
    for module in (dataset, diffs):
        real = module.decompose
        monkeypatch.setattr(module, "decompose",
                            lambda query, real=real: calls.append(query) or real(query))
    records = synthesize_train(build_mock_beams(), schemas, reps=[("pydict", edit_rep)])
    # each record's wrong query, and the gold of each question with a record
    assert records and len(calls) == len(records) + len({(r.db_id, r.question)
                                                         for r in records})


def test_pydict_records_render_each_query_text_once(schemas, monkeypatch):
    calls = []
    real = dataset.render_pydict
    monkeypatch.setattr(dataset, "render_pydict",
                        lambda cm, **kw: calls.append(cm) or real(cm, **kw))
    records = [r for r in synthesize_train(build_mock_beams(), schemas)
               if r.query_rep == "pydict"]
    # each wrong query with a pydict record, and the gold of each question with one
    assert records and len(calls) == (len({(r.db_id, r.question, r.beam_rank) for r in records})
                                      + len({(r.db_id, r.question) for r in records}))


def test_synthesis_renders_each_parsed_query_once(schemas, monkeypatch):
    calls = []
    real = dataset.render
    monkeypatch.setattr(dataset, "render", lambda query: calls.append(query) or real(query))
    outputs = build_mock_beams()
    records = synthesize_train(outputs, schemas)
    parsed = 0
    for output in outputs:
        for sql in (output.gold_sql, *(sql for sql, _ in output.beam)):
            try:
                parse_sql(sql, schemas[output.db_id])
            except SqlPatchError:
                continue
            parsed += 1
    assert records and len(calls) == parsed


def test_token_rep_y_prefix(schemas):
    records = synthesize_train(build_mock_beams(), schemas, reps=[("sql", "token")])
    sample = [r for r in records if r.db_id == "hr" and r.beam_rank == 2][0]
    assert sample.y.startswith("<ReplaceOld> ")


def test_fixture_pair_serializations(schemas):
    from paperdata import CASE_HR, CASE_TWEETS

    output = ParserOutput("social", "list the text of all tweets by date",
                          CASE_TWEETS.gold, ((CASE_TWEETS.wrong, 0.9),))
    records = synthesize_train([output], schemas, reps=[("pydict", "program")])
    assert len(records) == 1
    assert records[0].y.split(Y_SEPARATOR, 1)[0] == CASE_TWEETS.program

    output = ParserOutput("hr", "who got the highest one-time bonus",
                          CASE_HR.gold, ((CASE_HR.wrong, 0.9),))
    records = synthesize_train([output], schemas, reps=[("sql", "token")])
    assert records[0].y.startswith(
        "<Delete> group by evaluation.employee_id <DeleteEnd>")


def test_record_json_round_trip(schemas):
    records = synthesize_train(build_mock_beams(), schemas,
                               reps=[("pydict", "program")])
    for record in records[:5]:
        assert ExampleRecord.from_json(record.to_json()) == record


# ---------------------------------------------------------------------------
# Dev-set extraction


def _records(schemas):
    return synthesize_train(build_mock_beams(), schemas, reps=[("pydict", "program")])


def test_dev_set_max_confidence(schemas):
    records = _records(schemas)
    split = build_dev_set(records, n_dbs=1, seed=3)
    dev_dbs = {r.db_id for r in split.dev}
    assert len(dev_dbs) == 1
    # one record per question: the highest-confidence wrong parse (rank 2)
    assert len(split.dev) == QUESTIONS_PER_DB
    assert all(r.beam_rank == 2 for r in split.dev)


def test_dev_set_no_leakage(schemas):
    records = _records(schemas)
    split = build_dev_set(records, n_dbs=1, seed=3)
    dev_keys = {(r.db_id, r.question) for r in split.dev}
    train_keys = {(r.db_id, r.question) for r in split.train}
    assert not dev_keys & train_keys
    dev_dbs = {r.db_id for r in split.dev}
    assert all(r.db_id not in dev_dbs for r in split.train)


def test_dev_set_deterministic(schemas):
    records = _records(schemas)
    a = build_dev_set(records, n_dbs=2, seed=11)
    b = build_dev_set(records, n_dbs=2, seed=11)
    assert a == b
    c = build_dev_set(records, n_dbs=2, seed=12)
    assert {r.db_id for r in c.dev} != set() \
        and (c != a or {r.db_id for r in c.dev} == {r.db_id for r in a.dev})


def test_dev_set_too_many_dbs(schemas):
    records = _records(schemas)
    with pytest.raises(DatasetError):
        build_dev_set(records, n_dbs=8, seed=0)


def test_dev_set_negative_count(schemas):
    with pytest.raises(DatasetError, match="cannot sample -1 databases"):
        build_dev_set(_records(schemas), n_dbs=-1, seed=0)
    assert build_dev_set(_records(schemas), n_dbs=0, seed=0).dev == []


def test_dev_default_is_eight(schemas):
    import inspect

    from sqlpatch.dataset import build_dev_set as fn
    assert inspect.signature(fn).parameters["n_dbs"].default == 8


# ---------------------------------------------------------------------------
# Statistics


def test_stats_arithmetic():
    records = []
    for n in (1, 2, 3, 2):
        records.append(ExampleRecord(
            db_id="d", question="q", schema_serial="s", wrong_sql="w", gold_sql="g",
            query_rep="pydict", edit_rep="program", x="x", y="y",
            n_edits=n, beam_rank=0, beam_score=1.0))
    stats = dataset_stats(records)
    assert stats.count == 4
    assert stats.avg_edits == 2.0


def test_stats_empty():
    stats = dataset_stats([])
    assert stats.count == 0
    assert stats.avg_edits is None


def test_beam_invariants():
    with pytest.raises(DatasetError):
        ParserOutput("d", "q", "g", ())
    with pytest.raises(DatasetError):
        ParserOutput("d", "q", "g", (("a", 0.1), ("b", 0.9)))
