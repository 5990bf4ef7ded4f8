"""Synthesis of error-correction examples from parser beam outputs.

Beam entries that fail to parse (or to execute, when a backend is present)
are dropped; surviving entries are labeled wrong under the configured
policy and serialized into (x, y) training pairs for every requested
representation combination.
"""

from __future__ import annotations

import json
import random
from functools import cached_property, partial
from typing import Iterable, Optional

from .clausemap import CLAUSE_INDEX, decompose, placeholder_index, sql_to_clause_map, to_sql
from .diffs import diff_clauses_pydict, diff_clauses_sql, diff_program, diff_tokens
from .editscript import EditScript, parse_edits, render_edits
from .errors import DatasetError, SqlPatchError
from .metrics import (
    ExecBackend, exact_set_match, execution_match, orders_result, query_rows,
)
from .nodes import Record
from .parse import parse_sql
from .program import EditProgram, Pop, parse_program, render_program
from .pydict import render_pydict
from .render import render
from .schema import SchemaInfo, has_type, json_fields, schema_of
from .vm import apply_clause_edits, apply_token_edits, clause_content_pairs, exec_program

POLICIES = ("either", "both")

X_SEPARATOR = " | "
Y_SEPARATOR = " <sep> "


# ---------------------------------------------------------------------------
# Representations


class Representation:
    """One valid (query rep, edit rep) pairing, named by its granularity.

    This base row holds marker-format clause scripts over a query in SQL
    text; the rows below override what differs. Every operation calls the
    public functions through this module's globals when it runs, so a
    wrapper bound over one of those names later (a tracer, a profiler) sees
    the calls made through the table.
    """

    granularity = query_rep = edit_rep = ""

    def prepare(self, query):
        """The form of a parsed query of a question that diff takes: its
        clause map here, its AST for token edits."""
        return query.clause_map

    def diff(self, wrong, gold):
        """The edit script or program that turns the wrong query into the
        gold one; each is an AST or its prepared form."""
        raise NotImplementedError

    def render_edits(self, edits) -> str:
        return render_edits(edits)

    def parse_edits(self, text: str):
        return parse_edits(text, self.granularity)

    def apply(self, wrong_sql: str, items) -> str:
        """Apply actions (or statements), in the order given, to canonical SQL."""
        script = EditScript(self.granularity, tuple(items))
        return to_sql(apply_clause_edits(sql_to_clause_map(wrong_sql), script))

    def render_query(self, query) -> str:
        """The parsed query as the x and y texts carry it."""
        return query.sql

    def order(self, action) -> tuple:
        """Sort key of an action selected out of order: the canonical index
        of the first clause key its content names, top-level key only."""
        try:
            key = clause_content_pairs(action.old or action.new, self.granularity)[0][0]
        except SqlPatchError:
            return (len(CLAUSE_INDEX),)
        return (CLAUSE_INDEX[key],)


class _TokenEdits(Representation):
    granularity, query_rep, edit_rep = "token", "sql", "token"

    def prepare(self, query):
        return query.ast

    def diff(self, wrong, gold):
        return diff_tokens(wrong, gold)

    def apply(self, wrong_sql: str, items) -> str:
        return apply_token_edits(wrong_sql, EditScript("token", tuple(items))).result

    def order(self, action) -> tuple:
        return ()  # token edits apply in the order they were selected


class _ClauseSqlEdits(Representation):
    granularity, query_rep, edit_rep = "clause-sql", "sql", "clause"

    def diff(self, wrong, gold):
        return diff_clauses_sql(wrong, gold)


class _PydictQuery(Representation):
    query_rep = "pydict"

    def render_query(self, query) -> str:
        return query.pydict


class _ClausePydictEdits(_PydictQuery):
    granularity, edit_rep = "clause-pydict", "clause"

    def diff(self, wrong, gold):
        return diff_clauses_pydict(wrong, gold)


class _ProgramEdits(_PydictQuery):
    granularity, edit_rep = "program", "program"

    def diff(self, wrong, gold):
        return diff_program(wrong, gold)

    def render_edits(self, edits) -> str:
        return render_program(edits)

    def parse_edits(self, text: str):
        return parse_program(text)

    def apply(self, wrong_sql: str, items) -> str:
        return to_sql(exec_program(sql_to_clause_map(wrong_sql), EditProgram(tuple(items))))

    def order(self, stmt) -> tuple:
        """Canonical walk order of the entry a statement targets."""
        path = stmt.path + (stmt.key,) if isinstance(stmt, Pop) else stmt.path
        return tuple((0, CLAUSE_INDEX[part]) if part in CLAUSE_INDEX
                     else (1, placeholder_index(part)) for part in path)


REPRESENTATIONS = {rep.granularity: rep for rep in (
    _TokenEdits(), _ClauseSqlEdits(), _ClausePydictEdits(), _ProgramEdits())}
QUERY_REPS = tuple(dict.fromkeys(rep.query_rep for rep in REPRESENTATIONS.values()))
EDIT_REPS = tuple(dict.fromkeys(rep.edit_rep for rep in REPRESENTATIONS.values()))
REP_COMBOS = tuple((rep.query_rep, rep.edit_rep) for rep in REPRESENTATIONS.values())


def representation(query_rep: str, edit_rep: str) -> Representation:
    """The table row of a (query rep, edit rep) pair; the DatasetError for
    an invalid pair names the query rep its edit rep requires."""
    for rep in REPRESENTATIONS.values():
        if (rep.query_rep, rep.edit_rep) == (query_rep, edit_rep):
            return rep
    valid = [rep.query_rep for rep in REPRESENTATIONS.values() if rep.edit_rep == edit_rep]
    if query_rep not in QUERY_REPS or not valid:
        raise DatasetError(f"unknown representation {query_rep!r}/{edit_rep!r}")
    raise DatasetError(f"{edit_rep} edits require the {' or '.join(valid)} query representation")


class ParserOutput(Record, hashable=True):
    __slots__ = ("db_id", "question", "gold_sql", "beam")

    def __init__(self, db_id: str, question: str, gold_sql: str,
                 beam: tuple[tuple[str, float], ...]):
        if not beam:
            raise DatasetError("beam must be non-empty")
        scores = [score for _, score in beam]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise DatasetError("beam scores must be non-increasing")
        self.db_id, self.question, self.gold_sql = db_id, question, gold_sql
        self.beam = beam  # (sql, score), highest score first

    @staticmethod
    def from_json(line: str) -> "ParserOutput":
        db_id, question, gold_sql, beam = json_fields(line, _PARSER_OUTPUT_FIELDS)
        if not all(type(e) is dict and type(e.get("sql")) is str
                   and has_type(e.get("score"), float) for e in beam):
            raise DatasetError(
                'each beam entry needs a string "sql" and a finite numeric "score"')
        beam = tuple((e["sql"], float(e["score"])) for e in beam)
        return ParserOutput(db_id=db_id, question=question, gold_sql=gold_sql, beam=beam)

    def to_json(self) -> str:
        return json.dumps({
            "db_id": self.db_id, "question": self.question, "gold_sql": self.gold_sql,
            "beam": [{"sql": s, "score": v} for s, v in self.beam],
        }, ensure_ascii=False)


# The fields of an ExampleRecord, in order, with the JSON type of each.
_RECORD_FIELDS = {
    "db_id": str, "question": str, "schema_serial": str,
    "wrong_sql": str, "gold_sql": str,  # canonical SQL of the wrong parse and of the gold
    "query_rep": str, "edit_rep": str,  # sql | pydict, and token | clause | program
    "x": str, "y": str, "n_edits": int, "beam_rank": int, "beam_score": float,
}


class ExampleRecord(Record, hashable=True):
    __slots__ = tuple(_RECORD_FIELDS)

    def __init__(self, db_id: str, question: str, schema_serial: str, wrong_sql: str,
                 gold_sql: str, query_rep: str, edit_rep: str, x: str, y: str,
                 n_edits: int, beam_rank: int, beam_score: float):
        self.db_id, self.question, self.schema_serial = db_id, question, schema_serial
        self.wrong_sql, self.gold_sql = wrong_sql, gold_sql
        self.query_rep, self.edit_rep, self.x, self.y = query_rep, edit_rep, x, y
        self.n_edits, self.beam_rank, self.beam_score = n_edits, beam_rank, beam_score

    @staticmethod
    def from_json(line: str) -> "ExampleRecord":
        return ExampleRecord(*json_fields(line, _RECORD_FIELDS, only=True))


_PARSER_OUTPUT_FIELDS = {"db_id": str, "question": str, "gold_sql": str, "beam": list}


# ---------------------------------------------------------------------------
# Fold splitting


def split_folds(outputs: list[ParserOutput], k: int) -> list[list[ParserOutput]]:
    """Partition by database into k folds, greedily balancing example
    counts: largest database first into the currently smallest fold."""
    if k < 2:
        raise DatasetError("fold count must be at least 2")
    counts: dict[str, int] = {}  # first-seen order, which the stable sort keeps on ties
    for out in outputs:
        counts[out.db_id] = counts.get(out.db_id, 0) + 1
    if len(counts) < k:
        raise DatasetError(f"need at least {k} distinct databases, got {len(counts)}")
    order = sorted(counts, key=lambda db: -counts[db])
    fold_of: dict[str, int] = {}
    sizes = [0] * k
    for db in order:
        target = min(range(k), key=lambda i: (sizes[i], i))
        fold_of[db] = target
        sizes[target] += counts[db]
    folds: list[list[ParserOutput]] = [[] for _ in range(k)]
    for out in outputs:
        folds[fold_of[out.db_id]].append(out)
    return folds


# ---------------------------------------------------------------------------
# Example synthesis


def synthesize_train(outputs: list[ParserOutput], schemas: dict[str, SchemaInfo],
                     backend: Optional[ExecBackend] = None, policy: str = "either",
                     reps=REP_COMBOS, program_only: bool = False) -> list[ExampleRecord]:
    if policy not in POLICIES:
        raise DatasetError(f"unknown wrongness policy {policy!r}")
    records: list[ExampleRecord] = []
    for output in outputs:
        schema = schema_of(schemas, output.db_id)
        run = None if backend is None else partial(query_rows, backend, db_id=output.db_id)
        try:
            gold = _Query(parse_sql(output.gold_sql, schema), run)
        except SqlPatchError as exc:
            raise DatasetError(
                f"gold query does not parse for {output.db_id!r}: {exc}") from None
        seen = {gold.sql}  # an entry equal to the gold is correct under either policy
        for rank, (beam_sql, score) in enumerate(output.beam):
            try:
                wrong = _Query(parse_sql(beam_sql, schema), run)
            except SqlPatchError:
                continue  # ungrammatical parses never enter the data
            if wrong.sql in seen:
                continue
            seen.add(wrong.sql)
            if run is not None and wrong.rows is None:
                continue  # non-executable parses are dropped too
            em = exact_set_match(wrong.ast, gold.ast)
            ex = em if run is None else execution_match(  # no backend: EM alone judges
                wrong.rows, gold.rows, orders_result(gold.ast))
            if (em and ex) if policy == "either" else (em or ex):
                continue  # correct parses never enter the data
            for query_rep, edit_rep in reps:
                record = make_record(output, rank, score, schema, wrong, gold,
                                     query_rep, edit_rep, program_only)
                if record is not None:
                    records.append(record)
    return records


class _Query:
    """One parsed query of a question: its AST, with its canonical text, its
    clause map, that map's dictionary text and its rows each made the first
    time it is read. The rows need run, query_rows bound to the question's
    backend and database, and are None when the database rejects the query."""

    def __init__(self, ast, run=None):
        self.ast = ast
        self.run = run

    @cached_property
    def sql(self) -> str:
        return render(self.ast)

    @cached_property
    def clause_map(self):
        return decompose(self.ast)

    @cached_property
    def pydict(self) -> str:
        return render_pydict(self.clause_map)

    @cached_property
    def rows(self) -> Optional[list[tuple]]:
        return self.run(self.sql)


def make_record(output: ParserOutput, rank: int, score: float, schema: SchemaInfo,
                wrong_ast, gold_ast, query_rep: str, edit_rep: str,
                program_only: bool = False) -> Optional[ExampleRecord]:
    """Build one ExampleRecord, or None when the pair has no edits. Each
    query is an AST or the value synthesize_train wraps it in. x = utterance
    | schema | wrong query; y = edits <sep> gold query, or the edits alone
    in program-only mode."""
    rep = representation(query_rep, edit_rep)
    wrong, gold = (q if isinstance(q, _Query) else _Query(q) for q in (wrong_ast, gold_ast))
    edits = rep.diff(rep.prepare(wrong), rep.prepare(gold))
    if not edits:
        return None
    y = rep.render_edits(edits)
    if program_only:
        if rep.edit_rep != "program":
            raise DatasetError("program-only serialization requires program edits")
    else:
        y += Y_SEPARATOR + rep.render_query(gold)
    schema_serial = schema.serialize()
    x = X_SEPARATOR.join([output.question, schema_serial, rep.render_query(wrong)])
    return ExampleRecord(output.db_id, output.question, schema_serial, wrong.sql, gold.sql,
                         query_rep, edit_rep, x, y, len(edits), rank, score)


# ---------------------------------------------------------------------------
# Dev-set extraction and statistics


class DatasetSplit(Record, hashable=True):
    __slots__ = ("train", "dev")

    def __init__(self, train: list[ExampleRecord], dev: list[ExampleRecord]):
        self.train, self.dev = train, dev


def build_dev_set(records: list[ExampleRecord], n_dbs: int = 8,
                  seed: int = 0) -> DatasetSplit:
    """Sample n_dbs databases for the dev set; within each question keep only
    the highest-confidence wrong parse. Every record of a dev database
    leaves the train set, so no (db_id, question) pair leaks."""
    db_ids = sorted({r.db_id for r in records})
    if not 0 <= n_dbs <= len(db_ids):
        raise DatasetError(f"cannot sample {n_dbs} databases from {len(db_ids)}")
    rng = random.Random(seed)
    dev_dbs = set(rng.sample(db_ids, n_dbs))
    train = [r for r in records if r.db_id not in dev_dbs]
    best: dict[tuple, ExampleRecord] = {}  # in first-seen order of its keys
    for record in records:
        if record.db_id not in dev_dbs:
            continue
        key = (record.db_id, record.question, record.query_rep, record.edit_rep)
        if key not in best or ((record.beam_score, -record.beam_rank)
                               > (best[key].beam_score, -best[key].beam_rank)):
            best[key] = record
    return DatasetSplit(train=train, dev=list(best.values()))


class DatasetStats(Record, hashable=True):
    __slots__ = ("count", "avg_edits")

    def __init__(self, count: int, avg_edits: Optional[float]):
        self.count = count
        self.avg_edits = avg_edits  # None when there are no records


def dataset_stats(records: Iterable[ExampleRecord]) -> DatasetStats:
    """The count and mean edit count of records, read in one pass."""
    count = edits = 0
    for record in records:
        count, edits = count + 1, edits + record.n_edits
    return DatasetStats(count, edits / count if count else None)
