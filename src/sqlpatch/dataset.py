"""Synthesis of error-correction examples from parser beam outputs.

Beam entries that fail to parse (or to execute, when a backend is present)
are dropped; surviving entries are labeled wrong under the configured
policy and serialized into (x, y) training pairs for every requested
representation combination.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import Iterable, Optional

from .clausemap import CLAUSE_INDEX, decompose, sql_to_clause_map, to_sql
from .diffs import diff_clauses_pydict, diff_clauses_sql, diff_program, diff_tokens
from .editscript import EditScript, parse_edits, render_edits
from .errors import DatasetError, ExecutionError, SqlPatchError
from .metrics import EvalOutcome, ExecBackend, exact_set_match, execution_match
from .parse import parse_sql
from .program import EditProgram, Pop, parse_program, render_program
from .pydict import render_pydict
from .render import render
from .schema import SchemaInfo
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

    def diff(self, wrong_ast, gold_ast):
        """The edit script or program that turns the wrong query into the gold one."""
        raise NotImplementedError

    def render_edits(self, edits) -> str:
        return render_edits(edits)

    def parse_edits(self, text: str):
        return parse_edits(text, self.granularity)

    def apply(self, wrong_sql: str, items) -> str:
        """Apply actions (or statements), in the order given, to canonical SQL."""
        script = EditScript(self.granularity, tuple(items))
        return to_sql(apply_clause_edits(sql_to_clause_map(wrong_sql), script))

    def render_query(self, ast) -> str:
        return render(ast)

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

    def diff(self, wrong_ast, gold_ast):
        return diff_tokens(wrong_ast, gold_ast)

    def apply(self, wrong_sql: str, items) -> str:
        return apply_token_edits(wrong_sql, EditScript("token", tuple(items))).result

    def order(self, action) -> tuple:
        return ()  # token edits apply in the order they were selected


class _ClauseSqlEdits(Representation):
    granularity, query_rep, edit_rep = "clause-sql", "sql", "clause"

    def diff(self, wrong_ast, gold_ast):
        return diff_clauses_sql(wrong_ast, gold_ast)


class _PydictQuery(Representation):
    query_rep = "pydict"

    def render_query(self, ast) -> str:
        return render_pydict(decompose(ast))


class _ClausePydictEdits(_PydictQuery):
    granularity, edit_rep = "clause-pydict", "clause"

    def diff(self, wrong_ast, gold_ast):
        return diff_clauses_pydict(decompose(wrong_ast), decompose(gold_ast))


class _ProgramEdits(_PydictQuery):
    granularity, edit_rep = "program", "program"

    def diff(self, wrong_ast, gold_ast):
        return diff_program(decompose(wrong_ast), decompose(gold_ast))

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
                     else (1, int(part.removeprefix("subquery"))) for part in path)


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


@dataclass(frozen=True)
class ParserOutput:
    db_id: str
    question: str
    gold_sql: str
    beam: tuple[tuple[str, float], ...]  # (sql, score), highest score first

    def __post_init__(self):
        if not self.beam:
            raise DatasetError("beam must be non-empty")
        scores = [score for _, score in self.beam]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise DatasetError("beam scores must be non-increasing")

    @staticmethod
    def from_json(line: str) -> "ParserOutput":
        obj = json.loads(line)
        return ParserOutput(
            db_id=obj["db_id"],
            question=obj["question"],
            gold_sql=obj["gold_sql"],
            beam=tuple((e["sql"], float(e["score"])) for e in obj["beam"]),
        )

    def to_json(self) -> str:
        return json.dumps({
            "db_id": self.db_id, "question": self.question, "gold_sql": self.gold_sql,
            "beam": [{"sql": s, "score": v} for s, v in self.beam],
        }, ensure_ascii=False)


@dataclass(frozen=True)
class ExampleRecord:
    db_id: str
    question: str
    schema_serial: str
    wrong_sql: str  # canonical SQL of the wrong parse
    gold_sql: str   # canonical SQL of the gold query
    query_rep: str  # sql | pydict
    edit_rep: str   # token | clause | program
    x: str
    y: str
    n_edits: int
    beam_rank: int
    beam_score: float

    @staticmethod
    def from_json(line: str) -> "ExampleRecord":
        return ExampleRecord(**json.loads(line))

    def to_json(self) -> str:
        return json.dumps(asdict(self), ensure_ascii=False)


def read_parser_outputs(lines: Iterable[str]) -> list[ParserOutput]:
    return [ParserOutput.from_json(line) for line in lines if line.strip()]


def read_records(lines: Iterable[str]) -> list[ExampleRecord]:
    return [ExampleRecord.from_json(line) for line in lines if line.strip()]


# ---------------------------------------------------------------------------
# Fold splitting


def split_folds(outputs: list[ParserOutput], k: int) -> list[list[ParserOutput]]:
    """Partition by database into k folds, greedily balancing example
    counts: largest database first into the currently smallest fold."""
    if k < 2:
        raise DatasetError("fold count must be at least 2")
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for i, out in enumerate(outputs):
        counts[out.db_id] = counts.get(out.db_id, 0) + 1
        first_seen.setdefault(out.db_id, i)
    if len(counts) < k:
        raise DatasetError(f"need at least {k} distinct databases, got {len(counts)}")
    order = sorted(counts, key=lambda db: (-counts[db], first_seen[db]))
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
        schema = schemas.get(output.db_id)
        if schema is None:
            raise DatasetError(f"schema missing for db_id {output.db_id!r}")
        try:
            gold_ast = parse_sql(output.gold_sql, schema)
        except SqlPatchError as exc:
            raise DatasetError(
                f"gold query does not parse for {output.db_id!r}: {exc}") from None
        gold_sql = render(gold_ast)
        seen: set[str] = set()
        for rank, (beam_sql, score) in enumerate(output.beam):
            try:
                ast = parse_sql(beam_sql, schema)
            except SqlPatchError:
                continue  # ungrammatical parses never enter the data
            wrong_sql = render(ast)
            if wrong_sql in seen:
                continue
            seen.add(wrong_sql)
            if backend is not None:
                try:
                    backend.execute(wrong_sql, output.db_id)
                except ExecutionError:
                    continue  # non-executable parses are dropped too
            outcome = _evaluate(ast, gold_ast, wrong_sql, gold_sql, output.db_id, backend)
            if not _is_wrong(outcome, policy):
                continue
            for query_rep, edit_rep in reps:
                record = make_record(output, rank, score, schema, ast, gold_ast,
                                     query_rep, edit_rep, program_only)
                if record is not None:
                    records.append(record)
    return records


def _evaluate(ast, gold_ast, wrong_sql, gold_sql, db_id, backend) -> EvalOutcome:
    em = exact_set_match(ast, gold_ast)
    ex = None
    if backend is not None:
        ex = execution_match(wrong_sql, gold_sql, db_id, backend)
    return EvalOutcome(em, ex)


def _is_wrong(outcome: EvalOutcome, policy: str) -> bool:
    if outcome.ex is None:
        return not outcome.em
    if policy == "either":
        return (not outcome.em) or (not outcome.ex)
    return (not outcome.em) and (not outcome.ex)


def make_record(output: ParserOutput, rank: int, score: float, schema: SchemaInfo,
                wrong_ast, gold_ast, query_rep: str, edit_rep: str,
                program_only: bool = False) -> Optional[ExampleRecord]:
    """Build one ExampleRecord, or None when the pair has no edits."""
    rep = representation(query_rep, edit_rep)
    edits = rep.diff(wrong_ast, gold_ast)
    if not edits:
        return None
    x, y = serialize_example(output.question, schema.serialize(), wrong_ast, gold_ast,
                             query_rep, edit_rep, program_only,
                             edits_text=rep.render_edits(edits))
    return ExampleRecord(
        db_id=output.db_id, question=output.question,
        schema_serial=schema.serialize(),
        wrong_sql=render(wrong_ast), gold_sql=render(gold_ast),
        query_rep=query_rep, edit_rep=edit_rep, x=x, y=y,
        n_edits=len(edits), beam_rank=rank, beam_score=score,
    )


def serialize_example(question: str, schema_serial: str, wrong_ast, gold_ast,
                      query_rep: str, edit_rep: str, program_only: bool = False,
                      edits_text: Optional[str] = None) -> tuple[str, str]:
    """Build the (x, y) pair: x = utterance | schema | wrong query, and
    y = edits <sep> gold query (or the edits alone in program-only mode)."""
    rep = representation(query_rep, edit_rep)
    if edits_text is None:
        edits = rep.diff(wrong_ast, gold_ast)
        if not edits:
            raise DatasetError("refusing to serialize a pair with no edits")
        edits_text = rep.render_edits(edits)
    x = X_SEPARATOR.join([question, schema_serial, rep.render_query(wrong_ast)])
    if program_only:
        if edit_rep != "program":
            raise DatasetError("program-only serialization requires program edits")
        return x, edits_text
    return x, edits_text + Y_SEPARATOR + rep.render_query(gold_ast)


# ---------------------------------------------------------------------------
# Dev-set extraction and statistics


@dataclass(frozen=True)
class DatasetSplit:
    train: list[ExampleRecord]
    dev: list[ExampleRecord]


def build_dev_set(records: list[ExampleRecord], n_dbs: int = 8,
                  seed: int = 0) -> DatasetSplit:
    """Sample n_dbs databases for the dev set; within each question keep only
    the highest-confidence wrong parse. Every record of a dev database
    leaves the train set, so no (db_id, question) pair leaks."""
    db_ids = sorted({r.db_id for r in records})
    if n_dbs > len(db_ids):
        raise DatasetError(f"cannot sample {n_dbs} databases from {len(db_ids)}")
    rng = random.Random(seed)
    dev_dbs = set(rng.sample(db_ids, n_dbs))
    train = [r for r in records if r.db_id not in dev_dbs]
    best: dict[tuple, ExampleRecord] = {}
    order: list[tuple] = []
    for record in records:
        if record.db_id not in dev_dbs:
            continue
        key = (record.db_id, record.question, record.query_rep, record.edit_rep)
        if key not in best:
            best[key] = record
            order.append(key)
        elif (record.beam_score, -record.beam_rank) > (best[key].beam_score, -best[key].beam_rank):
            best[key] = record
    return DatasetSplit(train=train, dev=[best[key] for key in order])


@dataclass(frozen=True)
class DatasetStats:
    count: int
    avg_edits: Optional[float]  # None when there are no records


def dataset_stats(records: list[ExampleRecord]) -> DatasetStats:
    if not records:
        return DatasetStats(0, None)
    return DatasetStats(len(records), sum(r.n_edits for r in records) / len(records))
