"""Command-line interface: one thin subcommand per pipeline stage.

Single queries and scripts travel as plain text; multi-record data travels
as JSON lines. Exit status 0 on success, 1 on a domain error, 2 on a usage
error. Randomized commands require an explicit --seed. The --schema and
--db-dir flags fall back to the SQLPATCH_SCHEMA and SQLPATCH_DB_DIR
environment variables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from functools import partial

from . import dataset as ds
from .clausemap import decompose, sql_to_clause_map, to_sql
from .editscript import GRANULARITIES, EditAction, EditScript, parse_edits, render_edits
from .errors import DatasetError, SchemaError, SqlPatchError
from .interact import OracleGenerator, SubprocessGenerator, simulate
from .metrics import (
    EvalOutcome, SqliteBackend, exact_set_match, execution_match, mcnemar_counts,
)
from .parse import parse_sql
from .program import parse_program
from .pydict import parse_pydict, render_pydict
from .render import render
from .schema import load_tables_json
from .vm import apply_clause_edits, apply_token_edits, exec_program


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except SqlPatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlpatch",
        description="Clause-level SQL editing toolkit: normalization, clause "
                    "maps, edit scripts, an edit-program interpreter, metrics, "
                    "and training-data synthesis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    def add_schema(p, required=True):
        p.add_argument("--schema", default=os.environ.get("SQLPATCH_SCHEMA"),
                       help="path to a Spider-layout tables.json "
                            "(default: $SQLPATCH_SCHEMA)")
        p.add_argument("--db-id", required=required, help="database id within the schema file")

    def add_db_dir(p):
        p.add_argument("--db-dir", default=os.environ.get("SQLPATCH_DB_DIR"),
                       help="databases directory, Spider layout "
                            "<db-dir>/<db_id>/<db_id>.sqlite (default: $SQLPATCH_DB_DIR)")

    def add_input(p, what):
        p.add_argument("input", nargs="?", help=f"{what} (default: stdin)")

    p = cmd("normalize", "normalize one SQL query to canonical text", _cmd_normalize)
    add_schema(p)
    add_input(p, "file with one SQL query")

    p = cmd("pydict", "print the clause-dictionary text of one SQL query", _cmd_pydict)
    add_schema(p)
    p.add_argument("--pretty", action="store_true", help="indent for human inspection")
    add_input(p, "file with one SQL query")

    p = cmd("to-sql", "reassemble SQL from clause-dictionary text", _cmd_to_sql)
    add_input(p, "file with clause-dictionary text")

    p = cmd("diff", "compute edits turning the wrong query into the gold query", _cmd_diff)
    add_schema(p)
    p.add_argument("--granularity", required=True, choices=list(ds.REPRESENTATIONS))
    p.add_argument("--wrong", required=True, help="file with the wrong SQL query")
    p.add_argument("--gold", required=True, help="file with the gold SQL query")

    p = cmd("render-edits", "convert edit actions between JSON lines and marker text",
            _cmd_render_edits)
    p.add_argument("--granularity", required=True, choices=list(GRANULARITIES))
    p.add_argument("--parse", action="store_true",
                   help="read marker text and emit JSON lines instead")
    add_input(p, "edit actions")

    p = cmd("apply", "apply an edit script to a query", _cmd_apply)
    add_schema(p, required=False)
    p.add_argument("--granularity", required=True, choices=list(GRANULARITIES))
    p.add_argument("--wrong", required=True, help="file with the query to patch")
    p.add_argument("--edits", required=True, help="file with marker-format edits")
    p.add_argument("--report", action="store_true",
                   help="print the full JSON report (token granularity)")

    p = cmd("exec-program", "run an edit program against a query", _cmd_exec_program)
    add_schema(p, required=False)
    p.add_argument("--wrong", required=True, help="file with the query to patch")
    p.add_argument("--program", required=True, help="file with the edit program")

    p = cmd("eval", "exact set match / execution match over JSONL pairs", _cmd_eval)
    add_schema(p, required=False)
    add_db_dir(p)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers (ignored when --db-dir is set; "
                        "database access is serialized)")
    add_input(p, "JSONL records {db_id, gold, pred}")

    p = cmd("mcnemar", "exact McNemar test over paired outcomes", _cmd_mcnemar)
    add_input(p, 'JSONL records {"a": bool, "b": bool}')

    p = cmd("synth", "synthesize error-correction records from beam outputs", _cmd_synth)
    add_schema(p, required=False)
    add_db_dir(p)
    p.add_argument("--query-rep", default="pydict", choices=list(ds.QUERY_REPS))
    p.add_argument("--edit-rep", default="program", choices=list(ds.EDIT_REPS))
    p.add_argument("--policy", default="either", choices=list(ds.POLICIES),
                   help="wrong when either metric fails, or only when both fail")
    p.add_argument("--program-only", action="store_true",
                   help="y carries the edit program without the resulting query")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers (ignored when --db-dir is set; "
                        "database access is serialized)")
    add_input(p, "JSONL beam outputs {db_id, question, gold_sql, beam}")

    p = cmd("split-folds", "assign databases to cross-validation folds", _cmd_split_folds)
    p.add_argument("--folds", type=int, default=5)
    add_input(p, "JSONL beam outputs")

    p = cmd("build-dev", "extract a held-out dev set from synthesized records", _cmd_build_dev)
    p.add_argument("--n-dbs", type=int, default=8)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--train-out", required=True)
    p.add_argument("--dev-out", required=True)
    add_input(p, "JSONL ExampleRecord lines")

    p = cmd("stats", "record count and average edit count", _cmd_stats)
    add_input(p, "JSONL ExampleRecord lines")

    p = cmd("simulate", "run the interactive-correction protocol over records",
            _cmd_simulate)
    add_schema(p, required=False)
    p.add_argument("--generator", default="oracle",
                   choices=["oracle", "noisy", "adversarial"],
                   help="built-in generator (ignored with --generator-cmd)")
    p.add_argument("--generator-cmd",
                   help="external generator command speaking the JSONL protocol")
    p.add_argument("--distractor-rate", type=float, default=0.5,
                   help="distractor rate for the noisy generator")
    p.add_argument("--beam-size", type=int, default=3)
    p.add_argument("--seed", type=int, default=None)
    add_input(p, "JSONL ExampleRecord lines")

    return parser


# ---------------------------------------------------------------------------
# Helpers


def _read(path) -> str:
    if path:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    return sys.stdin.read()


def _read_lines(path) -> list[str]:
    return [line for line in _read(path).splitlines() if line.strip()]


def _load_schema(args, parser) -> dict:
    if not args.schema:
        parser.error("--schema is required (or set SQLPATCH_SCHEMA)")
    return load_tables_json(args.schema)


def _schema_for(schemas, db_id, parser):
    if db_id not in schemas:
        parser.error(f"db_id {db_id!r} not present in the schema file")
    return schemas[db_id]


def _query_from_text(text: str, args, parser):
    schemas = _load_schema(args, parser)
    schema = _schema_for(schemas, args.db_id, parser)
    return parse_sql(text.strip(), schema)


def _map_lines(fn, path, workers: int):
    """Yield fn(line) for every non-blank JSONL input line, in input order;
    on a process pool when workers > 1, whose initializer hands fn, with
    the schemas bound in it, to each worker once. A domain error ends the
    run and names its 1-based line."""
    numbered = [(n, line) for n, line in enumerate(_read(path).splitlines(), 1)
                if line.strip()]
    lines = [line for _, line in numbered]
    with ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker, initargs=(fn,)))
            mapped = pool.map(_worker_call, lines)
        else:
            mapped = map(fn, lines)
        done = 0
        try:
            for result in mapped:
                yield result
                done += 1
        except SqlPatchError as exc:
            raise SqlPatchError(f"line {numbered[done][0]}: {exc}") from None


_worker_fn = None  # a pool worker's per-line function, set by _init_worker


def _init_worker(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _worker_call(line):
    return _worker_fn(line)


def _map_for_apply(text: str, args, parser):
    """Clause map of the query being patched: via the parser when a schema
    is given, lexically when the text is already canonical."""
    if args.schema and args.db_id:
        return decompose(_query_from_text(text, args, parser))
    return sql_to_clause_map(text.strip())


# ---------------------------------------------------------------------------
# Commands


def _cmd_normalize(args, parser) -> int:
    print(render(_query_from_text(_read(args.input), args, parser)))
    return 0


def _cmd_pydict(args, parser) -> int:
    query = _query_from_text(_read(args.input), args, parser)
    print(render_pydict(decompose(query), pretty=args.pretty))
    return 0


def _cmd_to_sql(args, parser) -> int:
    print(to_sql(parse_pydict(_read(args.input))))
    return 0


def _cmd_diff(args, parser) -> int:
    schemas = _load_schema(args, parser)
    schema = _schema_for(schemas, args.db_id, parser)
    wrong = parse_sql(_read(args.wrong).strip(), schema)
    gold = parse_sql(_read(args.gold).strip(), schema)
    rep = ds.REPRESENTATIONS[args.granularity]
    print(rep.render_edits(rep.diff(wrong, gold)))
    return 0


def _cmd_render_edits(args, parser) -> int:
    text = _read(args.input)
    if args.parse:
        script = parse_edits(text.strip(), args.granularity)
        for action in script.actions:
            print(json.dumps({"kind": action.kind, "old": action.old,
                              "new": action.new}, ensure_ascii=False))
        return 0
    actions = tuple(
        EditAction(obj.get("kind"), old=obj.get("old", ""), new=obj.get("new", ""))
        for obj in map(json.loads, text.splitlines()) if obj)
    print(render_edits(EditScript(args.granularity, actions)))
    return 0


def _cmd_apply(args, parser) -> int:
    wrong_text = _read(args.wrong).strip()
    script = parse_edits(_read(args.edits), args.granularity)
    if args.granularity == "token":
        report = apply_token_edits(wrong_text, script)
        if args.report:
            print(json.dumps({"result": report.result,
                              "ambiguous_spans": report.ambiguous_spans,
                              "skipped": report.skipped}, ensure_ascii=False))
        else:
            print(report.result)
        return 0
    cm = _map_for_apply(wrong_text, args, parser)
    print(to_sql(apply_clause_edits(cm, script)))
    return 0


def _cmd_exec_program(args, parser) -> int:
    cm = _map_for_apply(_read(args.wrong).strip(), args, parser)
    program = parse_program(_read(args.program))
    print(to_sql(exec_program(cm, program)))
    return 0


def _eval_line(line, schemas, backend):
    obj = json.loads(line)
    schema = schemas.get(obj["db_id"])
    if schema is None:
        raise SchemaError(f"db_id {obj['db_id']!r} not present in the schema file")
    pred = parse_sql(obj["pred"], schema)
    gold = parse_sql(obj["gold"], schema)
    ex = None
    if backend is not None:
        ex = execution_match(render(pred), render(gold), obj["db_id"], backend)
    return EvalOutcome(exact_set_match(pred, gold), ex)


def _cmd_eval(args, parser) -> int:
    schemas = _load_schema(args, parser)
    backend = SqliteBackend(args.db_dir) if args.db_dir else None
    outcomes = []
    for outcome in _map_lines(partial(_eval_line, schemas=schemas, backend=backend),
                              args.input, 1 if backend else args.workers):
        print(json.dumps({"em": outcome.em, "ex": outcome.ex}, ensure_ascii=False))
        outcomes.append(outcome)
    n = len(outcomes)
    if n:
        summary = {"count": n, "em_acc": sum(o.em for o in outcomes) / n}
        if backend is not None:
            summary["ex_acc"] = sum(bool(o.ex) for o in outcomes) / n
        print(json.dumps(summary), file=sys.stderr)
    return 0


def _cmd_mcnemar(args, parser) -> int:
    b = c = 0
    for line in _read_lines(args.input):
        obj = json.loads(line)
        a_ok, b_ok = bool(obj["a"]), bool(obj["b"])
        b += a_ok and not b_ok
        c += (not a_ok) and b_ok
    result = mcnemar_counts(b, c)
    print(json.dumps({"b": result.b, "c": result.c, "p": result.p,
                      "degenerate": result.degenerate}))
    return 0


def _synth_line(line, **options):
    output = ds.ParserOutput.from_json(line)
    return [r.to_json() for r in ds.synthesize_train([output], **options)]


def _cmd_synth(args, parser) -> int:
    try:
        ds.representation(args.query_rep, args.edit_rep)
    except DatasetError as exc:
        parser.error(str(exc))
    schemas = _load_schema(args, parser)
    backend = SqliteBackend(args.db_dir) if args.db_dir else None
    synth = partial(_synth_line, schemas=schemas, backend=backend, policy=args.policy,
                    reps=[(args.query_rep, args.edit_rep)], program_only=args.program_only)
    for records in _map_lines(synth, args.input, 1 if backend else args.workers):
        for record in records:
            print(record)
    return 0


def _cmd_split_folds(args, parser) -> int:
    outputs = ds.read_parser_outputs(_read_lines(args.input))
    folds = ds.split_folds(outputs, args.folds)
    assignment = {}
    for i, fold in enumerate(folds):
        for output in fold:
            assignment.setdefault(output.db_id, i)
    for output in outputs:
        if output.db_id in assignment:
            print(json.dumps({"db_id": output.db_id,
                              "fold": assignment.pop(output.db_id)}))
    return 0


def _cmd_build_dev(args, parser) -> int:
    records = ds.read_records(_read_lines(args.input))
    split = ds.build_dev_set(records, n_dbs=args.n_dbs, seed=args.seed)
    with open(args.train_out, "w", encoding="utf-8") as fh:
        fh.writelines(r.to_json() + "\n" for r in split.train)
    with open(args.dev_out, "w", encoding="utf-8") as fh:
        fh.writelines(r.to_json() + "\n" for r in split.dev)
    print(json.dumps({"train": len(split.train), "dev": len(split.dev)}))
    return 0


def _cmd_stats(args, parser) -> int:
    stats = ds.dataset_stats(ds.read_records(_read_lines(args.input)))
    print(json.dumps({"count": stats.count, "avg_edits": stats.avg_edits}))
    return 0


def _cmd_simulate(args, parser) -> int:
    records = ds.read_records(_read_lines(args.input))
    if args.generator == "noisy" and not args.generator_cmd and args.seed is None:
        parser.error("--seed is required for the noisy generator")
    schemas = _load_schema(args, parser) if args.schema else None
    external = SubprocessGenerator(args.generator_cmd.split()) if args.generator_cmd else None
    try:
        for record in records:
            gold_text = _gold_edits_for(record, schemas, parser)
            if external is not None:
                generator = external
            else:
                rate = {"oracle": 0.0, "adversarial": 1.0}.get(
                    args.generator, args.distractor_rate)
                generator = OracleGenerator(gold_text, distractor_rate=rate,
                                            shuffle_seed=args.seed or 0,
                                            gold_sql=record.gold_sql)
            log = simulate(record, gold_text, generator, beam_size=args.beam_size)
            print(log.to_json())
    finally:
        if external is not None:
            external.close()
    return 0


def _gold_edits_for(record, schemas, parser):
    if schemas is None:
        parser.error("--schema is required for simulate")
    schema = _schema_for(schemas, record.db_id, parser)
    rep = ds.representation(record.query_rep, record.edit_rep)
    return rep.diff(parse_sql(record.wrong_sql, schema), parse_sql(record.gold_sql, schema))


if __name__ == "__main__":
    sys.exit(main())
