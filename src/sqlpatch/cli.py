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
from collections import deque
from contextlib import nullcontext, suppress
from functools import partial
from itertools import chain, islice

# What every command runs; each command imports the rest it runs at its start.
from .errors import DatasetError, SqlPatchError
from .parse import parse_sql
from .render import render
from .schema import json_fields, load_tables_json, schema_of


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    for name in ("workers", "beam_size"):  # counts, checked before any input is read
        if getattr(args, name, 1) < 1:
            args.parser.error(f"--{name.replace('_', '-')} must be at least 1")
    try:
        status = args.func(args, args.parser)
        sys.stdout.flush()
        return status
    except (SqlPatchError, RecursionError) as exc:
        print(f"error: {_reason(exc)}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of stdout has gone: point stdout at devnull so that the
        # interpreter's last flush stays quiet (Python's signal docs' recipe).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
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
        p.set_defaults(func=func, parser=p)  # usage errors name the subcommand
        return p

    def add_schema(p):
        p.add_argument("--schema", default=os.environ.get("SQLPATCH_SCHEMA"),
                       help="path to a Spider-layout tables.json "
                            "(default: $SQLPATCH_SCHEMA)")

    def add_schema_db_id(p, required=True):
        add_schema(p)
        p.add_argument("--db-id", required=required, help="database id within the schema file")

    def add_db_dir(p):
        p.add_argument("--db-dir", default=os.environ.get("SQLPATCH_DB_DIR"),
                       help="databases directory, Spider layout "
                            "<db-dir>/<db_id>/<db_id>.sqlite (default: $SQLPATCH_DB_DIR)")

    def add_input(p, what):
        p.add_argument("input", nargs="?", help=f"{what} (default: stdin)")

    p = cmd("normalize", "normalize one SQL query to canonical text", _cmd_normalize)
    add_schema_db_id(p)
    add_input(p, "file with one SQL query")

    p = cmd("pydict", "print the clause-dictionary text of one SQL query", _cmd_pydict)
    add_schema_db_id(p)
    p.add_argument("--pretty", action="store_true", help="indent for human inspection")
    add_input(p, "file with one SQL query")

    p = cmd("to-sql", "reassemble SQL from clause-dictionary text", _cmd_to_sql)
    add_input(p, "file with clause-dictionary text")

    p = cmd("diff", "compute edits turning the wrong query into the gold query", _cmd_diff)
    add_schema_db_id(p)
    p.add_argument("--granularity", required=True, help="a row of the representation table")
    p.add_argument("--wrong", required=True, help="file with the wrong SQL query")
    p.add_argument("--gold", required=True, help="file with the gold SQL query")

    p = cmd("render-edits", "convert edit actions between JSON lines and marker text",
            _cmd_render_edits)
    p.add_argument("--granularity", required=True, help="a marker-format granularity")
    p.add_argument("--parse", action="store_true",
                   help="read marker text and emit JSON lines instead")
    add_input(p, "edit actions")

    p = cmd("apply", "apply an edit script to a query", _cmd_apply)
    add_schema_db_id(p, required=False)
    p.add_argument("--granularity", required=True, help="a row of the representation table")
    p.add_argument("--wrong", required=True, help="file with the query to patch")
    p.add_argument("--edits", required=True, help="file with marker-format edits")
    p.add_argument("--report", action="store_true",
                   help="print the full JSON report (token granularity)")

    p = cmd("exec-program", "run an edit program against a query", _cmd_apply)
    add_schema_db_id(p, required=False)
    p.add_argument("--wrong", required=True, help="file with the query to patch")
    p.add_argument("--program", dest="edits", metavar="PROGRAM", required=True,
                   help="file with the edit program")
    p.set_defaults(granularity="program", report=False)

    p = cmd("eval", "exact set match / execution match over JSONL pairs", _cmd_eval)
    add_schema(p)
    add_db_dir(p)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes")
    add_input(p, "JSONL records {db_id, gold, pred}")

    p = cmd("mcnemar", "exact McNemar test over paired outcomes", _cmd_mcnemar)
    add_input(p, 'JSONL records {"a": bool, "b": bool}')

    p = cmd("synth", "synthesize error-correction records from beam outputs", _cmd_synth)
    add_schema(p)
    add_db_dir(p)
    p.add_argument("--query-rep", default="pydict")
    p.add_argument("--edit-rep", default="program")
    p.add_argument("--policy", default="either",
                   help="wrong when either metric fails, or only when both fail")
    p.add_argument("--program-only", action="store_true",
                   help="y carries the edit program without the resulting query")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes")
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
    add_schema(p)
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


def _input(path):
    """Each line of path, or of stdin without one, with its line feed. Stdout
    is flushed before each further read of stdin, so that a reader sees what
    the lines before gave while the command waits for more. A file that
    cannot be opened or decoded is a domain error that names it."""
    try:
        source = open(path, encoding="utf-8") if path else nullcontext(sys.stdin)
    except OSError as exc:
        raise SqlPatchError(f"cannot read {path}: {exc.strerror}") from None
    with source as fh:
        try:
            for line in fh:
                yield line
                if not path:
                    sys.stdout.flush()
        except UnicodeDecodeError as exc:
            raise SqlPatchError(f"cannot read {path or 'stdin'}: "
                                f"not UTF-8 ({exc.reason})") from None


def _read(path) -> str:
    return "".join(_input(path))


def _write_files(outputs) -> None:
    """Each (path, records) pair's records as JSON lines at path, all or
    none: each file is written beside the file its path names (through a
    symlink), keeping that file's mode, and replaces it only once every
    output is written. A device or pipe, such as /dev/null, is written to
    directly."""
    temps = []  # (temporary file, file, path), written and not yet moved
    try:
        for path, records in outputs:
            lines = (r.to_json() + "\n" for r in records)
            target = os.path.realpath(path)
            if os.path.exists(target) and not os.path.isfile(target):
                with open(target, "w", encoding="utf-8") as fh:
                    fh.writelines(lines)
                continue
            head, name = os.path.split(target)
            temp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
            with open(temp, "x", encoding="utf-8") as fh:
                temps.append((temp, target, path))
                fh.writelines(lines)
            if os.path.exists(target):
                os.chmod(temp, os.stat(target).st_mode & 0o7777)
        while temps:
            temp, target, path = temps[0]
            os.replace(temp, target)
            del temps[0]
    except OSError as exc:
        raise SqlPatchError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        for temp, _, _ in temps:
            with suppress(OSError):
                os.remove(temp)


def _load_schema(args, parser) -> dict:
    if not args.schema:
        parser.error("--schema is required (or set SQLPATCH_SCHEMA)")
    return load_tables_json(args.schema)


def _schema_for(args, parser):
    schemas = _load_schema(args, parser)
    if args.db_id not in schemas:
        parser.error(f"db_id {args.db_id!r} not present in the schema file")
    return schemas[args.db_id]


def _query_from_text(text: str, args, parser):
    return parse_sql(text.strip(), _schema_for(args, parser))


def _reason(exc) -> str:
    """What a domain error says; input nested past Python's recursion limit
    ends the run as one."""
    return "input nested too deeply" if isinstance(exc, RecursionError) else str(exc)


_CHUNK = 32   # lines per pool task; larger ones hold more of the input at once
_WINDOW = 2   # pool tasks outstanding per worker


def _map_lines(fn, path, workers: int = 1):
    """Yield fn(line) for every non-blank JSONL input line, in input order,
    reading the input as a stream. Lines split at line feeds only: JSON text
    may hold U+2028 and the other breaks str.splitlines splits at. With one
    worker, or fewer than two lines, each line runs in this process as it is
    read. Otherwise a process pool (imported only then), whose initializer
    hands fn, with the schemas bound in it, to each worker once, takes the
    lines in chunks of _CHUNK, at most _WINDOW per worker outstanding; the
    next chunk goes out only once the oldest one's results are yielded. A
    domain error ends the run and names its 1-based line, and no chunk
    after the window it fell in runs."""
    lines = ((n, line.removesuffix("\n"))
             for n, line in enumerate(_input(path), 1) if line.strip())
    head = list(islice(lines, 2)) if workers > 1 else []
    lines = chain(head, lines)
    if len(head) < 2:
        for n, line in lines:
            yield _checked(n, _call(fn, line))
        return
    from concurrent.futures import ProcessPoolExecutor
    chunks = iter(lambda: list(islice(lines, _CHUNK)), [])
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(fn,)) as pool:
        window = deque()
        for chunk in chunks:
            window.append((chunk, pool.submit(_worker_call, [line for _, line in chunk])))
            if len(window) == _WINDOW * workers:
                yield from _chunk_results(*window.popleft())
        while window:
            yield from _chunk_results(*window.popleft())


def _call(fn, line):
    """fn(line), or the error it raised."""
    try:
        return fn(line)
    except Exception as exc:
        return exc


def _checked(n, result):
    """The result of line n, unless it is an error: a domain error is raised
    naming the line, any other as it was."""
    if isinstance(result, (SqlPatchError, RecursionError)):
        raise SqlPatchError(f"line {n}: {_reason(result)}") from None
    if isinstance(result, Exception):
        raise result
    return result


def _chunk_results(chunk, future):
    """The checked results of a pool chunk of (n, line) pairs, in line order."""
    for (n, _), result in zip(chunk, future.result()):
        yield _checked(n, result)


_worker_fn = None  # a pool worker's per-line function, set by _init_worker


def _init_worker(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _worker_call(lines):
    """_call of fn on each line of a chunk in a pool worker, up to the first
    error: it comes back as that line's result, for _map_lines to raise in
    line order, since raising it here would drop the results before it."""
    results = []
    for line in lines:
        results.append(_call(_worker_fn, line))
        if isinstance(results[-1], Exception):
            break
    return results


def _canonical(text: str, args, parser) -> str:
    """The query being patched as canonical text: rendered via the parser
    when a schema is given, else taken as already canonical."""
    if args.schema and args.db_id:
        return render(_query_from_text(text, args, parser))
    return text


def _check_choice(parser, flag, value, valid) -> None:
    """A usage error, worded as argparse words one, unless valid holds value."""
    if value not in valid:
        parser.error(f"argument {flag}: invalid choice: {value!r} "
                     f"(choose from {', '.join(map(repr, valid))})")


# ---------------------------------------------------------------------------
# Commands


def _cmd_normalize(args, parser) -> int:
    print(render(_query_from_text(_read(args.input), args, parser)))
    return 0


def _cmd_pydict(args, parser) -> int:
    from .clausemap import decompose
    from .pydict import render_pydict
    query = _query_from_text(_read(args.input), args, parser)
    print(render_pydict(decompose(query), pretty=args.pretty))
    return 0


def _cmd_to_sql(args, parser) -> int:
    from .clausemap import to_sql
    from .pydict import parse_pydict
    print(to_sql(parse_pydict(_read(args.input))))
    return 0


def _cmd_diff(args, parser) -> int:
    from .dataset import REPRESENTATIONS
    _check_choice(parser, "--granularity", args.granularity, REPRESENTATIONS)
    schema = _schema_for(args, parser)
    wrong = parse_sql(_read(args.wrong).strip(), schema)
    gold = parse_sql(_read(args.gold).strip(), schema)
    rep = REPRESENTATIONS[args.granularity]
    print(rep.render_edits(rep.diff(wrong, gold)))
    return 0


def _cmd_render_edits(args, parser) -> int:
    from .editscript import GRANULARITIES, EditAction, EditScript, parse_edits, render_edits
    _check_choice(parser, "--granularity", args.granularity, GRANULARITIES)
    if args.parse:
        script = parse_edits(_read(args.input).strip(), args.granularity)
        for action in script.actions:
            print(action.to_json())
        return 0
    read = partial(json_fields, types=dict.fromkeys(("kind", "old", "new"), str),
                   defaults={"old": "", "new": ""})
    actions = tuple(EditAction(*fields) for fields in _map_lines(read, args.input))
    print(render_edits(EditScript(args.granularity, actions)))
    return 0


def _cmd_apply(args, parser) -> int:
    """apply and exec-program: the --wrong query, made canonical as
    _canonical says, with the edits applied; with --report, the token
    applier's report."""
    from .dataset import REPRESENTATIONS
    from .vm import apply_token_edits
    _check_choice(parser, "--granularity", args.granularity, REPRESENTATIONS)
    if args.report and args.granularity != "token":
        parser.error("--report requires --granularity token")
    wrong_sql = _canonical(_read(args.wrong).strip(), args, parser)
    rep = REPRESENTATIONS[args.granularity]
    edits = rep.parse_edits(_read(args.edits))
    if args.report:
        print(apply_token_edits(wrong_sql, edits).to_json())
    else:
        print(rep.apply(wrong_sql, edits))
    return 0


def _open_backend(args):
    """A context manager giving the SQLite backend of --db-dir, closed on
    exit, or None without one."""
    from .metrics import SqliteBackend
    return SqliteBackend(args.db_dir) if args.db_dir else nullcontext()


_EVAL_FIELDS = dict.fromkeys(("db_id", "gold", "pred"), str)


def _eval_line(line, schemas, backend):
    from .metrics import EvalOutcome, exact_set_match, execution_match, orders_result, query_rows
    db_id, gold_text, pred_text = json_fields(line, _EVAL_FIELDS)
    schema = schema_of(schemas, db_id)
    pred = parse_sql(pred_text, schema)
    gold = parse_sql(gold_text, schema)
    ex = None
    if backend is not None:
        pred_sql, gold_sql = render(pred), render(gold)
        gold_rows = query_rows(backend, gold_sql, db_id)
        pred_rows = gold_rows if pred_sql == gold_sql else query_rows(backend, pred_sql, db_id)
        ex = execution_match(pred_rows, gold_rows, orders_result(gold))
    return EvalOutcome(exact_set_match(pred, gold), ex)


def _cmd_eval(args, parser) -> int:
    schemas = _load_schema(args, parser)
    n = em = ex = 0
    with _open_backend(args) as backend:
        for outcome in _map_lines(partial(_eval_line, schemas=schemas, backend=backend),
                                  args.input, args.workers):
            print(outcome.to_json())
            n, em, ex = n + 1, em + outcome.em, ex + bool(outcome.ex)
    if n:
        summary = {"count": n, "em_acc": em / n}
        if backend is not None:
            summary["ex_acc"] = ex / n
        print(json.dumps(summary), file=sys.stderr)
    return 0


def _cmd_mcnemar(args, parser) -> int:
    from .metrics import mcnemar_counts
    b = c = 0
    for a_ok, b_ok in _map_lines(partial(json_fields, types={"a": bool, "b": bool}),
                                 args.input):
        b += a_ok and not b_ok
        c += (not a_ok) and b_ok
    print(mcnemar_counts(b, c).to_json())
    return 0


def _synth_line(line, **options):
    from .dataset import ParserOutput, synthesize_train
    output = ParserOutput.from_json(line)
    return [r.to_json() for r in synthesize_train([output], **options)]


def _cmd_synth(args, parser) -> int:
    from .dataset import EDIT_REPS, POLICIES, QUERY_REPS, representation
    _check_choice(parser, "--query-rep", args.query_rep, QUERY_REPS)
    _check_choice(parser, "--edit-rep", args.edit_rep, EDIT_REPS)
    _check_choice(parser, "--policy", args.policy, POLICIES)
    try:
        representation(args.query_rep, args.edit_rep)
    except DatasetError as exc:
        parser.error(str(exc))
    if args.program_only and args.edit_rep != "program":
        parser.error("--program-only requires --edit-rep program")
    schemas = _load_schema(args, parser)
    with _open_backend(args) as backend:
        synth = partial(_synth_line, schemas=schemas, backend=backend, policy=args.policy,
                        reps=[(args.query_rep, args.edit_rep)],
                        program_only=args.program_only)
        for records in _map_lines(synth, args.input, args.workers):
            for record in records:
                print(record)
    return 0


def _cmd_split_folds(args, parser) -> int:
    from .dataset import ParserOutput, split_folds
    outputs = list(_map_lines(ParserOutput.from_json, args.input))
    fold_of = {output.db_id: i for i, fold in enumerate(split_folds(outputs, args.folds))
               for output in fold}
    for db_id in dict.fromkeys(output.db_id for output in outputs):  # first-seen order
        print(json.dumps({"db_id": db_id, "fold": fold_of[db_id]}))
    return 0


def _cmd_build_dev(args, parser) -> int:
    from .dataset import ExampleRecord, build_dev_set
    records = list(_map_lines(ExampleRecord.from_json, args.input))
    split = build_dev_set(records, n_dbs=args.n_dbs, seed=args.seed)
    _write_files([(args.train_out, split.train), (args.dev_out, split.dev)])
    print(json.dumps({"train": len(split.train), "dev": len(split.dev)}))
    return 0


def _cmd_stats(args, parser) -> int:
    from .dataset import ExampleRecord, dataset_stats
    print(dataset_stats(_map_lines(ExampleRecord.from_json, args.input)).to_json())
    return 0


def _cmd_simulate(args, parser) -> int:
    from .interact import SubprocessGenerator
    if args.generator == "noisy" and not args.generator_cmd and args.seed is None:
        parser.error("--seed is required for the noisy generator")
    if args.generator_cmd is not None and not args.generator_cmd.split():
        parser.error("--generator-cmd names no program")
    if not 0 <= args.distractor_rate <= 1:
        parser.error("--distractor-rate must be between 0 and 1")
    schemas = _load_schema(args, parser)
    external = SubprocessGenerator(args.generator_cmd.split()) if args.generator_cmd else None
    with external or nullcontext():
        for session in _map_lines(partial(_simulate_line, schemas=schemas, args=args,
                                          external=external), args.input):
            print(session)
    return 0


def _simulate_line(line, schemas, args, external) -> str:
    from .dataset import ExampleRecord, representation
    from .interact import OracleGenerator, simulate
    record = ExampleRecord.from_json(line)
    schema = schema_of(schemas, record.db_id)
    rep = representation(record.query_rep, record.edit_rep)
    gold = rep.diff(parse_sql(record.wrong_sql, schema), parse_sql(record.gold_sql, schema))
    generator = external
    if generator is None:
        rate = {"oracle": 0.0, "adversarial": 1.0}.get(args.generator, args.distractor_rate)
        generator = OracleGenerator(gold, distractor_rate=rate, shuffle_seed=args.seed or 0,
                                    gold_sql=record.gold_sql)
    return simulate(record, gold, generator, beam_size=args.beam_size).to_json()


if __name__ == "__main__":
    sys.exit(main())
