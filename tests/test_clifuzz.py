"""Seeded fuzz of the eight JSONL subcommands, run in-process through
``cli.main``. Each command reads a valid line of another database and then
one mutated line: every truncation of a valid seed line, random
single-character substitutions, number forms that the tokenizer rejects in
place of a SQL number, and every field, nested ones included, replaced by a
value of each JSON kind. Every run must exit 0 or 1 with no
exception escaping ``main``, and each stdout line of the commands that
print JSON must parse as strict JSON (no ``NaN`` or ``Infinity``). The same
lines, read from a file with bytes that are not UTF-8 put into the second,
must end with status 1 and an error that names the file."""

import contextlib
import io
import json
import random
import sys

import pytest

from sqlpatch import cli
from sqlpatch.dataset import ParserOutput, synthesize_train

SEED = 20231018
SUBSTITUTIONS = 40
REPLACEMENTS = ['"3"', "3", "2.5", "true", "null", "[]", "{}", "NaN"]
SUBSTITUTE_CHARS = '{}[]":,\\ 0123456789.-eEtrufalsné '
# number forms the tokenizer rejects, put in place of the SQL number 2
NUMBER_FORMS = ["1e3", "1E3", "1.5e3", ".5", "5."]
STRICT_JSON_OUTPUT = {"synth", "eval", "simulate", "stats"}


def _beam(db_id, table, column):
    return ParserOutput(db_id, f"which {column}?", f"select {table}.{column} from {table}",
                        ((f"select {table}.{column} from {table} limit 2", 1.0),
                         (f"select count(*) from {table}", 0.5)))


def _seed_lines(schemas):
    """command -> (a valid line of the cars database, the line to mutate)."""
    beams = [_beam("cars", "cars_data", "mpg"), _beam("social", "tweets", "text")]
    records = [synthesize_train([b], schemas)[0].to_json() for b in beams]
    beam_lines = [b.to_json() for b in beams]
    evals = [json.dumps({"db_id": b.db_id, "gold": b.gold_sql, "pred": b.beam[0][0]})
             for b in beams]
    return {
        "eval": evals, "synth": beam_lines, "split-folds": beam_lines,
        "mcnemar": [json.dumps({"a": True, "b": False}), json.dumps({"a": False, "b": True})],
        "render-edits": [json.dumps({"kind": "delete", "old": "limit 2"}),
                         json.dumps({"kind": "replace", "old": "where tweets.id > 1",
                                     "new": "where tweets.id > 2"})],
        "build-dev": records, "stats": records, "simulate": records,
    }


def _paths(value, path=()):
    """The path of every value inside a decoded JSON value, itself excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


def _replaced(obj, path, text):
    """obj as JSON text with the value at path replaced by the JSON text given."""
    marker = "\x00marker"
    copy = json.loads(json.dumps(obj))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = marker
    return json.dumps(copy).replace(json.dumps(marker), text)


def _mutations(line):
    rng = random.Random(f"{SEED}:{line}")
    yield from (line[:n] for n in range(len(line)))
    for _ in range(SUBSTITUTIONS):
        n = rng.randrange(len(line))
        yield line[:n] + rng.choice(SUBSTITUTE_CHARS) + line[n + 1:]
    for form in NUMBER_FORMS:
        yield line.replace("limit 2", f"limit {form}").replace("> 2", f"> {form}")
    obj = json.loads(line)
    for path in _paths(obj):
        yield from (_replaced(obj, path, text) for text in REPLACEMENTS)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _run(args, stdin, monkeypatch):
    """The exit status and stdout of cli.main, or the exception that escaped it."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(args)
    except (Exception, SystemExit) as exc:
        return exc, out.getvalue()
    return code, out.getvalue()


@pytest.mark.parametrize("command", ["eval", "synth", "mcnemar", "render-edits",
                                     "split-folds", "build-dev", "stats", "simulate"])
def test_mutated_lines_exit_cleanly(command, schemas, tables_json_path, tmp_path,
                                    monkeypatch):
    schema = ["--schema", str(tables_json_path)]
    args = {
        "eval": ["eval", *schema], "synth": ["synth", *schema], "mcnemar": ["mcnemar"],
        "render-edits": ["render-edits", "--granularity", "clause-sql"],
        "split-folds": ["split-folds", "--folds", "2"],
        "build-dev": ["build-dev", "--n-dbs", "1", "--seed", "0",
                      "--train-out", str(tmp_path / "train"),
                      "--dev-out", str(tmp_path / "dev")],
        "stats": ["stats"], "simulate": ["simulate", *schema],
    }[command]
    # argparse parsers are reusable; building one per run would take most of the time
    parser = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: parser)
    context, line = _seed_lines(schemas)[command]
    code, stdout = _run(args, context + "\n" + line + "\n", monkeypatch)
    assert code == 0 and stdout, "the unmutated seed lines must succeed"
    failures = []
    for mutated in _mutations(line):
        code, stdout = _run(args, context + "\n" + mutated + "\n", monkeypatch)
        if code not in (0, 1):
            failures.append((mutated, repr(code)))
        elif command in STRICT_JSON_OUTPUT:
            try:
                for out_line in stdout.splitlines():
                    json.loads(out_line, parse_constant=_reject_constant)
            except ValueError as exc:
                failures.append((mutated, f"stdout is not strict JSON: {exc}"))
    assert not failures, f"{len(failures)} failing lines, first: {failures[:3]}"


# byte runs that are not UTF-8: a stray continuation byte, bytes that never
# start a character, a truncated two- and three-byte sequence, an encoded
# surrogate and an overlong form
INVALID_UTF8 = [b"\x80", b"\xff", b"\xfe", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"]


@pytest.mark.parametrize("command", ["eval", "synth", "mcnemar", "render-edits",
                                     "split-folds", "build-dev", "stats", "simulate"])
def test_input_files_that_are_not_utf8_exit_cleanly(command, schemas, tables_json_path,
                                                    tmp_path):
    """The seed lines as a file, with invalid UTF-8 put at the start, the
    middle or the end of the second line: every run ends with status 1 and
    one error line that names the file."""
    schema = ["--schema", str(tables_json_path)]
    args = {
        "eval": ["eval", *schema], "synth": ["synth", *schema], "mcnemar": ["mcnemar"],
        "render-edits": ["render-edits", "--granularity", "clause-sql"],
        "split-folds": ["split-folds", "--folds", "2"],
        "build-dev": ["build-dev", "--n-dbs", "1", "--seed", "0",
                      "--train-out", str(tmp_path / "train"),
                      "--dev-out", str(tmp_path / "dev")],
        "stats": ["stats"], "simulate": ["simulate", *schema],
    }[command]
    context, line = (text.encode() for text in _seed_lines(schemas)[command])
    path = tmp_path / "input.jsonl"
    failures = []
    for bad in INVALID_UTF8:
        for at in (0, len(line) // 2, len(line)):
            path.write_bytes(context + b"\n" + line[:at] + bad + line[at:] + b"\n")
            err = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main(args + [str(path)])
            except (Exception, SystemExit) as exc:
                code = exc
            if code != 1 or not err.getvalue().startswith(f"error: cannot read {path}: ") \
                    or err.getvalue().count("\n") != 1:
                failures.append((bad, at, repr(code), err.getvalue()))
    assert not failures, f"{len(failures)} failing files, first: {failures[:3]}"
