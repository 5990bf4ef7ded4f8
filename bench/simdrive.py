"""Run the simulated-interaction protocol over records, one session each.

    python bench/simdrive.py --schema tables.json records.jsonl

Each record gets the gold edits of its representation and an
``OracleGenerator`` at distractor rate 0.5 and shuffle seed 1, and prints
one JSON line: ``{"ms": session time, "log": session log}``, or ``{"ms",
"error", "message"}`` when sqlpatch raises. Sessions are driven through
the public API rather than ``sqlpatch simulate``, because that command
stops the whole run at the first session that raises.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import sqlpatch
from sqlpatch.errors import SqlPatchError

DISTRACTOR_RATE = 0.5
SHUFFLE_SEED = 1
BEAM_SIZE = 3


def gold_edits(record, schema):
    """The gold script or program of a record, in its representation."""
    wrong = sqlpatch.parse_sql(record.wrong_sql, schema)
    gold = sqlpatch.parse_sql(record.gold_sql, schema)
    if record.edit_rep == "program":
        return sqlpatch.diff_program(sqlpatch.decompose(wrong), sqlpatch.decompose(gold))
    if record.edit_rep == "token":
        return sqlpatch.diff_tokens(wrong, gold)
    if record.query_rep == "sql":
        return sqlpatch.diff_clauses_sql(wrong, gold)
    return sqlpatch.diff_clauses_pydict(sqlpatch.decompose(wrong), sqlpatch.decompose(gold))


def session(record, schema) -> str:
    start = time.perf_counter()
    try:
        gold = gold_edits(record, schema)
        generator = sqlpatch.OracleGenerator(gold, distractor_rate=DISTRACTOR_RATE,
                                             shuffle_seed=SHUFFLE_SEED, gold_sql=record.gold_sql)
        log = sqlpatch.simulate(record, gold, generator, beam_size=BEAM_SIZE)
    except SqlPatchError as exc:
        ms = (time.perf_counter() - start) * 1000
        return json.dumps({"ms": ms, "error": type(exc).__name__, "message": str(exc)})
    ms = (time.perf_counter() - start) * 1000
    return f'{{"ms": {ms!r}, "log": {log.to_json()}}}'


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--schema", required=True)
    parser.add_argument("input")
    args = parser.parse_args(argv)
    schemas = sqlpatch.load_tables_json(args.schema)
    with open(args.input, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    out = sys.stdout
    for line in lines:
        record = sqlpatch.ExampleRecord.from_json(line)
        out.write(session(record, schemas[record.db_id]) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
