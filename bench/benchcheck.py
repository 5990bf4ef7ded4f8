"""Expected outputs of the benchmark workloads, and the checks against them.

Verdicts are worked out from the generator's own knowledge of each input
(which beam entry is the gold, a variant, a wrong query or ungrammatical)
and from SQLite itself, queried here with ``sqlite3`` directly, so a
defect in sqlpatch cannot vouch for its own output. The round-trip checks
(a program rebuilds the gold query, a pydict reassembles to it) do call
sqlpatch, but other functions than the ones that produced the output.
"""

from __future__ import annotations

import json
import sqlite3
from collections import Counter
from pathlib import Path

import benchgen

RECORD_FIELDS = frozenset((
    "db_id", "question", "schema_serial", "wrong_sql", "gold_sql", "query_rep",
    "edit_rep", "x", "y", "n_edits", "beam_rank", "beam_score"))
EVAL_FIELDS = frozenset(("em", "ex"))
LOG_FIELDS = frozenset(("steps", "selected", "result_sql", "fully_corrected"))
ACTION_MARKERS = ("<ReplaceOld>", "<Insert>", "<Delete>")


# ---------------------------------------------------------------------------
# Databases and the execution oracle


def build_databases(db_dir: Path, seed: int) -> None:
    """Write one SQLite file per schema, Spider layout."""
    for db_id, tables in benchgen.database_rows(seed).items():
        (db_dir / db_id).mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(db_dir / db_id / f"{db_id}.sqlite")
        try:
            with conn:
                for table, rows in tables.items():
                    cols = benchgen.SCHEMAS[db_id][table]
                    decl = ", ".join(f"{c} {'TEXT' if t == 'text' else t.upper()}"
                                     for c, t in cols)
                    conn.execute(f"CREATE TABLE {table} ({decl})")
                    marks = ", ".join("?" * len(cols))
                    conn.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)
        finally:
            conn.close()


class Oracle:
    """Runs queries with sqlite3 directly, one connection per database."""

    def __init__(self, db_dir: Path):
        self.db_dir = db_dir
        self.conns: dict[str, sqlite3.Connection] = {}

    def rows(self, db_id: str, sql: str):
        """Result rows, or None when SQLite rejects the query."""
        conn = self.conns.get(db_id)
        if conn is None:
            path = self.db_dir / db_id / f"{db_id}.sqlite"
            conn = self.conns[db_id] = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        try:
            return conn.execute(sql).fetchall()
        except sqlite3.Error:
            return None

    def close(self):
        for conn in self.conns.values():
            conn.close()
        self.conns.clear()


def _cell(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return value


def ex_match(pred_rows, gold_rows, ordered: bool) -> bool:
    """README rule: multisets, or sequences when the gold query orders its
    result; numeric cells compare numerically; an erroring query never
    matches."""
    if pred_rows is None or gold_rows is None:
        return False
    a = [tuple(map(_cell, r)) for r in pred_rows]
    b = [tuple(map(_cell, r)) for r in gold_rows]
    return a == b if ordered else Counter(a) == Counter(b)


# ---------------------------------------------------------------------------
# synth


def expected_synth(items: list[dict], oracle: Oracle | None = None,
                   policy: str = "either") -> list[tuple]:
    """(question index, beam rank, wrong canonical text) of every record, in
    output order. Ungrammatical entries and repeats of an earlier entry's
    canonical text are dropped; with a database, so are entries SQLite
    rejects. The gold and its variants are correct under both metrics.
    Every other entry differs from the gold by exact set match, so under
    policy ``either`` it becomes a record; under ``both`` it becomes one
    only when its rows, as SQLite returns them here, differ from the
    gold's."""
    out = []
    for qi, item in enumerate(items):
        seen = set()
        for rank, (_, canon) in enumerate(item["entries"]):
            if canon is None or canon in seen:
                continue
            seen.add(canon)
            if canon == item["gold"]:
                continue
            if oracle is not None:
                rows = oracle.rows(item["db_id"], canon)
                if rows is None:
                    continue
                if policy == "both" and ex_match(rows, oracle.rows(item["db_id"], item["gold"]),
                                                 item["ordered"]):
                    continue
            out.append((qi, rank, canon))
    return out


def check_synth(text: str, items: list[dict], expected: list[tuple],
                query_rep: str, edit_rep: str) -> list[str]:
    from sqlpatch import (
        exec_program, parse_program, parse_pydict, sql_to_clause_map, to_sql,
    )

    problems = []
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != len(expected):
        problems.append(f"synth: {len(lines)} records, expected {len(expected)}")
    for line, (qi, rank, wrong) in zip(lines, expected):
        rec = json.loads(line)
        item = items[qi]
        beam = json.loads(item["line"])
        where = f"synth record q{qi} rank {rank}"
        if set(rec) != RECORD_FIELDS:
            problems.append(f"{where}: fields {sorted(rec)}")
            continue
        serial = benchgen.schema_serial(item["db_id"])
        want = {"db_id": item["db_id"], "question": beam["question"],
                "schema_serial": serial, "wrong_sql": wrong, "gold_sql": item["gold"],
                "query_rep": query_rep, "edit_rep": edit_rep, "beam_rank": rank,
                "beam_score": beam["beam"][rank]["score"]}
        bad = [k for k, v in want.items() if rec[k] != v]
        if bad:
            problems.append(f"{where}: wrong {bad}: {[rec[k] for k in bad]}")
            continue
        head = f"{beam['question']} | {serial} | "
        if not rec["x"].startswith(head):
            problems.append(f"{where}: x does not start with question | schema")
            continue
        wrong_repr = rec["x"][len(head):]
        edits, sep, gold_repr = rec["y"].partition(" <sep> ")
        try:
            if query_rep == "sql":
                reprs_ok = wrong_repr == wrong and gold_repr == item["gold"]
            else:
                reprs_ok = (to_sql(parse_pydict(wrong_repr)) == wrong
                            and to_sql(parse_pydict(gold_repr)) == item["gold"])
            if edit_rep == "program":
                count = len(edits.splitlines())
                rebuilt = to_sql(exec_program(sql_to_clause_map(wrong), parse_program(edits)))
                if rebuilt != item["gold"]:
                    problems.append(f"{where}: program rebuilds {rebuilt!r}")
            else:
                count = sum(edits.count(m) for m in ACTION_MARKERS)
        except Exception as exc:  # any failure to read the output is a wrong output
            problems.append(f"{where}: unreadable output: {type(exc).__name__}: {exc}")
            continue
        if not sep or not reprs_ok:
            problems.append(f"{where}: x/y query representations do not match")
        if count != rec["n_edits"] or count < 1:
            problems.append(f"{where}: n_edits {rec['n_edits']}, y has {count}")
    return problems


# ---------------------------------------------------------------------------
# eval


def expected_eval(pairs: list[dict], oracle: Oracle) -> list[dict]:
    return [{"em": p["em"],
             "ex": ex_match(oracle.rows(p["db_id"], p["pred"]),
                            oracle.rows(p["db_id"], p["gold"]), p["ordered"])}
            for p in pairs]


def check_eval(text: str, expected: list[dict]) -> tuple[list[str], int]:
    """Problems, and the number of pairs with no output line."""
    problems = []
    lines = [line for line in text.splitlines() if line.strip()]
    for i, (line, want) in enumerate(zip(lines, expected)):
        got = json.loads(line)
        if set(got) != EVAL_FIELDS:
            problems.append(f"eval line {i + 1}: fields {sorted(got)}")
        elif got != want:
            problems.append(f"eval line {i + 1}: {got}, expected {want}")
    return problems, max(0, len(expected) - len(lines))


# ---------------------------------------------------------------------------
# simulate


def check_sim(text: str, records: list[dict]) -> tuple[list[str], dict[int, str], list[float]]:
    """Problems, the error class of each failed session by record index, and
    session times in ms.

    Every session selects all gold actions, since the oracle always offers
    them. Program and clause sessions must end on the gold query; token
    sessions apply edits best-effort and need not. A session that raises
    is failed; unless it is the known ``execute_selected`` defect (an
    ``ApplyError`` in a clause session), it is also a problem."""
    problems, errors, times = [], {}, []
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != len(records):
        errors.update((i, "missing") for i in range(len(lines), len(records)))
        problems.append(f"simulate: {len(lines)} sessions, expected {len(records)}")
    for i, (line, rec) in enumerate(zip(lines, records)):
        got = json.loads(line)
        where = f"simulate record {i + 1} ({rec['query_rep']}/{rec['edit_rep']})"
        if "error" in got:
            errors[i] = got["error"]
            if got["error"] != "ApplyError" or rec["edit_rep"] != "clause":
                problems.append(f"{where}: {got['error']}: {got['message']}")
            continue
        times.append(got["ms"])
        log = got["log"]
        if set(log) != LOG_FIELDS:
            problems.append(f"{where}: fields {sorted(log)}")
        elif len(log["selected"]) != rec["n_edits"]:
            problems.append(f"{where}: selected {len(log['selected'])} of {rec['n_edits']}")
        elif rec["edit_rep"] != "token" and not (
                log["fully_corrected"] and log["result_sql"] == rec["gold_sql"]):
            problems.append(f"{where}: ended on {log['result_sql']!r}")
    return problems, errors, times


def sim_output_key(text: str) -> list[str]:
    """Session output with the timings removed, for comparing runs."""
    out = []
    for line in text.splitlines():
        if line.strip():
            got = json.loads(line)
            got.pop("ms", None)
            out.append(json.dumps(got, sort_keys=True))
    return out
