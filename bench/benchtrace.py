"""Traced child process: time the calls into sqlpatch's public entry points.

    python bench/benchtrace.py STATS.json cli synth --schema ... input.jsonl
    python bench/benchtrace.py STATS.json sim --schema ... records.jsonl

Each entry point below is wrapped from outside the package, in every
``sqlpatch.*`` namespace that binds it (``from .x import y`` copies the
name, so patching one namespace would miss calls). A wrapper counts calls
and exceptions and accumulates self time: its span's duration minus the
time its child spans cover. Only these public functions are wrapped, which
keeps the traced run close to the untraced one. When the target returns, the totals and the SQLite counters go to
STATS.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import sqlite3
import sys
import time
from pathlib import Path

ENTRY_POINTS = {
    "tokens": ("tokenize", "detokenize"),
    "parse": ("parse", "parse_sql"),
    "normalize": ("normalize",),
    "render": ("render", "render_tokens"),
    "clausemap": ("decompose", "sql_to_clause_map", "to_sql"),
    "pydict": ("render_pydict", "parse_pydict"),
    "diffs": ("diff_tokens", "diff_clauses_sql", "diff_clauses_pydict", "diff_program"),
    "editscript": ("render_edits", "parse_edits"),
    "program": ("render_program", "parse_program"),
    "vm": ("exec_program", "apply_clause_edits", "apply_token_edits"),
    "metrics": ("exact_set_match", "execution_match", "SqliteBackend.execute"),
    "dataset": ("synthesize_train", "make_record"),
    "interact": ("simulate", "execute_selected", "OracleGenerator.propose"),
    "schema": ("load_tables_json",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in ENTRY_POINTS.items()
                   for name in names)


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0] for name in SPAN_NAMES}  # calls, self s, errors
        self._children = [0.0]  # time covered by child spans, per open span
        self.connections = 0
        self.executed: list[tuple[str, str]] = []

    def wrap(self, name: str, fn):
        stats = self.stats[name]
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats[2] += 1
                raise
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed - children.pop()
                children[-1] += elapsed

        return span

    def install(self) -> None:
        for module in ENTRY_POINTS:
            importlib.import_module(f"sqlpatch.{module}")
        namespaces = [m for n, m in sys.modules.items()
                      if n == "sqlpatch" or n.startswith("sqlpatch.")]
        for module, names in ENTRY_POINTS.items():
            mod = sys.modules[f"sqlpatch.{module}"]
            for name in names:
                span_name = f"{module}.{name}"
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self._hooked(span_name, original))
                    continue
                original = getattr(mod, name)
                wrapped = self.wrap(span_name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapped)
        connect = sqlite3.connect

        def counted_connect(*args, **kwargs):
            self.connections += 1
            return connect(*args, **kwargs)

        sqlite3.connect = counted_connect

    def _hooked(self, span_name, original):
        wrapped = self.wrap(span_name, original)
        if span_name != "metrics.SqliteBackend.execute":
            return wrapped
        executed = self.executed

        def execute(backend, sql, db_id):
            executed.append((db_id, sql))
            return wrapped(backend, sql, db_id)

        return functools.wraps(original)(execute)

    def report(self) -> dict:
        out = {name: {"calls": calls, "self_ms": self_s * 1000, "errors": errors}
               for name, (calls, self_s, errors) in self.stats.items()}
        out["sqlite"] = {"connections": self.connections,
                         "executions": len(self.executed),
                         "distinct": len(set(self.executed))}
        return out


def main(argv) -> int:
    stats_path, target, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        if target == "cli":
            code = sys.modules["sqlpatch.cli"].main(rest)
        elif target == "sim":
            import simdrive  # this script's directory is on sys.path

            code = simdrive.main(rest)
        else:
            raise SystemExit(f"unknown target {target!r}")
    finally:
        sys.stdout.flush()
        Path(stats_path).write_text(json.dumps(tracer.report()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
