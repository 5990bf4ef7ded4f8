"""Database schema model and loader for the Spider tables.json layout, and
the field reader of the JSON lines that every JSONL command takes."""

from __future__ import annotations

import json
import sys
from typing import Optional

from .errors import DatasetError, SchemaError
from .nodes import Record


class SchemaInfo(Record, hashable=True):
    __slots__ = ("db_id", "tables", "columns", "foreign_keys")

    def __init__(self, db_id: str, tables: tuple[str, ...],
                 columns: Optional[dict[str, tuple[str, ...]]] = None,
                 foreign_keys: tuple[tuple[str, str], ...] = ()):
        if len(set(tables)) != len(tables):
            raise SchemaError(f"duplicate table names in schema {db_id!r}")
        self.db_id, self.tables, self.foreign_keys = db_id, tables, foreign_keys
        self.columns = {} if columns is None else columns
        for table in tables:
            if table not in self.columns:
                raise SchemaError(f"table {table!r} has no column list")

    def has_table(self, name: str) -> bool:
        return name in self.columns

    def has_column(self, table: str, column: str) -> bool:
        return column in self.columns.get(table, ())

    def serialize(self) -> str:
        """Flat text form: ``db_id | table : col, col | table : ...`` (lowercase)."""
        parts = [self.db_id.lower()]
        for table in self.tables:
            parts.append(f"{table} : " + ", ".join(self.columns[table]))
        return " | ".join(parts)


def schema_from_entry(entry: dict) -> SchemaInfo:
    """Build SchemaInfo from one tables.json object."""
    db_id = entry["db_id"]
    table_names = entry.get("table_names_original") or entry["table_names"]
    column_pairs = entry.get("column_names_original") or entry["column_names"]
    tables = tuple(t.lower() for t in table_names)
    columns: dict[str, list[str]] = {t: [] for t in tables}
    flat_cols: list[tuple[int, str]] = []
    for table_idx, col_name in column_pairs:
        flat_cols.append((table_idx, col_name.lower()))
        if table_idx < 0:  # the "*" pseudo-column
            continue
        if table_idx >= len(tables):
            raise SchemaError(f"column {col_name!r} references missing table index {table_idx}")
        columns[tables[table_idx]].append(col_name.lower())
    fks = []
    for col_idx, other_idx in entry.get("foreign_keys") or []:
        fks.append((_qualify(flat_cols, tables, col_idx),
                    _qualify(flat_cols, tables, other_idx)))
    return SchemaInfo(
        db_id=db_id,
        tables=tables,
        columns={t: tuple(cols) for t, cols in columns.items()},
        foreign_keys=tuple(fks),
    )


def _qualify(flat_cols, tables, idx):
    try:
        table_idx, col = flat_cols[idx]
    except IndexError:
        raise SchemaError(f"foreign key references missing column index {idx}") from None
    if table_idx < 0:
        raise SchemaError("foreign key references the * pseudo-column")
    return f"{tables[table_idx]}.{col}"


def load_tables_json(path) -> dict[str, SchemaInfo]:
    """Load a Spider-layout tables.json file into a db_id -> SchemaInfo map."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot load schema file {path}: {exc}") from None
    if not isinstance(data, list):
        raise SchemaError("tables.json must contain a JSON array of schema objects")
    store = {}
    for i, entry in enumerate(data):
        try:
            info = schema_from_entry(entry)
        except (SchemaError, KeyError, TypeError, AttributeError, ValueError) as exc:
            db_id = entry.get("db_id") if isinstance(entry, dict) else None
            name = "" if db_id is None else f" ({db_id!r})"
            detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise SchemaError(f"tables.json entry {i}{name}: {detail}") from None
        store[info.db_id] = info
    return store


def json_fields(line: str, types: dict, only: bool = False, defaults=None) -> list:
    """The fields named in types of the JSON object on one input line, in
    that order, a missing one read from defaults when it is there; a
    DatasetError when the line is not a JSON object, lacks any other of
    them, holds one that is not of its type or, if only is set, holds any
    other field."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise DatasetError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DatasetError(f"expected a JSON object, got {type(obj).__name__}")
    defaults = defaults or {}
    for name, kind in types.items():
        if name not in obj:
            if name not in defaults:
                raise DatasetError(f"missing field {name!r}")
        elif not has_type(obj[name], kind):
            raise DatasetError(f"field {name!r} must be {_KIND_NAMES[kind]}, "
                               f"got {type(obj[name]).__name__}")
    if only:
        for name in obj:
            if name not in types:
                raise DatasetError(f"unknown field {name!r}")
    return [obj[name] if name in obj else defaults[name] for name in types]


def has_type(value, kind) -> bool:
    """Whether a JSON-decoded value is of kind: an int is never a bool, a
    float is any finite number, and a number of either kind fits a float,
    so that a mean of such numbers is one too."""
    if kind is int or kind is float:
        return type(value) in (int, kind) and abs(value) <= sys.float_info.max
    return type(value) is kind


_KIND_NAMES = {str: "a string", bool: "a boolean", int: "an integer",
               float: "a finite number", list: "a list"}
