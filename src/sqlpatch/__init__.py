"""sqlpatch: clause-level editing toolkit for text-to-SQL error correction."""

from .clausemap import (
    CLAUSE_KEYS, ClauseMap, Composite, decompose, entry_sql, sql_to_clause_map,
    to_sql,
)
from .dataset import (
    DatasetSplit, DatasetStats, ExampleRecord, ParserOutput, build_dev_set,
    dataset_stats, serialize_example, split_folds, synthesize_train,
)
from .diffs import diff_clauses_pydict, diff_clauses_sql, diff_program, diff_tokens
from .editscript import EditAction, EditScript, parse_edits, render_edits
from .errors import SqlPatchError
from .interact import (
    Candidate, OracleGenerator, SessionLog, SubprocessGenerator, simulate,
)
from .metrics import (
    EvalOutcome, McNemarResult, SqliteBackend, exact_set_match, execution_match,
    mcnemar, mcnemar_counts, query_rows,
)
from .nodes import Query
from .normalize import normalize
from .parse import parse, parse_sql
from .program import Assign, EditProgram, Pop, parse_program, render_program
from .pydict import parse_pydict, render_pydict
from .render import render
from .schema import SchemaInfo, load_tables_json, schema_from_entry
from .tokens import Token, detokenize, tokenize
from .vm import ApplyReport, apply_clause_edits, apply_token_edits, exec_program

__version__ = "0.1.0"

__all__ = [
    "ApplyReport", "Assign", "CLAUSE_KEYS", "Candidate", "ClauseMap",
    "Composite", "DatasetSplit", "DatasetStats", "EditAction", "EditProgram",
    "EditScript", "EvalOutcome", "ExampleRecord", "McNemarResult",
    "OracleGenerator", "ParserOutput", "Pop", "Query", "SchemaInfo",
    "SessionLog", "SqlPatchError", "SqliteBackend", "SubprocessGenerator",
    "Token", "apply_clause_edits", "apply_token_edits", "build_dev_set",
    "dataset_stats", "decompose", "detokenize", "diff_clauses_pydict",
    "diff_clauses_sql", "diff_program", "diff_tokens", "entry_sql",
    "exact_set_match", "exec_program", "execution_match", "load_tables_json",
    "mcnemar", "mcnemar_counts", "normalize", "parse", "parse_edits",
    "parse_program", "parse_pydict", "parse_sql", "query_rows", "render",
    "render_edits", "render_program", "render_pydict", "schema_from_entry",
    "serialize_example", "simulate", "split_folds", "sql_to_clause_map",
    "synthesize_train", "to_sql", "tokenize",
]
