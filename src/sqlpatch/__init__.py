"""sqlpatch: clause-level editing toolkit for text-to-SQL error correction.

Importing the package loads the front end (tokens, parse, normalize, schema,
render); every other public name loads its module on first access (PEP 562).
"""

from importlib import import_module

from .errors import SqlPatchError
from .nodes import Query
from .normalize import normalize
from .parse import parse, parse_sql
from .render import render
from .schema import SchemaInfo, load_tables_json, schema_from_entry
from .tokens import Token, detokenize, tokenize

__version__ = "0.1.0"

# The module that defines each public name. The front end is bound above:
# parse, normalize and render also name submodules, and a later import of
# one of those must not leave the module where the function was.
_EXPORTS = {name: module for module, names in {
    "clausemap": "CLAUSE_KEYS ClauseMap Composite decompose entry_sql sql_to_clause_map to_sql",
    "dataset": "DatasetSplit DatasetStats ExampleRecord ParserOutput build_dev_set "
               "dataset_stats split_folds synthesize_train",
    "diffs": "diff_clauses_pydict diff_clauses_sql diff_program diff_tokens",
    "editscript": "EditAction EditScript parse_edits render_edits",
    "errors": "SqlPatchError",
    "interact": "Candidate OracleGenerator SessionLog SubprocessGenerator simulate",
    "metrics": "EvalOutcome McNemarResult SqliteBackend exact_set_match execution_match "
               "mcnemar_counts query_rows",
    "nodes": "Query",
    "normalize": "normalize",
    "parse": "parse parse_sql",
    "program": "Assign EditProgram Pop parse_program render_program",
    "pydict": "parse_pydict render_pydict",
    "render": "render",
    "schema": "SchemaInfo load_tables_json schema_from_entry",
    "tokens": "Token detokenize tokenize",
    "vm": "ApplyReport apply_clause_edits apply_token_edits exec_program",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """A public name outside the front end, read once from its module and kept here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value
