"""Execution of edit programs and application of edit scripts.

Programs address entries by explicit path, so execution is unambiguous.
A clause script is first located, without changing the map, as the clause
diff's own items with their paths (:func:`locate_clause_edits`), and then
written at those paths as program statements are. Token scripts are
applied best-effort at the leftmost match and report ambiguity instead of
failing.
"""

from __future__ import annotations

from collections import deque

from .clausemap import (
    CLAUSE_INDEX, SET_OP_KEYS, ClauseMap, Composite, clause_entries, entry_from_clause_text,
    sql_to_clause_map,
)
from .diffs import DiffItem
from .editscript import EditScript
from .errors import ApplyError, ExecError, MapError, PyDictError, SqlPatchError, TokenizeError
from .nodes import Record
from .program import Assign, EditProgram
from .pydict import parse_entry_fragments
from .tokens import detokenize, tokenize


class ApplyReport(Record, hashable=True):
    __slots__ = ("result", "ambiguous_spans", "skipped")

    def __init__(self, result: str, ambiguous_spans: int = 0, skipped: int = 0):
        self.result, self.ambiguous_spans, self.skipped = result, ambiguous_spans, skipped


# ---------------------------------------------------------------------------
# Edit-program interpreter


def exec_program(cm: ClauseMap, program: EditProgram) -> ClauseMap:
    out = cm.copy()
    for stmt in program.stmts:
        if isinstance(stmt, Assign):
            _exec_assign(out, stmt)
        else:
            _pop(out, stmt.path, stmt.key)
    return out


def _exec_assign(root: ClauseMap, stmt: Assign) -> None:
    container = _descend(root, stmt.path[:-1])
    key = stmt.path[-1]
    try:
        if isinstance(container, ClauseMap):  # a set operation's value is a query
            container.set(key, sql_to_clause_map(stmt.value) if key in SET_OP_KEYS
                          else entry_from_clause_text(key, stmt.value))
        elif key in container.subqueries:
            container.subqueries[key] = sql_to_clause_map(stmt.value)
        else:  # a Composite takes only the placeholders its clause text references
            raise MapError(f"placeholder {key!r} is not referenced by the clause text")
    except SqlPatchError as exc:
        raise ExecError(f"cannot assign {_fmt(stmt.path)}: {exc}") from None


def _pop(root: ClauseMap, path, key: str) -> None:
    container = _descend(root, path)
    if isinstance(container, Composite):
        raise ExecError(
            f"cannot pop {key!r} from {_fmt(path)}: the clause text "
            f"still references its placeholders")
    if key not in container:
        raise ExecError(f"pop of absent key {key!r} at {_fmt(path)}")
    container.pop(key)


def _descend(root: ClauseMap, path):
    node = root
    for i, key in enumerate(path):
        if isinstance(node, ClauseMap):
            entry = node.get(key)
            if entry is None:
                raise ExecError(f"missing intermediate key {key!r} in {_fmt(path[:i + 1])}")
            node = entry
        elif isinstance(node, Composite):
            sub = node.subqueries.get(key)
            if sub is None:
                raise ExecError(f"missing subquery {key!r} in {_fmt(path[:i + 1])}")
            node = sub
        else:
            raise ExecError(f"{_fmt(path[:i])} is plain clause text, cannot descend into it")
    if isinstance(node, str):
        raise ExecError(f"{_fmt(path)} is plain clause text, cannot descend into it")
    return node


def _fmt(path) -> str:
    return "sql" + "".join(f'["{p}"]' for p in path)


# ---------------------------------------------------------------------------
# Clause-level script application


def apply_clause_edits(cm: ClauseMap, script: EditScript) -> ClauseMap:
    """Locate the script's actions in ``cm``, then write each at its path."""
    out = cm.copy()
    for item in locate_clause_edits(cm, script):
        if item.kind == "delete":
            (key, _), = item.old
            _pop(out, item.path, key)
            continue
        container = _descend(out, item.path)
        for key, entry in item.pairs:
            container.set(key, entry)
    return out


def locate_clause_edits(cm: ClauseMap, script: EditScript) -> list[DiffItem]:
    """The script's actions as diff items at the paths of the maps they
    edit, found without changing ``cm``. Actions are taken in order along
    the canonical walk of ``cm``: a replace or delete anchors where its key
    holds its old content; an insert goes into the map of the most recently
    located item when its keys are free there, else into the first map
    along the walk whose keys are free and some of which that map holds."""
    if script.granularity not in ("clause-sql", "clause-pydict"):
        raise ApplyError(f"not a clause-level script: {script.granularity!r}")
    todo = deque(_read_action(a, script.granularity) for a in script.actions)
    located: list[DiffItem] = []
    held: dict[tuple, set] = {}
    _locate(cm, (), todo, held, located)
    if todo:
        item = todo[0]
        if item.kind != "insert":
            raise ApplyError(f"anchor clause not found for {item.kind} of {item.old[0][0]!r}")
        keys = [key for key, _ in item.pairs]
        present = [key for key in keys if key in held[()]]
        if present:
            raise ApplyError(f"insert of already-present key {present[0]!r}")
        raise ApplyError(f"could not place insert of {keys}")
    return located


def _locate(current: ClauseMap, path: tuple, todo: deque, held: dict, located: list) -> None:
    """Walk ``current`` in canonical order, moving each action at the head
    of ``todo`` that anchors or lands in it to ``located``. ``held`` maps
    the path of each map walked to the keys it holds once ``located`` is
    written."""
    keys = held[path] = set(current.keys())
    for key, entry in current.items():
        _place_inserts(path, CLAUSE_INDEX[key], todo, held, located)
        if todo and todo[0].old == ((key, entry),):  # an insert has no old side
            item = todo.popleft()
            if item.kind == "delete":
                keys.remove(key)
            located.append(DiffItem(item.kind, path, item.pairs, item.old))
        elif isinstance(entry, Composite):
            for sid, sub in entry.subqueries.items():
                _locate(sub, path + (key, sid), todo, held, located)
        elif isinstance(entry, ClauseMap):
            _locate(entry, path + (key,), todo, held, located)
    _place_inserts(path, len(CLAUSE_INDEX), todo, held, located)


def _place_inserts(path: tuple, bound: int, todo: deque, held: dict, located: list) -> None:
    """Locate the inserts at the head of ``todo`` that land in the map at
    ``path`` ahead of its key with index ``bound``."""
    last = located[-1].path if located else ()
    while todo and todo[0].kind == "insert":
        keys = [key for key, _ in todo[0].pairs]
        if (CLAUSE_INDEX[keys[0]] >= bound or any(key in held[path] for key in keys)
                or path != last and not any(key in held[last] for key in keys)):
            return
        held[path].update(keys)
        located.append(DiffItem("insert", path, todo.popleft().pairs))
        last = path


def _read_action(action, granularity: str) -> DiffItem:
    """One action's content as a diff item whose path is yet to be found."""
    old = tuple(clause_content_pairs(action.old, granularity)) if action.old else ()
    new = tuple(clause_content_pairs(action.new, granularity)) if action.new else ()
    if action.kind == "insert":
        return DiffItem("insert", (), new)
    if action.kind == "delete":
        if len(old) != 1:
            raise ApplyError(f"delete content must name exactly one clause: {action.old!r}")
        return DiffItem("delete", (), (), old)
    if len(old) != 1 or len(new) != 1:
        raise ApplyError("replace content must name exactly one clause on each side")
    if old[0][0] != new[0][0]:
        raise ApplyError(f"replace changes clause key {old[0][0]!r} -> {new[0][0]!r}")
    return DiffItem("replace", (), new, old)


def clause_content_pairs(text: str, granularity: str) -> list:
    """The (key, entry) pairs named by one clause-level action's content:
    clause texts at ``clause-sql``, dictionary entries at ``clause-pydict``."""
    try:
        if granularity == "clause-pydict":
            return parse_entry_fragments(text)
        return clause_entries(text)
    except (MapError, PyDictError, TokenizeError) as exc:
        raise ApplyError(f"malformed action content: {exc}") from None


# ---------------------------------------------------------------------------
# Token-level application


def apply_token_edits(wrong: str, script: EditScript) -> ApplyReport:
    if script.granularity != "token":
        raise ApplyError(f"not a token-level script: {script.granularity!r}")
    tokens = [t.text for t in tokenize(wrong)]
    ambiguous = 0
    skipped = 0
    for action in script.actions:
        if action.kind == "insert":
            tokens.extend(t.text for t in tokenize(action.new))
            continue
        span = [t.text for t in tokenize(action.old)]
        hits = _find_runs(tokens, span)
        if not hits:
            skipped += 1
            continue
        if len(hits) > 1:
            ambiguous += 1
        start = hits[0]
        replacement = [t.text for t in tokenize(action.new)] if action.kind == "replace" else []
        tokens[start:start + len(span)] = replacement
    return ApplyReport(detokenize(tokens), ambiguous, skipped)


def _find_runs(tokens: list[str], span: list[str]) -> list[int]:
    if not span:
        return []
    return [i for i in range(len(tokens) - len(span) + 1)
            if tokens[i:i + len(span)] == span]
