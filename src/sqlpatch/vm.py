"""Execution of edit programs and application of edit scripts.

Programs address entries by explicit path, so execution is unambiguous.
Clause scripts are anchored by clause key plus old content, consumed in
canonical walk order; an insert lands in the map of the most recently
anchored action when the key is free there, otherwise in the first map
along the walk with the key free. Token scripts are applied best-effort at
the leftmost match and report ambiguity instead of failing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .clausemap import (
    CLAUSE_INDEX, SET_OP_KEYS, ClauseMap, Composite, Entry,
    entry_from_clause_text, split_clause_texts, sql_to_clause_map,
)
from .editscript import EditScript
from .errors import ApplyError, ExecError, MapError, PyDictError, TokenizeError
from .program import Assign, EditProgram, Pop
from .pydict import parse_entry_fragments
from .tokens import detokenize, tokenize


@dataclass(frozen=True)
class ApplyReport:
    result: str
    ambiguous_spans: int = 0
    skipped: int = 0


# ---------------------------------------------------------------------------
# Edit-program interpreter


def exec_program(cm: ClauseMap, program: EditProgram) -> ClauseMap:
    out = cm.copy()
    for stmt in program.stmts:
        if isinstance(stmt, Assign):
            _exec_assign(out, stmt)
        else:
            _exec_pop(out, stmt)
    return out


def _exec_assign(root: ClauseMap, stmt: Assign) -> None:
    container = _descend(root, stmt.path[:-1], stmt)
    key = stmt.path[-1]
    if isinstance(container, ClauseMap):
        try:
            container.set(key, _entry_from_value(key, stmt.value))
        except MapError as exc:
            raise ExecError(f"cannot assign {_fmt(stmt.path)}: {exc}") from None
    else:  # Composite: key must be an already-referenced placeholder
        if key not in container.subqueries:
            raise ExecError(
                f"cannot assign {_fmt(stmt.path)}: placeholder {key!r} is not "
                f"referenced by the clause text")
        container.subqueries[key] = _subquery_map(stmt.value, stmt)


def _exec_pop(root: ClauseMap, stmt: Pop) -> None:
    container = _descend(root, stmt.path, stmt)
    if isinstance(container, Composite):
        raise ExecError(
            f"cannot pop {stmt.key!r} from {_fmt(stmt.path)}: the clause text "
            f"still references its placeholders")
    if stmt.key not in container:
        raise ExecError(f"pop of absent key {stmt.key!r} at {_fmt(stmt.path)}")
    container.pop(stmt.key)


def _descend(root: ClauseMap, path, stmt):
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


def _entry_from_value(key: str, value: str) -> Entry:
    if key in SET_OP_KEYS or key.startswith("subquery"):
        return _subquery_map(value, None)
    try:
        return entry_from_clause_text(key, value)
    except MapError as exc:
        raise ExecError(str(exc)) from None


def _subquery_map(value: str, stmt) -> ClauseMap:
    try:
        return sql_to_clause_map(value)
    except Exception as exc:
        raise ExecError(f"value is not a well-formed query: {value!r} ({exc})") from None


def _fmt(path) -> str:
    return "sql" + "".join(f'["{p}"]' for p in path)


# ---------------------------------------------------------------------------
# Clause-level script application


@dataclass
class _Op:
    kind: str  # replace | delete | insert
    key: str = ""                 # anchor key for replace/delete
    old: Entry = None
    pairs: tuple = ()             # (key, entry) pairs to insert / the replacement


def apply_clause_edits(cm: ClauseMap, script: EditScript) -> ClauseMap:
    if script.granularity not in ("clause-sql", "clause-pydict"):
        raise ApplyError(f"not a clause-level script: {script.granularity!r}")
    ops = deque(_parse_op(a, script.granularity) for a in script.actions)
    out = cm.copy()
    state = _WalkState(out)
    _walk_apply(out, ops, state)
    if ops:
        op = ops[0]
        if op.kind == "insert":
            present = [k for k, _ in op.pairs if k in out]
            if present:
                raise ApplyError(f"insert of already-present key {present[0]!r}")
            raise ApplyError(f"could not place insert of {[k for k, _ in op.pairs]}")
        raise ApplyError(f"anchor clause not found for {op.kind} of {op.key!r}")
    return out


class _WalkState:
    def __init__(self, root: ClauseMap):
        self.root = root
        self.last_map = None  # map that anchored the most recent consumed action

    def insert_target_ok(self, current: ClauseMap, op: _Op) -> bool:
        if any(key in current for key, _ in op.pairs):
            return False
        primary = self.last_map if self.last_map is not None else self.root
        if current is primary:
            return True
        return any(key in primary for key, _ in op.pairs)


def _walk_apply(current: ClauseMap, ops: deque, state: _WalkState) -> None:
    for key in list(current.keys()):
        _consume_inserts(current, ops, state, CLAUSE_INDEX[key])
        if key not in current:
            continue
        entry = current.get(key)
        op = ops[0] if ops else None
        if op is not None and op.kind in ("replace", "delete") and op.key == key \
                and entry == op.old:
            if op.kind == "delete":
                current.pop(key)
            else:
                (_, new_entry), = op.pairs
                current.set(key, new_entry)
            ops.popleft()
            state.last_map = current
            continue
        if isinstance(entry, Composite):
            for sub in entry.subqueries.values():
                _walk_apply(sub, ops, state)
        elif isinstance(entry, ClauseMap):
            _walk_apply(entry, ops, state)
    _consume_inserts(current, ops, state, len(CLAUSE_INDEX))


def _consume_inserts(current: ClauseMap, ops: deque, state: _WalkState, bound: int) -> None:
    while ops and ops[0].kind == "insert":
        op = ops[0]
        first = CLAUSE_INDEX[op.pairs[0][0]]
        if first >= bound or not state.insert_target_ok(current, op):
            return
        for key, entry in op.pairs:
            current.set(key, entry)
        ops.popleft()
        state.last_map = current


def _parse_op(action, granularity: str) -> _Op:
    old_pairs = clause_content_pairs(action.old, granularity) if action.old else []
    new_pairs = clause_content_pairs(action.new, granularity) if action.new else []
    if action.kind == "insert":
        return _Op("insert", pairs=tuple(new_pairs))
    if action.kind == "delete":
        if len(old_pairs) != 1:
            raise ApplyError(f"delete content must name exactly one clause: {action.old!r}")
        key, entry = old_pairs[0]
        return _Op("delete", key=key, old=entry)
    if len(old_pairs) != 1 or len(new_pairs) != 1:
        raise ApplyError("replace content must name exactly one clause on each side")
    (okey, oentry), (nkey, nentry) = old_pairs[0], new_pairs[0]
    if okey != nkey:
        raise ApplyError(f"replace changes clause key {okey!r} -> {nkey!r}")
    return _Op("replace", key=okey, old=oentry, pairs=((nkey, nentry),))


def clause_content_pairs(text: str, granularity: str) -> list:
    """The (key, entry) pairs named by one clause-level action's content:
    clause texts at ``clause-sql``, dictionary entries at ``clause-pydict``."""
    try:
        if granularity == "clause-pydict":
            return parse_entry_fragments(text)
        return [(key, entry_from_clause_text(key, segment))
                for key, segment in split_clause_texts(text)]
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
