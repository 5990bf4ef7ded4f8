"""Simulated interactive correction: a user picks edit actions from beams.

Each step asks the generator for up to ``beam_size`` candidate
continuations given the already-selected actions. The simulated user picks
the first candidate action that belongs to the remaining gold actions,
probing deeper positions within the same candidates when the front ones
are all wrong, and stops when no candidate action matches. The final query
always comes from executing the selected actions on the initial query,
never from a candidate's own claimed result.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Optional, Protocol, Sequence

from .dataset import ExampleRecord, representation
from .editscript import EditAction, EditScript, render_edits
from .errors import DatasetError, SqlPatchError
from .nodes import Record
from .program import Assign, EditProgram, render_program
from .schema import json_fields

EXIT_WAIT_S = 10  # how long close() waits for an external generator to exit
READ_WAIT_S = 60  # how long propose() waits to send a request and read its response


class Candidate(Record, hashable=True):
    __slots__ = ("actions", "final_query")

    def __init__(self, actions: tuple[str, ...], final_query: str = ""):
        self.actions, self.final_query = actions, final_query


class GeneratorAdapter(Protocol):
    def propose(self, x: str, prefix: Sequence[str], beam_size: int) -> list[Candidate]:
        ...


class SessionStep(Record):
    __slots__ = ("candidates", "selected", "depth")

    def __init__(self, candidates: list[list[str]], selected: Optional[str], depth: int):
        self.candidates = candidates
        self.selected = selected  # None means every candidate was skipped
        self.depth = depth        # how deep the probe went


class SessionLog(Record):
    __slots__ = ("steps", "selected", "result_sql", "fully_corrected")

    def __init__(self, steps: Optional[list[SessionStep]] = None,
                 selected: Optional[list[str]] = None, result_sql: str = "",
                 fully_corrected: bool = False):
        self.steps = [] if steps is None else steps
        self.selected = [] if selected is None else selected
        self.result_sql, self.fully_corrected = result_sql, fully_corrected


def gold_action_strings(gold) -> list[str]:
    """Render a script or program as one string per action/statement."""
    if isinstance(gold, EditProgram):
        return [render_program(EditProgram((stmt,))) for stmt in gold.stmts]
    if isinstance(gold, EditScript):
        return [render_edits(EditScript(gold.granularity, (action,)))
                for action in gold.actions]
    return list(gold)


def simulate(record: ExampleRecord, gold, generator: GeneratorAdapter,
             beam_size: int = 3) -> SessionLog:
    remaining = gold_action_strings(gold)
    log = SessionLog()
    while remaining:
        candidates = list(generator.propose(record.x, list(log.selected), beam_size))[:beam_size]
        found = None
        depth = 0
        max_len = max((len(c.actions) for c in candidates), default=0)
        for depth in range(max_len):
            for candidate in candidates:
                if depth < len(candidate.actions) and candidate.actions[depth] in remaining:
                    found = candidate.actions[depth]
                    break
            if found is not None:
                break
        log.steps.append(SessionStep([list(c.actions) for c in candidates],
                                     found, depth + 1 if max_len else 0))
        if found is None:
            break
        remaining.remove(found)
        log.selected.append(found)
    log.result_sql = execute_selected(record, log.selected)
    log.fully_corrected = log.result_sql == record.gold_sql
    return log


def execute_selected(record: ExampleRecord, selected: Sequence[str]) -> str:
    """Apply the selected actions to the initial wrong query with the edit
    interpreter. Selections may arrive out of canonical order: program
    statements are re-sorted by the path they target, clause actions only
    by the top-level key their content names first. So a subquery's select
    replace picked before the outer select's fails to anchor (ApplyError),
    the defect bench/test_bench.py pins in
    test_defect_execute_selected_aborts_on_subquery_select_first."""
    rep = representation(record.query_rep, record.edit_rep)
    items = [item for text in selected for item in rep.parse_edits(text)]
    return rep.apply(record.wrong_sql, sorted(items, key=rep.order))


# ---------------------------------------------------------------------------
# Generators


class OracleGenerator:
    """Test double for a fine-tuned model: proposes the remaining gold
    actions, optionally shuffled and diluted with distractors. A distractor
    rate of 1.0 proposes nothing but distractors (an adversarial generator);
    a rate of 0 is the pure oracle."""

    def __init__(self, gold, distractor_rate: float = 0.0, shuffle_seed: int = 0,
                 gold_sql: str = ""):
        self.gold = gold_action_strings(gold)
        self.rate = distractor_rate
        self.seed = shuffle_seed
        self.gold_sql = gold_sql
        self._gold_set = set(self.gold)

    def propose(self, x: str, prefix: Sequence[str], beam_size: int) -> list[Candidate]:
        remaining = list(self.gold)
        for chosen in prefix:
            if chosen in remaining:
                remaining.remove(chosen)
        rng = random.Random(_stable_seed(self.seed, prefix)) if self.rate else None
        candidates = []
        for i in range(beam_size):
            if self.rate >= 1.0:
                actions = tuple(self._distractor(rng) for _ in range(3))
            elif self.rate == 0.0:
                actions = tuple(remaining)
            else:
                shuffled = list(remaining)
                rng.shuffle(shuffled)
                actions = []
                for action in shuffled:
                    while rng.random() < self.rate and len(actions) < 3 * len(self.gold) + 3:
                        actions.append(self._distractor(rng))
                    actions.append(action)
                actions = tuple(actions)
            candidates.append(Candidate(actions, self.gold_sql))
        return candidates

    def _distractor(self, rng: random.Random) -> str:
        while True:
            limit = f"limit 9{rng.randrange(10_000):04d}"
            if self.gold and not self.gold[0].startswith("sql"):
                action = render_edits(EditScript("token", (EditAction("insert", new=limit),)))
            else:
                action = render_program(EditProgram((Assign(("limit",), limit),)))
            if action not in self._gold_set:
                return action


def _stable_seed(seed: int, prefix: Sequence[str]) -> int:
    import hashlib

    digest = hashlib.sha256(
        json.dumps([seed, list(prefix)], ensure_ascii=False).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SubprocessGenerator:
    """Attach an external generator over line-delimited JSON on its stdio:
    request ``{"x", "prefix", "beam_size"}``, response
    ``{"candidates": [{"actions": [...], "final_query": "..."}]}``, both in
    UTF-8. A request and its response line that together take longer than
    READ_WAIT_S seconds are an error, and the generator is killed."""

    def __init__(self, cmd: Sequence[str]):
        import subprocess

        try:
            self.proc = subprocess.Popen(list(cmd), stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE)
        except OSError as exc:
            raise SqlPatchError(f"cannot start external generator: {exc}") from None
        os.set_blocking(self.proc.stdin.fileno(), False)
        self._pending = bytearray()  # bytes read past the last response line

    def propose(self, x: str, prefix: Sequence[str], beam_size: int) -> list[Candidate]:
        request = json.dumps({"x": x, "prefix": list(prefix), "beam_size": beam_size},
                             ensure_ascii=False)
        line = self._exchange((request + "\n").encode("utf-8"))
        if not line:
            raise SqlPatchError("external generator closed its output stream")
        try:
            (entries,) = json_fields(line.decode("utf-8"), {"candidates": list},
                                     defaults={"candidates": []})
        except (DatasetError, UnicodeDecodeError) as exc:
            raise SqlPatchError(f"external generator response: {exc}") from None
        if not all(type(c) is dict and type(c.get("final_query", "")) is str
                   and type(c.get("actions", [])) is list
                   and all(type(a) is str for a in c.get("actions", [])) for c in entries):
            raise SqlPatchError('external generator response: each candidate must be an '
                                'object with a list of strings "actions" and a string '
                                '"final_query"')
        return [Candidate(tuple(c.get("actions", ())), c.get("final_query", ""))
                for c in entries]

    def _exchange(self, request: bytes) -> bytes:
        """Write request to the generator and return the next line of its
        output, with its line feed; at the end of the output, what is left
        (b"" when nothing is). A blocking write or readline cannot be
        interrupted, so one selector drives the write to the non-blocking
        input and the reads into _pending, each wait bounded by what is left
        of READ_WAIT_S."""
        import selectors

        deadline = time.monotonic() + READ_WAIT_S
        stdin, stdout = self.proc.stdin.fileno(), self.proc.stdout.fileno()
        unsent = memoryview(request)
        ended = False
        with selectors.DefaultSelector() as selector:
            selector.register(stdin, selectors.EVENT_WRITE)
            selector.register(stdout, selectors.EVENT_READ)
            while not ended and (unsent or b"\n" not in self._pending):
                left = deadline - time.monotonic()
                ready = selector.select(left) if left > 0 else []
                if not ready:
                    self.proc.kill()
                    self.proc.wait()
                    raise SqlPatchError("external generator did not answer within "
                                        f"{READ_WAIT_S} s")
                for key, _ in ready:
                    if key.fd == stdout:
                        chunk = os.read(stdout, 65536)
                        self._pending += chunk
                        ended = not chunk
                    else:
                        try:
                            unsent = unsent[os.write(stdin, unsent):]
                        except BrokenPipeError:
                            raise SqlPatchError("external generator closed its input "
                                                "stream") from None
                        if not unsent:
                            selector.unregister(stdin)
        end = self._pending.find(b"\n") + 1 or len(self._pending)
        line = bytes(self._pending[:end])
        del self._pending[:end]
        return line

    def close(self):
        """End the generator's input and wait for it to exit; one still
        running after EXIT_WAIT_S seconds is killed, and that is an error."""
        import subprocess

        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass  # it stopped reading its input; whether it exits is checked below
        try:
            self.proc.wait(timeout=EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise SqlPatchError(f"external generator still running {EXIT_WAIT_S} s after "
                                "the end of its input; killed") from None
        finally:
            self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        try:
            self.close()
        except SqlPatchError:
            if exc_type is None:
                raise  # else the error that ended the session is the one reported
