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

import hashlib
import json
import random
import subprocess
from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

from .dataset import ExampleRecord, representation
from .editscript import EditScript, render_edits
from .errors import SqlPatchError
from .program import EditProgram, render_program


@dataclass(frozen=True)
class Candidate:
    actions: tuple[str, ...]
    final_query: str = ""


class GeneratorAdapter(Protocol):
    def propose(self, x: str, prefix: Sequence[str], beam_size: int) -> list[Candidate]:
        ...


@dataclass
class SessionStep:
    candidates: list[list[str]]
    selected: Optional[str]  # None means every candidate was skipped
    depth: int               # how deep the probe went


@dataclass
class SessionLog:
    steps: list[SessionStep] = field(default_factory=list)
    selected: list[str] = field(default_factory=list)
    result_sql: str = ""
    fully_corrected: bool = False

    def to_json(self) -> str:
        return json.dumps({
            "steps": [{"candidates": s.candidates, "selected": s.selected,
                       "depth": s.depth} for s in self.steps],
            "selected": self.selected,
            "result_sql": self.result_sql,
            "fully_corrected": self.fully_corrected,
        }, ensure_ascii=False)


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
    prefix: list[str] = []
    while remaining:
        candidates = list(generator.propose(record.x, list(prefix), beam_size))[:beam_size]
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
        prefix.append(found)
        log.selected.append(found)
    log.result_sql = execute_selected(record, log.selected)
    log.fully_corrected = log.result_sql == record.gold_sql
    return log


def execute_selected(record: ExampleRecord, selected: Sequence[str]) -> str:
    """Apply the selected actions to the initial wrong query with the edit
    interpreter; selections may arrive out of canonical order and are
    re-sorted by their target."""
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
        rng = random.Random(_stable_seed(self.seed, prefix))
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
            n = rng.randrange(10_000)
            action = f'sql["limit"] = "limit 9{n:04d}"'
            if self.gold and not self.gold[0].startswith("sql"):
                action = f"<Insert> limit 9{n:04d} <InsertEnd>"
            if action not in self._gold_set:
                return action


def _stable_seed(seed: int, prefix: Sequence[str]) -> int:
    digest = hashlib.sha256(
        json.dumps([seed, list(prefix)], ensure_ascii=False).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SubprocessGenerator:
    """Attach an external generator over line-delimited JSON on its stdio:
    request ``{"x", "prefix", "beam_size"}``, response
    ``{"candidates": [{"actions": [...], "final_query": "..."}]}``."""

    def __init__(self, cmd: Sequence[str]):
        self.proc = subprocess.Popen(
            list(cmd), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def propose(self, x: str, prefix: Sequence[str], beam_size: int) -> list[Candidate]:
        request = json.dumps({"x": x, "prefix": list(prefix), "beam_size": beam_size},
                             ensure_ascii=False)
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SqlPatchError("external generator closed its output stream")
        response = json.loads(line)
        return [Candidate(tuple(c.get("actions", ())), c.get("final_query", ""))
                for c in response.get("candidates", [])]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=10)
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve_generator(generator: GeneratorAdapter, instream, outstream) -> None:
    """Host a generator on a stream pair speaking the wire protocol above."""
    for line in instream:
        line = line.strip()
        if not line:
            continue
        request = json.loads(line)
        candidates = generator.propose(request["x"], request.get("prefix", []),
                                       int(request.get("beam_size", 3)))
        outstream.write(json.dumps({
            "candidates": [{"actions": list(c.actions), "final_query": c.final_query}
                           for c in candidates]
        }, ensure_ascii=False) + "\n")
        outstream.flush()
