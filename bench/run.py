"""Pipeline benchmark: synth, eval and simulate, end to end and per layer.

    python3 bench/run.py --workload synth-beams --seed 1 --seconds 28 --trace 0

Run from a checkout; the program is imported from its ``src`` directory.
Each workload generates its inputs from the seed, then runs the sqlpatch
pipeline over them in fresh child processes, one batch after another
(a closed loop with one client: these are batch jobs), until the time is
up. Every output is checked. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from a run with every public entry point wrapped (see benchtrace.py).
The exit status is 1 when any output is wrong and 2 when the program
cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import benchcheck
import benchgen
from benchtrace import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# setup_s is the median of SETUP_RUNS empty-input runs before the batches
# and SETUP_PER_BATCH after each batch, so that its samples span the run.
SETUP_RUNS = 4
SETUP_PER_BATCH = 1
MIN_BATCHES = 3       # measured batches per run, even when time is up
CHILD_TIMEOUT_S = 60  # a batch that runs longer is killed and the run fails


@dataclass
class Batch:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    text: str


@dataclass
class Verdict:
    problems: list[str]
    failed: dict[int, str] = field(default_factory=dict)  # input line -> error class


class Launcher:
    """Runs children through launcher.py, which is started while this
    process is still small, so that a child's peak RSS is its own."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)

    def run(self, cmd: list[str], out_path: Path) -> Batch:
        """Wall time, CPU time and peak RSS of one child and the workers it
        waited for."""
        request = {"cmd": cmd, "out": str(out_path), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the child-process launcher exited")
        got = json.loads(line)
        return Batch(got["wall"], got["cpu"], got["rss_kb"] / 1024, got["code"],
                     out_path.read_text(encoding="utf-8"))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        self.proc.stdout.close()


def host_calibration_ms() -> float:
    """Time of a fixed pure-Python loop. Taken after every batch, its median
    tells a slow host from a regression."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(200_000):
        acc += i * i % 7
        table[i & 1023] = acc
    return (time.perf_counter() - start) * 1000


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Inputs, the child command and the output check of one workload."""

    size = 0          # input lines per batch
    uses_db = False

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.tables = work / "tables.json"
        self.tables.write_text(json.dumps(benchgen.tables_json()), encoding="utf-8")
        self.db_dir = work / "database"
        if self.uses_db:
            benchcheck.build_databases(self.db_dir, seed)
        self.input = work / "input.jsonl"
        self.empty = work / "empty.jsonl"
        self.empty.write_text("", encoding="utf-8")
        lines = self.prepare()
        self.input.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def prepare(self) -> list[str]:
        raise NotImplementedError

    def args(self, input_path: Path, serial: bool) -> list[str]:
        raise NotImplementedError

    def command(self, input_path: Path, stats: Path | None = None,
                serial: bool = False) -> list[str]:
        args = self.args(input_path, serial or stats is not None)
        if stats is not None:
            return [sys.executable, str(HERE / "benchtrace.py"), str(stats)] + args
        if args[0] == "sim":
            return [sys.executable, str(HERE / "simdrive.py")] + args[1:]
        return [sys.executable, "-m", "sqlpatch.cli"] + args[1:]

    def check(self, text: str) -> Verdict:
        raise NotImplementedError

    def verify(self, launcher: Launcher) -> list[str]:
        """Problems found by untimed runs that check what the timed command
        cannot show."""
        return []

    def output_key(self, text: str):
        return text

    def latency_ms(self, batches: list[Batch]) -> tuple[float, float]:
        """p50 and p99 time per session; a session of a batch job is one
        run of the command, so a run holds only a dozen or two."""
        walls = [b.wall * 1000 for b in batches]
        return _quantile(walls, 0.5), _quantile(walls, 0.99)


class Synth(Workload):
    query_rep, edit_rep, workers = "sql", "token", 2
    policies = ("either",)   # the first is timed; the others are verify runs

    def prepare(self):
        self.items = benchgen.beams(self.seed, self.size)
        oracle = benchcheck.Oracle(self.db_dir) if self.uses_db else None
        try:
            self.expected = {policy: benchcheck.expected_synth(self.items, oracle, policy)
                             for policy in self.policies}
        finally:
            if oracle is not None:
                oracle.close()
        return [item["line"] for item in self.items]

    def args(self, input_path, serial):
        out = ["cli", "synth", "--schema", str(self.tables), "--query-rep", self.query_rep,
               "--edit-rep", self.edit_rep]
        if self.uses_db:
            out += ["--db-dir", str(self.db_dir)]
        if self.workers > 1 and not serial:
            out += ["--workers", str(self.workers)]
        return out + [str(input_path)]

    def check(self, text, policy="either"):
        return Verdict(benchcheck.check_synth(text, self.items, self.expected[policy],
                                              self.query_rep, self.edit_rep))

    def verify(self, launcher):
        problems = []
        for policy in self.policies[1:]:
            cmd = self.command(self.input)
            cmd[-1:-1] = ["--policy", policy]
            batch = launcher.run(cmd, self.work / f"{policy}.jsonl")
            if batch.code != 0:
                problems.append(f"policy {policy}: exit status {batch.code}")
            else:
                problems += [f"policy {policy}: {p}"
                             for p in self.check(batch.text, policy).problems]
        return problems


class SynthBeams(Synth):
    """No database: front end, token LCS diff, and the CLI's worker pool."""
    size = 700


class SynthExec(Synth):
    """The paper's main path: execution checks plus EX against the gold.
    Under the timed policy ``either`` every entry that fails exact set
    match is a record whatever EX says, so an untimed run under ``both``
    checks the EX verdicts."""
    size = 220
    uses_db = True
    query_rep, edit_rep, workers = "pydict", "program", 1
    policies = ("either", "both")


class EvalExec(Workload):
    """EM and EX over pairs whose gold queries barely repeat."""
    size = 700
    uses_db = True

    def prepare(self):
        pairs = benchgen.eval_pairs(self.seed, self.size)
        oracle = benchcheck.Oracle(self.db_dir)
        try:
            self.expected = benchcheck.expected_eval(pairs, oracle)
        finally:
            oracle.close()
        return [p["line"] for p in pairs]

    def args(self, input_path, serial):
        return ["cli", "eval", "--schema", str(self.tables), "--db-dir", str(self.db_dir),
                str(input_path)]

    def check(self, text):
        problems, missing = benchcheck.check_eval(text, self.expected)
        return Verdict(problems, {i: "missing" for i in range(self.size - missing, self.size)})


class Simulate(Workload):
    """Edit interpreter, appliers and edit parsing; no SQLite."""
    size = 600

    def prepare(self):
        from sqlpatch import ParserOutput, parse_sql, schema_from_entry
        from sqlpatch.dataset import make_record

        schemas = {e["db_id"]: schema_from_entry(e) for e in benchgen.tables_json()}
        self.records, lines = [], []
        for pair in benchgen.sim_pairs(self.seed, self.size):
            schema = schemas[pair["db_id"]]
            output = ParserOutput(pair["db_id"], pair["question"], pair["gold"],
                                  ((pair["wrong"], 0.5),))
            record = make_record(output, 0, 0.5, schema, parse_sql(pair["wrong"], schema),
                                 parse_sql(pair["gold"], schema), pair["query_rep"],
                                 pair["edit_rep"])
            if record is None or record.gold_sql != pair["gold"] \
                    or record.wrong_sql != pair["wrong"]:
                raise RuntimeError(f"cannot build a simulate record from {pair}")
            self.records.append({"gold_sql": pair["gold"], "query_rep": pair["query_rep"],
                                 "edit_rep": pair["edit_rep"], "n_edits": record.n_edits})
            lines.append(record.to_json())
        return lines

    def args(self, input_path, serial):
        return ["sim", "--schema", str(self.tables), str(input_path)]

    def check(self, text):
        problems, errors, _ = benchcheck.check_sim(text, self.records)
        return Verdict(problems, errors)

    def output_key(self, text):
        return benchcheck.sim_output_key(text)

    def latency_ms(self, batches):
        """p50 and p99 over every session of the run."""
        ms = [json.loads(line)["ms"] for b in batches for line in b.text.splitlines()
              if line.strip()]
        return _quantile(ms, 0.5), _quantile(ms, 0.99)


WORKLOADS = {"synth-beams": SynthBeams, "synth-exec": SynthExec,
             "eval-exec": EvalExec, "simulate": Simulate}


# ---------------------------------------------------------------------------
# Measurement


class Runner:
    """Runs the batches of one workload. An operation is one input line: it
    is attempted in every batch, and it fails if it fails in any of them, so
    ``attempted`` and ``failed`` depend on the seed and not on how many
    batches the time allowed."""

    def __init__(self, workload: Workload, launcher: Launcher):
        self.wl = workload
        self.launcher = launcher
        self.reference = None
        self.verdict: Verdict | None = None
        self.problems: list[str] = []
        self.failed: dict[int, str] = {}  # input line -> error class of its first failure
        self.calib_ms: list[float] = []

    def batch(self, stats: Path | None = None, serial: bool = False) -> Batch:
        wl = self.wl
        batch = self.launcher.run(wl.command(wl.input, stats, serial), wl.work / "out.jsonl")
        if batch.code != 0:
            verdict = Verdict([], dict.fromkeys(range(wl.size), f"exit status {batch.code}"))
        else:
            key = wl.output_key(batch.text)
            if key != self.reference:
                verdict = wl.check(batch.text)
                if self.reference is None:
                    self.reference = key
                    self.verdict = verdict
            else:
                verdict = self.verdict
            self.problems += verdict.problems
        for line, error in verdict.failed.items():
            self.failed.setdefault(line, error)
        self.calib_ms.append(host_calibration_ms())
        return batch

    def empty(self) -> Batch:
        batch = self.launcher.run(self.wl.command(self.wl.empty), self.wl.work / "empty.out")
        if batch.code != 0 or batch.text.strip():
            self.problems.append(f"empty input: exit status {batch.code}, "
                                 f"{len(batch.text)} bytes of output")
        return batch


def end_to_end(runner: Runner, seconds: float) -> dict:
    wl = runner.wl
    runner.empty()  # compiles and caches the imports
    setup = [runner.empty().wall for _ in range(SETUP_RUNS)]
    batches = []
    deadline = time.perf_counter() + seconds
    while len(batches) < MIN_BATCHES or time.perf_counter() < deadline:
        batches.append(runner.batch())
        setup += [runner.empty().wall for _ in range(SETUP_PER_BATCH)]
    p50, p99 = wl.latency_ms(batches)
    ok = 1 - len(runner.failed) / wl.size
    # Totals over the run rather than medians over batches: the host's speed
    # changes in phases of tens of seconds, and a median over batches jumps
    # to whichever phase held most of a run, where a total moves in step with
    # the share of the run each phase held.
    lines = wl.size * len(batches)
    metrics = {
        "throughput_lines_s": (lines / sum(b.wall for b in batches), "1/s"),
        "cpu_ms_per_line": (sum(b.cpu for b in batches) * 1000 / lines, "ms"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p99_ms": (p99, "ms"),
        "setup_s": (_quantile(setup, 0.5), "s"),
        "peak_rss_mb": (statistics.median(b.rss_mb for b in batches), "MB"),
        "ok_frac": (ok, "ratio"),
    }
    _note(f"{len(batches)} batches of {wl.size} lines; failed_frac {1 - ok:.6f}; "
          f"batch seconds {' '.join(f'{b.wall:.3f}' for b in batches)}")
    return metrics


def per_layer(runner: Runner, seconds: float) -> dict:
    """Alternate untraced and traced batches; a synth-beams traced run is
    serial, because spans inside pool workers are not recorded."""
    wl = runner.wl
    runner.empty()
    plain, traced, reports = [], [], []
    stats_path = wl.work / "stats.json"
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        plain.append(runner.batch(serial=True).wall)
        stats_path.unlink(missing_ok=True)
        traced.append(runner.batch(stats=stats_path).wall)
        reports.append(json.loads(stats_path.read_text(encoding="utf-8")))
    metrics = {}
    for name in SPAN_NAMES:
        calls = {r[name]["calls"] for r in reports}
        errors = {r[name]["errors"] for r in reports}
        if len(calls) != 1 or len(errors) != 1:
            runner.problems.append(f"{name}: call counts differ between runs: {calls}")
        metrics[f"{name}.calls"] = (reports[0][name]["calls"], "count")
        metrics[f"{name}.self_ms"] = (statistics.median(r[name]["self_ms"] for r in reports), "ms")
        metrics[f"{name}.errors"] = (reports[0][name]["errors"], "count")
    sqlite = reports[0]["sqlite"]
    metrics["metrics.sqlite.connections"] = (sqlite["connections"], "count")
    metrics["metrics.sqlite.executions"] = (sqlite["executions"], "count")
    metrics["metrics.sqlite.distinct_ratio"] = (
        sqlite["distinct"] / sqlite["executions"] if sqlite["executions"] else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain),
                                       "ratio")
    metrics["trace.workers"] = (1, "count")
    _note(f"{len(traced)} traced and {len(plain)} untraced serial batches of {wl.size} lines")
    return metrics


HD_MAX_SAMPLES = 1000


def _quantile(values, q: float) -> float:
    """The q-quantile. Up to HD_MAX_SAMPLES values it is the Harrell-Davis
    estimate, a Beta-weighted mean of all order statistics, which is much
    steadier than one or two order statistics on a few dozen batches; on
    more values the interpolated sample quantile is as steady and cheaper."""
    values = sorted(values)
    n = len(values)
    if n == 1:
        return values[0]
    if n > HD_MAX_SAMPLES:
        pos = q * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        return values[lo] + (values[hi] - values[lo]) * (pos - lo)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(values))


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(x, a, b) / a
    return 1 - front * _beta_cf(1 - x, b, a) / b


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 + num * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1) < 1e-12:
            break
    return h


def _note(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sqlpatch" / "__init__.py").is_file():
        _note(f"error: no sqlpatch sources under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run(workload: str, seed: int, seconds: float, trace: bool, size: int | None = None) -> dict:
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    launcher = Launcher()
    try:
        cls = WORKLOADS[workload]
        if size is not None:
            cls = type(cls.__name__, (cls,), {"size": size})
        runner = Runner(cls(work, seed), launcher)
        metrics = per_layer(runner, seconds) if trace else end_to_end(runner, seconds)
        runner.problems += runner.wl.verify(launcher)
        calib = statistics.median(runner.calib_ms)
        _note(f"host.calib_ms {calib:.3f}")
        if trace:
            metrics["host.calib_ms"] = (calib, "ms")
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    for problem in runner.problems[:20]:
        _note(f"wrong output: {problem}")
    if runner.failed:
        _note(f"failures: {dict(sorted(Counter(runner.failed.values()).items()))}")
    return {"correct": not runner.problems, "attempted": runner.wl.size,
            "failed": len(runner.failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}



if __name__ == "__main__":
    sys.exit(main())
