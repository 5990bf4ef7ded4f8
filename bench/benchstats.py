"""Describe the generated inputs of each workload: query lengths and the
share of every property the generator varies.

    PYTHONPATH=src python3 bench/benchstats.py --seed 1

Sizes are the workloads' batch sizes. Lengths count ``sqlpatch`` tokens of
the canonical text, the unit of the per-query figures in ROADMAP.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path

from sqlpatch.tokens import tokenize

import benchcheck
import benchgen
import run


def _lengths(texts) -> str:
    n = sorted(len(tokenize(t)) for t in texts)
    return (f"tokens mean {statistics.mean(n):.1f}, median {statistics.median(n):g}, "
            f"p90 {n[int(0.9 * (len(n) - 1))]}, max {n[-1]}")


def _share(count: int, total: int) -> str:
    return f"{count / total:.1%} ({count}/{total})"


def _long_share(n: int) -> str:
    longs = sum(int((i + 1) * benchgen.LONG_SHARE) != int(i * benchgen.LONG_SHARE)
                for i in range(n))
    return _share(longs, n)


def beams_stats(seed: int, size: int, oracle) -> list[str]:
    items = benchgen.beams(seed, size)
    widths = [len(i["entries"]) for i in items]
    kinds = Counter(kind for i in items for kind, _ in i["entries"])
    entries = sum(widths)
    grammatical = surface = 0
    for item in items:
        for entry, (_, canon) in zip(json.loads(item["line"])["beam"], item["entries"]):
            if canon is not None:
                grammatical += 1
                surface += entry["sql"] != canon
    out = [f"{size} beams; width mean {statistics.mean(widths):.2f}, "
           f"min {min(widths)}, max {max(widths)}",
           f"long gold queries: {_long_share(size)}",
           f"gold: {_lengths(i['gold'] for i in items)}",
           f"grammatical entries: {_lengths(c for i in items for _, c in i['entries'] if c)}",
           f"entries in surface form: {_share(surface, grammatical)} of grammatical"]
    out += [f"entry kind {k}: {_share(v, entries)}" for k, v in sorted(kinds.items())]
    if oracle is not None:
        either = benchcheck.expected_synth(items, oracle)
        both = benchcheck.expected_synth(items, oracle, "both")
        out.append(f"records under policy either: {len(either)}; under both: {len(both)}")
    return out


def eval_stats(seed: int, size: int, oracle) -> list[str]:
    pairs = benchgen.eval_pairs(seed, size)
    expected = benchcheck.expected_eval(pairs, oracle)
    surface = sum(json.loads(p["line"])["pred"] != p["pred"] for p in pairs)
    return [f"{size} pairs; long gold queries: {_long_share(size)}",
            f"gold: {_lengths(p['gold'] for p in pairs)}",
            f"EM true: {_share(sum(e['em'] for e in expected), size)}; "
            f"EX true: {_share(sum(e['ex'] for e in expected), size)}",
            f"predictions in surface form: {_share(surface, size)}"]


def sim_stats(seed: int, size: int) -> list[str]:
    pairs = benchgen.sim_pairs(seed, size)
    combos = Counter(f"{p['query_rep']}/{p['edit_rep']}" for p in pairs)
    return [f"{size} pairs; long gold queries: {_long_share(size)}",
            f"gold: {_lengths(p['gold'] for p in pairs)}",
            f"wrong: {_lengths(p['wrong'] for p in pairs)}",
            "representations: " + ", ".join(f"{k} {_share(v, size)}"
                                            for k, v in sorted(combos.items()))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rows = [len(r) for tables in benchgen.database_rows(args.seed).values()
            for r in tables.values()]
    print(f"tables: {len(rows)}; rows min {min(rows)}, mean {statistics.mean(rows):.0f}, "
          f"max {max(rows)}")
    scratch = run.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        benchcheck.build_databases(Path(tmp), args.seed)
        oracle = benchcheck.Oracle(Path(tmp))
        try:
            sections = {
                "synth-beams": beams_stats(args.seed, run.SynthBeams.size, None),
                "synth-exec": beams_stats(args.seed, run.SynthExec.size, oracle),
                "eval-exec": eval_stats(args.seed, run.EvalExec.size, oracle),
                "simulate": sim_stats(args.seed, run.Simulate.size),
            }
        finally:
            oracle.close()
    for name, lines in sections.items():
        print(f"\n{name}")
        for line in lines:
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
