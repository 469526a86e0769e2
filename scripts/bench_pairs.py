#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, judged by BENCHMARK.json.

    python3 scripts/bench_pairs.py --parent ../parent --workload profile --seed 5 --seconds 10 --pairs 10

Each pair runs ``perfbench/run.py`` once in the parent checkout and once
in the change checkout (``--change``, by default the checkout holding
this script), with the same ``--workload``, ``--seed`` and
``--seconds`` and with ``OPENBLAS_NUM_THREADS=1``; even pairs run the
parent first and odd pairs the change first, so that a slow stretch of
the host does not land on one side only.  Every run's JSON line must
report ``correct`` and no failed job.

After each pair one line gives both sides' end-to-end metrics.  Then,
per workload and end-to-end metric of ``BENCHMARK.json`` (which this
script reads and never writes), one line gives the parent's and
the change's medians, the change's move, the parent's interquartile
range, how many pairs the change won and the metric's bound, and says
``ok`` if the change's median is no worse than the parent's by more
than that bound, else ``WORSE``.  The exit code is 1 if any run was not
correct or had a failed job, else 0; a metric beyond its bound is
reported, not an error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON line of one ``perfbench/run.py`` run in ``checkout``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def judge(metric: dict, parent: list[float], change: list[float]) -> str:
    """One report line for an end-to-end metric over the pairs."""
    higher = metric["better"] == "higher"
    p, c = statistics.median(parent), statistics.median(change)
    won = sum((b > a) if higher else (b < a) for a, b in zip(parent, change))
    move = (c - p) / p if p else 0.0
    worse = -move if higher else move
    verdict = "ok" if worse <= metric["bound"] else "WORSE"
    return (f"{metric['name']:12s} parent {p:10.4g}  change {c:10.4g}  {100 * move:+7.2f}%  "
            f"parent IQR {iqr(parent):8.3g}  won {won}/{len(parent)}  "
            f"bound {100 * metric['bound']:g}%  {verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, default=ROOT, help="change checkout")
    parser.add_argument("--workload", nargs="+", required=True,
                        choices=("flow", "profile", "geometry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bad = 0
    for workload in args.workload:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        print(f"{workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(sides[side], workload, args.seed, args.seconds)
                if result["correct"] is not True or result["failed"] != 0:
                    bad += 1
                    print(f"{workload} pair {i} {side}: correct {result['correct']}, "
                          f"failed {result['failed']}", file=sys.stderr)
                runs[side].append(result)
            pair = ", ".join(
                f"{m['name']} {runs['parent'][-1]['metrics'][m['name']]['value']:.4g}"
                f" / {runs['change'][-1]['metrics'][m['name']]['value']:.4g}"
                for m in bench["end_to_end"]
            )
            print(f"  pair {i} ({order[0]} first), parent / change: {pair}", flush=True)
        for metric in bench["end_to_end"]:
            values = {side: [r["metrics"][metric["name"]]["value"] for r in rs]
                      for side, rs in runs.items()}
            print("  " + judge(metric, values["parent"], values["change"]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
