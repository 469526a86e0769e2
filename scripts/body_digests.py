#!/usr/bin/env python3
"""Per-column digests of every job body of benchmark workloads.

    python3 scripts/body_digests.py --workload all --seed 1 2 > before.txt
    python3 scripts/body_digests.py --workload all --seed 1 2 --against before.txt

``--workload`` takes one or more workload names, or ``all`` for every
workload; ``--seed`` takes one or more seeds.  For each workload and
seed it runs each job of ``perfbench.workloads.generate(workload,
seed)`` once, in process, through ``ahiso.cli.run`` with the package
imported from this checkout's ``src/``, in a temporary directory.  Each
output's run manifest is stripped with ``perfbench.checks.parse_output``;
the rest is digested column by column (a JSON payload key by key), and
one line

    <workload> <seed> <job> <subcommand> <model> <column> <sha256>

is printed per job and column.  With ``--against FILE``, an earlier
output of this script for the same workloads and seeds, it prints
instead the job columns whose digest changed, those only the earlier run
lists (``removed``) and those only this run lists (``added``) and, per
workload, seed, subcommand and column, how many jobs moved, and exits 1
if any did ("no column moved" and 0 otherwise).  Runs that do not list
the same jobs are an error.  Run it in two checkouts to see
which output columns a change moved, or to gate a change that must keep
every body byte-identical with one command per checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from ahiso.cli import run  # noqa: E402
from perfbench import checks, workloads  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def column_digests(text: str) -> dict[str, str]:
    """Digest of each column (CSV) or payload key (JSON) of one output."""
    body, data = checks.parse_output(text)
    if text.startswith("# manifest: "):
        lines = body.splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        return {name: _sha("\n".join(r[j] for r in rows)) for j, name in enumerate(header)}
    return {key: _sha(json.dumps(val, sort_keys=True)) for key, val in data.items()}


def digest_lines(workload: str, seed: int) -> list[str]:
    jobs = workloads.generate(workload, seed)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        models, results, other = work / "models", work / "results", work / "other"
        results.mkdir()
        other.mkdir()
        workloads.write_models(models)
        for i, job in enumerate(jobs):
            out = (other if job.subcommand == "summary" else results) / f"job{i:03d}"
            rc = run(job.argv(models, results, out))
            if rc != 0:
                raise SystemExit(
                    f"error: {workload} seed {seed} job {i} ({job.subcommand}) exited with {rc}"
                )
            digests = column_digests(out.read_text(encoding="utf-8"))
            for column, digest in digests.items():
                lines.append(
                    f"{workload} {seed} {i:03d} {job.subcommand} {job.model or '-'} "
                    f"{column} {digest}"
                )
    return lines


def moved(before: list[str], after: list[str]) -> list[str]:
    """Job columns whose digest differs, then those only one run lists,
    then a count per workload, seed, subcommand and column.

    Empty when no column moved, was removed or was added.
    """
    old = dict(line.rsplit(" ", 1) for line in before)
    new = dict(line.rsplit(" ", 1) for line in after)
    # key: workload seed job subcommand model column
    if {key.rsplit(" ", 1)[0] for key in old} != {key.rsplit(" ", 1)[0] for key in new}:
        raise SystemExit("error: the two runs do not list the same jobs")
    changed = [key for key in new if key in old and new[key] != old[key]]
    removed = [key for key in old if key not in new]
    added = [key for key in new if key not in old]
    jobs = Counter((w, s, sub) for w, s, _, sub in {tuple(key.split(" ")[:4]) for key in new})
    per_column = Counter(
        (w, s, sub, col)
        for w, s, _, sub, _, col in (key.split(" ") for key in changed + removed + added)
    )
    out = [f"moved {key}" for key in changed]
    out += [f"removed {key}" for key in removed] + [f"added {key}" for key in added]
    out += [
        f"{w} seed {s} {sub} {col}: {count} of {jobs[(w, s, sub)]} jobs moved"
        for (w, s, sub, col), count in sorted(per_column.items())
    ]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", nargs="+", choices=workloads.WORKLOADS + ("all",), required=True
    )
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--against", type=Path, help="earlier output to compare with")
    args = parser.parse_args()
    names = workloads.WORKLOADS if "all" in args.workload else dict.fromkeys(args.workload)
    lines = [line for w in names for seed in args.seed for line in digest_lines(w, seed)]
    if args.against is None:
        print("\n".join(lines))
        return 0
    changes = moved(args.against.read_text().splitlines(), lines)
    print("\n".join(changes or ["no column moved"]))
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
