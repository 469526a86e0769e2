#!/usr/bin/env python3
"""Traced memory peak of every job of a benchmark workload.

    python3 scripts/job_memory.py --workload flow --seed 5 --top 5

It sets up the workload as ``perfbench/run.py`` does (a
``perfbench.run.Session`` in a temporary directory: the model files,
the seeded job list and the warm-up jobs, with the package imported
from this checkout's ``src/``), then runs each job once, in process.
``tracemalloc`` is started just before each job and stopped just after
it, so a job's peak is the most memory (Python objects and numpy
arrays) that it held at once.  One line

    <peak> MiB  job <index>  <subcommand> <model> <flags>

is printed per job, largest peak first, the first ``--top`` only when
it is given.  Unlike a process's peak RSS, the number moves neither with
bytecode compilation nor with what the allocator kept from earlier
jobs, so it compares one job across two checkouts.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run, workloads  # noqa: E402


def job_peaks(workload: str, seed: int) -> tuple[list[workloads.Job], list[tuple[float, int]]]:
    """The jobs of ``workload`` for ``seed`` and the (traced peak in MiB,
    index) of each, largest first, after the workload's warm-up jobs."""
    peaks = []
    with tempfile.TemporaryDirectory() as tmp:
        session = run.Session(run._import_package(), workload, seed, Path(tmp))
        for i, argv in enumerate(session.argv):
            tracemalloc.start()
            try:
                rc = session.cli.run(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if rc != 0:
                raise SystemExit(f"error: job {i} ({argv[0]}) exited with {rc}")
            peaks.append((peak / 2**20, i))
    return session.jobs, sorted(peaks, key=lambda p: (-p[0], p[1]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--top", type=int, help="print only the N largest")
    args = parser.parse_args(argv)
    if args.top is not None and args.top < 1:
        parser.error("--top must be positive")
    jobs, peaks = job_peaks(args.workload, args.seed)
    for peak, i in peaks[: args.top]:
        job = jobs[i]
        flags = " ".join(f"--{name} {value!r}" for name, value in job.flags)
        print(f"{peak:9.3f} MiB  job {i:03d}  {job.subcommand} {job.model or '-'} {flags}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
