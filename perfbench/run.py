"""Seeded end-to-end benchmark of the ``ahiso`` batch CLI.

    python3 perfbench/run.py --workload flow --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The benchmark writes the model files and the seeded job list
for one workload (``flow``, ``profile`` or ``geometry``, see
``workloads.py``), then drives the public entry point
``ahiso.cli.run(argv)`` in-process as one closed-loop caller: the next
job starts when the previous one has returned.  Every output is checked
against closed-form oracles (``checks.py``) and against its own earlier
repeats, which must match byte for byte outside the run manifest.

The job list is run pass after pass for ``--seconds``.  Each job is
timed between two measurements of a fixed reference workload and
reported at the reference's nominal speed (``reference.py``): the host
this was built on slows identical work by 1.4-1.9x for stretches of tens
of milliseconds to minutes.

End-to-end metrics
(``--trace 0``):

    jobs_per_s   jobs / sum of per-job latencies, each the median of
                 the job's repeats
    job_p50_ms   median latency over all job runs
    job_tail_ms  p87.5, p90 or p95 of those latencies for 40, 50 or 100
                 jobs: the highest percentile with ten runs beyond it in
                 the two passes every run makes
    peak_rss_mb  ru_maxrss of this process after the workload
    setup_s      median over fresh processes of the time each takes to
                 import numpy and ahiso, write the model files, generate
                 the jobs and run the warm-up jobs (interpreter start-up
                 is not included), scaled by the set-up reference

A failed job (nonzero exit, failed oracle, or body differing from the
job's first output) counts in ``failed``; fail_rate = failed / attempted.

``--trace 1`` runs half of the time untraced and half traced (see
``tracer.py``) and reports the per-layer metrics of one pass over the job
list, plus ``trace_overhead``, the traced jobs_per_s over the untraced,
and ``wall_jobs_per_s``, the untraced jobs_per_s by wall clock.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
BLAS_THREADS = "1"
SETUP_REPEATS = 11

END_TO_END = {
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def _on_path(*dirs: Path) -> None:
    for path in map(str, dirs):
        if path not in sys.path:
            sys.path.insert(0, path)


def _import_package():
    """Import ahiso from this checkout's src/, never from elsewhere."""
    if not (SRC / "ahiso" / "__init__.py").is_file():
        raise SystemExit(f"error: no ahiso sources under {SRC}; run from a source checkout")
    _on_path(ROOT, SRC)
    import ahiso.cli

    if Path(ahiso.__file__).resolve().parent != SRC / "ahiso":
        raise SystemExit(f"error: imported ahiso from {ahiso.__file__}, not {SRC}")
    return ahiso.cli


class Session:
    """Model files, job list and output checking for one workload run."""

    def __init__(self, cli, workload: str, seed: int, work: Path, n: int | None = None):
        from perfbench import workloads

        self.cli = cli
        self.model_dir = work / "models"
        self.results = work / "results"
        self.other = work / "other"
        for d in (self.results, self.other):
            d.mkdir(parents=True, exist_ok=True)
        workloads.write_models(self.model_dir)
        self.jobs = workloads.generate(workload, seed, n)
        n_tables = sum(job.subcommand != "summary" for job in self.jobs)
        self.argv = [self._argv(job, i) for i, job in enumerate(self.jobs)]
        self.params = [dict(job.params, n_runs=n_tables) for job in self.jobs]
        self.first: list[tuple[str, list[str]] | None] = [None] * len(self.jobs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        for i, job in enumerate(workloads.warmup(workload)):
            self._call(job.argv(self.model_dir, self.other, self.other / f"warmup{i}"))

    def _argv(self, job, i: int) -> list[str]:
        # Tables go to results/, which the closing summary job re-reads;
        # the summary's own output goes elsewhere.
        out_dir = self.other if job.subcommand == "summary" else self.results
        return job.argv(self.model_dir, self.results, out_dir / f"job{i:03d}")

    def _call(self, argv: list[str]) -> tuple[int, float, float]:
        """Exit code, wall time and wall time at the reference's nominal speed."""
        from perfbench.reference import at_nominal_speed, reference_s

        before = reference_s(3)
        t0 = perf_counter()
        rc = self.cli.run(argv)
        wall = perf_counter() - t0
        return rc, wall, at_nominal_speed(wall, before, reference_s(3))

    def run_job(self, i: int) -> tuple[float, float, int]:
        """Run and check job i; return its wall time, latency and output size."""
        from perfbench import checks, workloads

        rc, wall, latency = self._call(self.argv[i])
        out = Path(self.argv[i][-1])
        size = out.stat().st_size if out.exists() else 0
        self.attempted += 1
        if rc != 0:
            problems = [f"exit code {rc}"]
        else:
            body, data = checks.parse_output(out.read_text(encoding="utf-8"))
            digest = hashlib.sha256(body.encode()).hexdigest()
            if self.first[i] is None:
                job = self.jobs[i]
                cfg = workloads.MODELS.get(job.model, {})
                self.first[i] = (digest, checks.check(job.subcommand, cfg, self.params[i], data))
            first_digest, problems = self.first[i]
            if digest != first_digest:
                problems = problems + ["output body differs from the first run"]
        if problems:
            self.failed += 1
            self.problems.append(f"job {i} ({' '.join(self.argv[i][:-2])}): {'; '.join(problems)}")
        return wall, latency, size


def measure(session: Session, seconds: float, tracer=None) -> tuple[list, list]:
    """Run passes over the job list for about ``seconds``.

    Returns the latencies and the wall times of each job's repeats.  Only
    whole passes run, at least two so that every job is repeated.  Tracer
    spans and pass times are wall times.
    """
    latencies: list[list[float]] = [[] for _ in session.jobs]
    walls: list[list[float]] = [[] for _ in session.jobs]
    start = perf_counter()
    last = 0.0
    passes = 0
    while passes < 2 or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        if tracer is not None:
            tracer.start_pass()
        job_time = 0.0
        for i in range(len(session.jobs)):
            if tracer is not None:
                tracer.job = i
            wall, latency, size = session.run_job(i)
            latencies[i].append(latency)
            walls[i].append(wall)
            job_time += wall
            if tracer is not None:
                tracer.count("cli.out_bytes", size)
        if tracer is not None:
            tracer.end_pass(job_time)
        last = perf_counter() - t0
        passes += 1
    return latencies, walls


def throughput(latencies: list[list[float]]) -> float:
    """Jobs per second, taking each job's latency as the median of its repeats."""
    return len(latencies) / sum(statistics.median(lat) for lat in latencies)


def time_setups(workload: str, seed: int, work: Path) -> list[float]:
    """Set-up times of fresh processes that only do this run's set-up."""
    from perfbench.reference import NOMINAL_LOAD_S, at_nominal_speed

    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-only", str(work / f"setup{k}")]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        seconds, before, after = json.loads(out.splitlines()[-1])
        times.append(at_nominal_speed(seconds, before, after, NOMINAL_LOAD_S))
    return times


def setup_once(workload: str, seed: int, work: Path) -> list[float]:
    """Set up in this fresh process; its time and the set-up references around it."""
    _on_path(ROOT)
    from perfbench.reference import load_reference_s

    before = load_reference_s(5)
    t0 = perf_counter()
    Session(_import_package(), workload, seed, work)
    seconds = perf_counter() - t0
    return [seconds, before, load_reference_s(5)]


def main(argv: list[str] | None = None) -> int:
    from_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("flow", "profile", "geometry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # One caller, no worker threads: keep BLAS from starting its own.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if args.setup_only is not None:
        print(json.dumps(setup_once(args.workload, args.seed, args.setup_only)))
        return 0
    cli = _import_package()

    WORK.mkdir(parents=True, exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(cli, args, work, from_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(cli, args, work: Path, from_start: float) -> int:
    setups = [] if args.trace else time_setups(args.workload, args.seed, work)
    session = Session(cli, args.workload, args.seed, work / "run")
    n = len(session.jobs)
    lines = [f"workload {args.workload}, seed {args.seed}, {n} jobs"]
    correct = True
    if not args.trace:
        latencies, walls = measure(session, args.seconds)
        jobs_per_s = throughput(latencies)
        wall_jobs_per_s = throughput(walls)
        samples = sorted(x for lat in latencies for x in lat)
        # Every run makes at least two passes, so this rank leaves at least
        # ten samples beyond it in every run.
        tail_q = 1.0 - 10.0 / (2 * n)
        metrics = {
            "jobs_per_s": jobs_per_s,
            "job_p50_ms": statistics.median(samples) * 1e3,
            "job_tail_ms": samples[math.ceil(tail_q * len(samples)) - 1] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
        lines.append(
            f"{len(latencies[0])} passes, {len(samples)} job latencies; job_tail_ms is "
            f"p{100 * tail_q:g}; setup_s is the median of {len(setups)} set-ups; "
            f"by wall clock {wall_jobs_per_s:.4g} jobs/s"
        )
    else:
        from perfbench.tracer import PER_LAYER, Tracer

        latencies, walls = measure(session, args.seconds / 2)
        untraced = throughput(latencies)
        tracer = Tracer()
        with tracer.installed():
            traced = throughput(measure(session, args.seconds / 2, tracer)[0])
        metrics = tracer.metrics()
        metrics["trace_overhead"] = traced / untraced
        # Unscaled, so that the scaled jobs_per_s can be checked against it.
        metrics["wall_jobs_per_s"] = throughput(walls)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        units["trace_overhead"] = "ratio"
        units["wall_jobs_per_s"] = "jobs/s"
        if not tracer.counts_repeat():
            correct = False
            session.problems.append("work counts differ between traced passes")
        spans = WORK / f"spans-{args.workload}.csv"
        tracer.write_spans(spans)
        lines.append(f"{len(tracer.passes)} traced passes; {len(tracer.spans)} spans in {spans}")

    correct = correct and session.failed == 0
    lines.append(
        f"attempted {session.attempted}, failed {session.failed}, "
        f"fail_rate {session.failed / session.attempted:g}, "
        f"{perf_counter() - from_start:.1f} s in all"
    )
    for problem in session.problems[:20]:
        print(problem, file=sys.stderr)
    for name, value in metrics.items():
        lines.append(f"{name:48s} {value:14.6g} {units[name]}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
