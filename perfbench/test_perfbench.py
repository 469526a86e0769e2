"""Self-tests of the benchmark: job generation, oracles and tracing."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.run import END_TO_END, ROOT, Session, _import_package, measure, setup_once
from perfbench.tracer import PER_LAYER, Tracer, ahiso_modules

# Small job lists keep a pass under a second.
SMALL = {"flow": 5, "profile": 3, "geometry": 10}


@pytest.fixture(scope="module")
def cli():
    return _import_package()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_seeded(workload):
    first = workloads.generate(workload, 1)
    assert first == workloads.generate(workload, 1)
    assert first != workloads.generate(workload, 2)
    assert len(first) == workloads.SIZES[workload]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER) + ["trace_overhead", "wall_jobs_per_s"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


class _Corrupting:
    """Stands in for ahiso.cli: runs a job, then edits its output."""

    def __init__(self, cli, job: int, edit):
        self.cli, self.job, self.edit, self.calls = cli, job, edit, 0

    def run(self, argv):
        rc = self.cli.run(argv)
        out = Path(argv[-1])
        if out.name == f"job{self.job:03d}":
            self.calls += 1
            self.edit(out, self.calls)
        return rc


def _spheres_job(session) -> int:
    return next(i for i, job in enumerate(session.jobs) if job.subcommand == "spheres")


def _scale_first_row(column: str, factor: float):
    def edit(out: Path, call: int):
        lines = out.read_text().splitlines(keepends=True)
        header = lines[1].strip().split(",")
        row = lines[2].strip().split(",")
        k = header.index(column)
        row[k] = repr(float(row[k]) * factor)
        lines[2] = ",".join(row) + "\n"
        out.write_text("".join(lines))

    return edit


def test_clean_run_has_no_failures(cli, tmp_path):
    session = Session(cli, "geometry", 1, tmp_path, SMALL["geometry"])
    measure(session, 0.0)
    assert session.problems == []
    assert (session.attempted, session.failed) == (2 * SMALL["geometry"], 0)


def test_corrupt_row_fails_its_check(cli, tmp_path):
    session = Session(cli, "geometry", 1, tmp_path, SMALL["geometry"])
    job = _spheres_job(session)
    session.cli = _Corrupting(cli, job, _scale_first_row("K", 1.001))
    measure(session, 0.0)
    # The corrupt table fails in both passes, and so does the closing
    # summary that re-reads it.
    assert session.failed == 4
    assert session.failed / session.attempted > 0.0
    assert sum(f"job {job} " in p and "area K" in p for p in session.problems) == 2
    assert sum("gauss_bonnet" in p for p in session.problems) == 2


def test_body_change_between_repeats_fails(cli, tmp_path):
    session = Session(cli, "geometry", 1, tmp_path, SMALL["geometry"])
    job = _spheres_job(session)
    scale = _scale_first_row("H", 1.0 + 1e-12)
    # Only the repeat changes, and in a column no oracle reads.
    session.cli = _Corrupting(cli, job, lambda out, call: call > 1 and scale(out, call))
    measure(session, 0.0)
    assert session.failed == 1
    assert "differs from the first run" in session.problems[0]


def _bindings() -> dict:
    from ahiso.models import RadialMetric

    found = {(mod.__name__, key): value for mod in ahiso_modules() for key, value in vars(mod).items()}
    found[("RadialMetric", "f")] = RadialMetric.__dict__["f"]
    return found


def _traced_counts(cli, workload: str, work: Path) -> dict:
    session = Session(cli, workload, 3, work, SMALL[workload])
    tracer = Tracer()
    with tracer.installed():
        measure(session, 0.0, tracer)
    assert session.failed == 0
    assert tracer.counts_repeat()
    return tracer.exact_counts(0)


def test_traced_run_restores_every_binding(cli, tmp_path):
    before = _bindings()
    _traced_counts(cli, "geometry", tmp_path)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize(
    "workload, nonzero",
    [
        ("flow", ["numerics.solve_ode.steps", "numerics.solve_ode.rhs_calls", "numerics.find_root.probes"]),
        ("profile", ["numerics.integrate.panels", "numerics.find_root.probes", "cli.run.calls"]),
        ("geometry", ["numerics.integrate.panels", "models.coordinate_gap.calls", "cli.summary.calls"]),
    ],
)
def test_traced_counts_repeat_for_one_seed(cli, tmp_path, workload, nonzero):
    first = _traced_counts(cli, workload, tmp_path / "a")
    second = _traced_counts(cli, workload, tmp_path / "b")
    assert first == second
    assert all(first.get(key, 0) > 0 for key in nonzero)


def test_semi_infinite_integral_counts_once(cli):
    from ahiso import models

    metric = models.make_ads_schwarzschild(1.0)
    tracer = Tracer()
    with tracer.installed():
        tracer.start_pass()
        res = models.coordinate_gap(metric, 3.0)
        tracer.end_pass(1.0)
    counts = tracer.passes[0]["counts"]
    assert counts["numerics.integrate.calls"] == 1
    assert counts["numerics.integrate.panels"] == res.evaluations // 15
    names = [sp[4] for sp in tracer.spans]
    assert names == ["models.coordinate_gap", "numerics.integrate", "numerics.integrate"]


def test_bare_directory_exits_without_result(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geometry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_setup_once_reports_its_time_and_references(tmp_path):
    seconds, before, after = setup_once("geometry", 1, tmp_path)
    assert seconds > 0 and before > 0 and after > 0
    assert (tmp_path / "models" / "hyperbolic.json").is_file()
