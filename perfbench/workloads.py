"""Seeded job lists for the benchmark workloads.

A job is one ``ahiso`` CLI invocation.  The generator sees only the seed;
the program sees only the model files and argv lists made here.

Every workload has a fixed design: each job draws each parameter from its
own stratum of the parameter's range, and models are assigned to jobs in
a fixed rotation.  The seed picks where in its stratum each value falls
(within its middle fifth) and the order of the jobs.  Two seeds therefore
give different inputs with the same cost profile, so the spread between
runs reflects the program and the host rather than the luck of the draw.
The ranges bracket the traffic the package is verified on (the
acceptance script and tests) plus the dt = 1e-3 flow.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from .checks import hyperbolic_area

# Model file name -> contents.  Both perturbed models pass validate_ah.
MODELS = {
    "hyperbolic": {"type": "hyperbolic"},
    "ads_m0.5": {"type": "ads_schwarzschild", "mass": 0.5},
    "ads_m1": {"type": "ads_schwarzschild", "mass": 1.0},
    "ads_m2": {"type": "ads_schwarzschild", "mass": 2.0},
    "pert_m1": {"type": "perturbed", "mass": 1.0, "coeffs": [0.1, 0.05]},
    "pert_m0.5": {"type": "perturbed", "mass": 0.5, "coeffs": [0.2]},
}

# Distinct jobs per workload.  They also fix the tail percentile, the
# highest with ten job runs beyond it in two passes: p87.5, p90 and p95.
SIZES = {"flow": 40, "profile": 50, "geometry": 100}

FLOW_DTS = (1e-3, 2e-3, 5e-3, 1e-2)


@dataclass(frozen=True)
class Job:
    """One CLI call: subcommand, model file name (or None) and flags."""

    subcommand: str
    model: str | None
    flags: tuple[tuple[str, float], ...] = ()

    @property
    def params(self) -> dict:
        return {name.replace("-", "_"): value for name, value in self.flags}

    def argv(self, model_dir: Path, results_dir: Path, out: Path) -> list[str]:
        argv = [self.subcommand]
        if self.model is not None:
            argv += ["--model", str(model_dir / f"{self.model}.json")]
        for name, value in self.flags:
            argv += [f"--{name}", repr(value)]
        if self.subcommand == "summary":
            argv.append(str(results_dir))
        return argv + ["--out", str(out)]


def write_models(model_dir: Path) -> None:
    model_dir.mkdir(parents=True, exist_ok=True)
    for name, cfg in MODELS.items():
        (model_dir / f"{name}.json").write_text(json.dumps(cfg) + "\n")


def _strata(rng: random.Random, k: int, lo: float, hi: float, log=False) -> list[float]:
    """One value from each of k equal strata of [lo, hi], in stratum order."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    vals = [a + (b - a) * (i + 0.4 + 0.2 * rng.random()) / k for i in range(k)]
    return [float(f"{math.exp(x) if log else x:.4g}") for x in vals]


def _int_strata(rng: random.Random, k: int, lo: int, hi: int) -> list[int]:
    return [min(hi, int(x)) for x in _strata(rng, k, lo, hi + 1)]


def _pair(values: list, k: int) -> list:
    # A fixed stride through a second parameter's strata, so that two
    # parameters of one job are not both at the top of their ranges.
    step = next(s for s in (7, 5, 3, 1) if math.gcd(s, k) == 1)
    return [values[(i * step) % k] for i in range(k)]


def _models(k: int, offset: int = 0) -> list[str]:
    names = list(MODELS)
    return [names[(i + offset) % len(names)] for i in range(k)]


def _flow(rng: random.Random, n: int) -> list[Job]:
    # ~80% imcf over the four dt levels, ~20% comparison ODE from A_H(1).
    n_cmp = n // 5
    n_imcf = n - n_cmp
    jobs = []
    for level, dt in enumerate(FLOW_DTS):
        k = len(range(level, n_imcf, len(FLOW_DTS)))
        t_max = _strata(rng, k, 3.0, 8.0)
        s0 = _pair(_strata(rng, k, 2.0, 4.0), k)
        models = _models(k, level)
        jobs += [
            Job("imcf", models[i], (("s0", s0[i]), ("t-max", t_max[i]), ("dt", dt)))
            for i in range(k)
        ]
    b0 = hyperbolic_area(1.0)
    jobs += [
        Job("compare-ode", None, (("b0", b0), ("v0", 1.0), ("v-end", v)))
        for v in _strata(rng, n_cmp, 1e3, 1e5, log=True)
    ]
    rng.shuffle(jobs)
    return jobs


def _profile(rng: random.Random, n: int) -> list[Job]:
    n_exp = 2 * n // 5
    n_prof = n - n_exp
    jobs = []
    for sub, k, n_lo, n_hi in (("profile", n_prof, 20, 60), ("expansion", n_exp, 4, 8)):
        rows = _int_strata(rng, k, n_lo, n_hi)
        v_max = _pair(_strata(rng, k, 1e4, 1e6, log=True), k)
        models = _models(k)
        jobs += [Job(sub, models[i], (("n", rows[i]), ("v-max", v_max[i]))) for i in range(k)]
    rng.shuffle(jobs)
    return jobs


def _geometry(rng: random.Random, n: int) -> list[Job]:
    # 40% renorm-vol, 40% spheres, 10% stability, the rest validate, and
    # one closing summary that re-reads every table the others wrote.
    n_ren = n_sph = 2 * n // 5
    n_stab = n // 10
    n_val = n - n_ren - n_sph - n_stab - 1
    jobs = []
    for sub, flags in (
        ("renorm-vol", [(("rho", r),) for r in _strata(rng, n_ren, 15.0, 25.0)]),
        ("spheres", [(("n", k),) for k in _int_strata(rng, n_sph, 50, 200)]),
        ("stability", [(("n", k),) for k in _int_strata(rng, n_stab, 20, 50)]),
        ("validate", [()] * n_val),
    ):
        models = _models(len(flags))
        jobs += [Job(sub, models[i], f) for i, f in enumerate(flags)]
    rng.shuffle(jobs)
    return jobs + [Job("summary", None)]


_GENERATORS = {"flow": _flow, "profile": _profile, "geometry": _geometry}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, n: int | None = None) -> list[Job]:
    """The job list of ``workload`` for ``seed``; ``n`` overrides its size."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, SIZES[workload] if n is None else n)


def warmup(workload: str) -> list[Job]:
    """One small job per subcommand of the workload, run before timing."""
    if workload == "flow":
        return [
            Job("imcf", "ads_m1", (("s0", 2.0), ("t-max", 0.5), ("dt", 0.1))),
            Job("compare-ode", None, (("b0", hyperbolic_area(1.0)), ("v-end", 10.0), ("n", 5))),
        ]
    if workload == "profile":
        return [
            Job("profile", "ads_m1", (("n", 2), ("v-max", 10.0))),
            Job("expansion", "ads_m1", (("n", 2), ("v-max", 10.0))),
        ]
    return [
        Job("renorm-vol", "ads_m1", (("rho", 15.0),)),
        Job("spheres", "ads_m1", (("n", 5),)),
        Job("stability", "ads_m1", (("n", 5),)),
        Job("validate", "ads_m1"),
        Job("summary", None),
    ]
