"""Outside-in tracing of the ``ahiso`` package for the traced run.

The package binds names at import time (``from .numerics import
integrate`` in models, profiles and spheres, ``solve_ode`` in imcf, and
so on), so wrapping a function in its home module alone would miss most
calls.  :meth:`Tracer.installed` rebinds each wrapped function in every
``ahiso`` module whose global is that function, and puts every original
back on exit.  No package source is changed.

Each wrapped call records a span (pass, job, id, parent, name, start,
end) in memory; :meth:`Tracer.write_spans` writes them out at the end of
the run.  A layer's self time is its spans' time minus the time covered
by their child spans.  Busy time counts only outermost spans of a name,
so nested calls of one function are not counted twice.

Work counts are read at the same boundaries: GK15 panels from
``QuadResult.evaluations``, ODE steps and RHS calls from
``OdeSolution``, root probes by wrapping the callable passed to
``find_root``.  All counts are per pass over the workload's job list and
repeat exactly for one seed.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from ahiso.models import RadialMetric
from ahiso.numerics import NumericsError

# (module, function, span name).  The three model constructors share one.
SPANNED = (
    ("numerics", "integrate", "numerics.integrate"),
    ("numerics", "solve_ode", "numerics.solve_ode"),
    ("numerics", "find_root", "numerics.find_root"),
    ("models", "coordinate_gap", "models.coordinate_gap"),
    ("models", "rho_from_s", "models.rho_from_s"),
    ("models", "s_from_rho", "models.s_from_rho"),
    ("models", "validate_ah", "models.validate_ah"),
    ("models", "make_hyperbolic", "models.make"),
    ("models", "make_ads_schwarzschild", "models.make"),
    ("models", "make_perturbed", "models.make"),
    ("profiles", "model_radius_for_volume", "profiles.model_radius_for_volume"),
    ("profiles", "hyperbolic_profile", "profiles.hyperbolic_profile"),
    ("profiles", "gap_table", "profiles.gap_table"),
    ("profiles", "renormalized_volume", "profiles.renormalized_volume"),
    ("profiles", "cumulative_volume_over_grid", "profiles.cumulative_volume_over_grid"),
    ("profiles", "model_volume", "profiles.model_volume"),
    ("imcf", "flow_spheres", "imcf.flow_spheres"),
    ("imcf", "comparison_ode", "imcf.comparison_ode"),
    ("spheres", "sphere_data", "spheres.sphere_data"),
    ("spheres", "stability_total", "spheres.stability_total"),
    ("spheres", "jacobi_spectrum", "spheres.jacobi_spectrum"),
    ("cli", "run", "cli.run"),
    ("cli", "emit_summary", "cli.summary"),
)

# Per-layer metrics of one pass: name -> (unit, better).
PER_LAYER = {
    "numerics.solve_ode.calls": ("count", "lower"),
    "numerics.solve_ode.steps": ("count", "lower"),
    "numerics.solve_ode.rejected": ("count", "lower"),
    "numerics.solve_ode.rhs_calls": ("count", "lower"),
    "numerics.solve_ode.accept_ratio": ("ratio", "higher"),
    "numerics.solve_ode.rhs_per_sample": ("ratio", "lower"),
    "numerics.solve_ode.self_s": ("s", "lower"),
    "numerics.solve_ode.share": ("ratio", "lower"),
    "numerics.find_root.calls": ("count", "lower"),
    "numerics.find_root.probes": ("count", "lower"),
    "numerics.find_root.probes_per_call": ("ratio", "lower"),
    "numerics.find_root.self_s": ("s", "lower"),
    "numerics.find_root.share": ("ratio", "lower"),
    "numerics.integrate.calls": ("count", "lower"),
    "numerics.integrate.panels": ("count", "lower"),
    "numerics.integrate.panels_per_call": ("ratio", "lower"),
    "numerics.integrate.panels_max": ("count", "lower"),
    "numerics.integrate.self_s": ("s", "lower"),
    "numerics.integrate.share": ("ratio", "lower"),
    "numerics.errors": ("count", "lower"),
    "models.RadialMetric.f.calls": ("count", "lower"),
    "models.RadialMetric.f.scalar_share": ("ratio", "lower"),
    "models.coordinate_gap.calls": ("count", "lower"),
    "models.coordinate_gap.busy_s": ("s", "lower"),
    "models.coordinate_gap.self_s": ("s", "lower"),
    "models.coordinate_gap.share": ("ratio", "lower"),
    "models.rho_from_s.calls": ("count", "lower"),
    "models.s_from_rho.calls": ("count", "lower"),
    "models.s_from_rho.busy_s": ("s", "lower"),
    "models.make.busy_s": ("s", "lower"),
    "models.validate_ah.busy_s": ("s", "lower"),
    "profiles.model_radius_for_volume.calls": ("count", "lower"),
    "profiles.model_radius_for_volume.busy_s": ("s", "lower"),
    "profiles.model_radius_for_volume.self_s": ("s", "lower"),
    "profiles.hyperbolic_profile.calls": ("count", "lower"),
    "profiles.hyperbolic_profile.busy_s": ("s", "lower"),
    "profiles.gap_table.busy_s": ("s", "lower"),
    "profiles.renormalized_volume.busy_s": ("s", "lower"),
    "profiles.renormalized_volume.self_s": ("s", "lower"),
    "profiles.cumulative_volume_over_grid.busy_s": ("s", "lower"),
    "profiles.model_volume.busy_s": ("s", "lower"),
    "imcf.flow_spheres.busy_s": ("s", "lower"),
    "imcf.flow_spheres.self_s": ("s", "lower"),
    "imcf.comparison_ode.busy_s": ("s", "lower"),
    "imcf.comparison_ode.self_s": ("s", "lower"),
    "spheres.sphere_data.calls": ("count", "lower"),
    "spheres.sphere_data.busy_s": ("s", "lower"),
    "spheres.stability_total.busy_s": ("s", "lower"),
    "spheres.jacobi_spectrum.busy_s": ("s", "lower"),
    "cli.run.calls": ("count", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "cli.summary.busy_s": ("s", "lower"),
}

# Work counts that must repeat exactly from pass to pass.
EXACT = (".calls", ".panels", ".panels_max", ".steps", ".rejected", ".rhs_calls",
         ".samples", ".probes", ".scalar", "numerics.errors")


def ahiso_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "ahiso" or name.startswith("ahiso.")]


class Tracer:
    """Spans and work counts of wrapped ``ahiso`` calls, pass by pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.passes: list[dict] = []
        self.job = -1
        self._pass_start = 0
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._counts: dict[str, float] = defaultdict(float)
        self._errors: list[BaseException] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        before = {"numerics.find_root": self._count_probes}.get(name)
        after = {
            "numerics.integrate": self._count_panels,
            "numerics.solve_ode": self._count_steps,
        }.get(name)
        spans, stack, depth, counts = self.spans, self._stack, self._depth, self._counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            # integrate calls itself directly only for the u = 1/s transform
            # of a semi-infinite range: one call, counted once.
            inner = parent >= 0 and spans[parent][4] == name
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(spans)
            span = [len(self.passes), self.job, sid, parent, name, 0.0, 0.0, depth[name] == 0]
            spans.append(span)
            stack.append(sid)
            depth[name] += 1
            span[5] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except NumericsError as exc:
                if not any(e is exc for e in self._errors):
                    self._errors.append(exc)
                    counts["numerics.errors"] += 1
                raise
            finally:
                span[6] = perf_counter()
                depth[name] -= 1
                stack.pop()
            if not inner:
                counts[name + ".calls"] += 1
                if after is not None:
                    after(result)
            return result

        return wrapper

    def _count_panels(self, res):
        panels = res.evaluations // 15
        self._counts["numerics.integrate.panels"] += panels
        key = "numerics.integrate.panels_max"
        self._counts[key] = max(self._counts[key], panels)

    def _count_steps(self, sol):
        c = self._counts
        c["numerics.solve_ode.steps"] += sol.n_steps
        c["numerics.solve_ode.rejected"] += sol.n_rejected
        c["numerics.solve_ode.rhs_calls"] += sol.rhs_evaluations
        c["numerics.solve_ode.samples"] += sol.xs.size

    def _count_probes(self, args, kwargs):
        counts = self._counts
        fn = args[0] if args else kwargs.pop("fn")

        def probe(x):
            counts["numerics.find_root.probes"] += 1
            return fn(x)

        return (probe,) + tuple(args[1:]), kwargs

    def _counted_f(self, f):
        counts = self._counts

        @functools.wraps(f)
        def counted(metric, s):
            counts["models.RadialMetric.f.calls"] += 1
            if not isinstance(s, np.ndarray) or s.ndim == 0:
                counts["models.RadialMetric.f.scalar"] += 1
            return f(metric, s)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap every SPANNED function everywhere it is bound; undo on exit."""
        modules = ahiso_modules()
        patches = []
        try:
            for home, attr, name in SPANNED:
                original = getattr(sys.modules[f"ahiso.{home}"], attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
            f = RadialMetric.__dict__["f"]
            patches.append((RadialMetric, "f", f))
            RadialMetric.f = self._counted_f(f)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    # -- passes ----------------------------------------------------------

    def count(self, key: str, amount: float) -> None:
        self._counts[key] += amount

    def start_pass(self) -> None:
        self._pass_start = len(self.spans)
        self._counts.clear()
        self._errors.clear()

    def end_pass(self, wall_s: float) -> None:
        """Close one pass over the job list; ``wall_s`` is its job time."""
        spans = self.spans[self._pass_start:]
        child = defaultdict(float)
        for sp in spans:
            if sp[3] >= 0:
                child[sp[3]] += sp[6] - sp[5]
        self_s = defaultdict(float)
        busy_s = defaultdict(float)
        for sp in spans:
            dur = sp[6] - sp[5]
            self_s[sp[4]] += dur - child[sp[2]]
            if sp[7]:
                busy_s[sp[4]] += dur
        self.passes.append(
            {"counts": dict(self._counts), "self_s": dict(self_s),
             "busy_s": dict(busy_s), "wall_s": wall_s}
        )

    def exact_counts(self, k: int) -> dict:
        return {key: v for key, v in self.passes[k]["counts"].items() if key.endswith(EXACT)}

    def counts_repeat(self) -> bool:
        """True when every pass did exactly the work of the first."""
        return all(self.exact_counts(k) == self.exact_counts(0) for k in range(len(self.passes)))

    def metrics(self) -> dict[str, float]:
        """PER_LAYER values: counts of the first pass, times as pass medians."""
        c = defaultdict(float, self.passes[0]["counts"])

        def median_of(field, name):
            return statistics.median(p[field].get(name, 0.0) for p in self.passes)

        def share(name):
            return statistics.median(
                p["busy_s"].get(name, 0.0) / p["wall_s"] for p in self.passes
            )

        def ratio(a, b):
            return c[a] / c[b] if c[b] else 0.0

        out = {}
        for metric in PER_LAYER:
            layer, _, field = metric.rpartition(".")
            if field in ("self_s", "busy_s"):
                out[metric] = median_of(field, layer)
            elif field == "share":
                out[metric] = share(layer)
            else:
                out[metric] = c[metric]
        s, f = "numerics.solve_ode.", "models.RadialMetric.f."
        out[s + "accept_ratio"] = c[s + "steps"] / (c[s + "steps"] + c[s + "rejected"]) if c[s + "steps"] else 0.0
        out[s + "rhs_per_sample"] = ratio(s + "rhs_calls", s + "samples")
        out["numerics.find_root.probes_per_call"] = ratio("numerics.find_root.probes", "numerics.find_root.calls")
        out["numerics.integrate.panels_per_call"] = ratio("numerics.integrate.panels", "numerics.integrate.calls")
        out[f + "scalar_share"] = ratio(f + "scalar", f + "calls")
        return out

    def write_spans(self, path: Path) -> None:
        """Write every recorded span as CSV, times in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass,job,id,parent,name,start_s,end_s\n")
            for sp in self.spans:
                fh.write(f"{sp[0]},{sp[1]},{sp[2]},{sp[3]},{sp[4]},{sp[5]:.9f},{sp[6]:.9f}\n")
