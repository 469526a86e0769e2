"""Command-line surface: batch runs with manifest-stamped CSV/JSON output.

Every output embeds a run manifest (subcommand, model digest, resolved
parameters, timestamp, tool version).  The manifest line is the only part
of an output that varies between identical runs; the numeric body is
byte-identical because all kernels are deterministic.

CSV layout: one `# manifest: {...}` comment line, a header row, then one
row per sample with round-trippable float formatting (``repr``).  Every
table is handed to one writer as a ``{header: column}`` dict of
equal-length arrays.  Scalar results are JSON objects carrying the
manifest under a "manifest" key.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import stat
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .imcf import Flow, comparison_ode, flow_spheres, lipschitz_check
from .models import (
    RadialMetric,
    _S_MAX,
    _geomspace,
    _grid_ends,
    gap_over_grid,
    make_ads_schwarzschild,
    make_hyperbolic,
    make_perturbed,
    validate_ah,
)
from .numerics import NumericsError
from .profiles import gap_table, renormalized_volume
from .spheres import jacobi_spectrum, sphere_data, stability_total

__all__ = ["run", "main", "emit_summary"]

EIGHT_PI = 8.0 * math.pi
TWELVE_PI = 12.0 * math.pi


class _Parser(argparse.ArgumentParser):
    # argparse exits the process on bad flags; surface them as validation
    # failures (exit code 1) instead.
    def error(self, message):
        raise ValueError(message)


def _load_model(path: str) -> tuple[RadialMetric, dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read model file {path}: {exc}") from None
    digest = hashlib.sha256(raw).hexdigest()[:16]
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"model file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ValueError("model file must be a JSON object with a 'type' key")
    kind = cfg["type"]
    try:
        mass = float(cfg.get("mass", 0.0))
        coeffs = tuple(float(c) for c in cfg.get("coeffs", []))
    except (TypeError, ValueError):
        raise ValueError("model 'mass' and 'coeffs' must be numeric") from None
    if kind == "hyperbolic":
        metric = make_hyperbolic()
    elif kind == "ads_schwarzschild":
        metric = make_ads_schwarzschild(mass)
    elif kind == "perturbed":
        metric = make_perturbed(mass, coeffs)
    else:
        raise ValueError(f"unknown model type {kind!r}")
    model = {
        "type": kind,
        "mass": metric.mass,
        "coeffs": list(metric.coeffs),
        "core_radius": metric.core_radius,
    }
    return metric, model, digest


def _metric_from_model_dict(model: dict) -> RadialMetric:
    """Rebuild the metric recorded in a manifest's parameter block."""
    return RadialMetric(
        mass=float(model["mass"]),
        coeffs=tuple(float(c) for c in model.get("coeffs", [])),
        core_radius=float(model.get("core_radius", 0.0)),
    )


def _manifest(subcommand: str, digest: str, parameters: dict) -> dict:
    return {
        "subcommand": subcommand,
        "model_digest": digest,
        "parameters": parameters,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
    }


def _csv_text(manifest: dict, table: dict) -> str:
    """The CSV text of a {header: column} table of equal-length float columns.

    Raises NumericsError, naming the column, if a value is not finite.
    """
    arrays = [np.asarray(col, dtype=float) for col in table.values()]
    for name, arr in zip(table, arrays):
        if not np.all(np.isfinite(arr)):
            raise NumericsError(f"column {name!r} holds a non-finite value")
    cells = [map(repr, arr.tolist()) for arr in arrays]
    lines = [
        "# manifest: " + json.dumps(manifest, sort_keys=True),
        ",".join(table),
        *map(",".join, zip(*cells)),
    ]
    return "\n".join(lines) + "\n"


def _json_text(manifest: dict, payload: dict) -> str:
    obj = dict(payload)
    obj["manifest"] = manifest
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is empty.

    An existing file is written over in place and then cut at the end of
    what was written, instead of being truncated to zero first: on ext4,
    truncating a file that holds blocks costs far more than the write and
    arms a flush on close that the next truncation waits for.  The cut
    also runs when a write fails part-way, so no row of an older, longer
    table is left behind the new manifest.  A pipe or a device is written
    without the cut, which it does not support.
    """
    if not out:
        sys.stdout.write(text)
        return
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            try:
                fh.write(text)
                fh.flush()
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except OSError as exc:
        raise ValueError(f"cannot write output file {out}: {exc}") from None


# ----------------------------------------------------------------------
# Subcommands
#
# A handler takes the parsed flags and the metric of --model (None for a
# subcommand without one) and returns its output: a {header: column}
# table or a JSON payload.


def _s_grid(args, metric: RadialMetric) -> np.ndarray:
    """The geometric radius grid of --n points from --s-min to --s-max.

    An omitted end is :func:`default_grid`'s, core + 0.1 max(1, core) or
    max(1e3, 1e3 core), and is written back to ``args`` for the manifest.
    """
    lo, hi = _grid_ends(metric)
    if args.s_min is None:
        args.s_min = lo
    if args.s_max is None:
        args.s_max = hi
    if not (args.s_min > metric.core_radius):
        raise ValueError(
            f"--s-min must exceed the core radius {metric.core_radius!r}"
        )
    if not (args.s_min < args.s_max < math.inf):
        raise ValueError("--s-max must exceed --s-min and be finite")
    # spheres' rho column integrates the coordinate gap from s_max on
    # (stability's 4 pi s^2 overflows only past 3.78e153).
    if args.s_max > _S_MAX:
        raise ValueError(f"--s-max must be at most {_S_MAX!r}")
    if args.n < 1:
        raise ValueError("--n must be positive")
    return _geomspace(args.s_min, args.s_max, args.n)


# The closed-form columns overflow at extreme radii (K = 1/s^2 below
# s = 1e-154): they are left non-finite, for _csv_text to refuse by name.
_CLOSED_FORM = dict(over="ignore", divide="ignore", invalid="ignore")


def _cmd_spheres(args, metric):
    grid = _s_grid(args, metric)
    gap, _ = gap_over_grid(metric, grid)
    with np.errstate(**_CLOSED_FORM):
        g = sphere_data(metric, grid)
        total = stability_total(metric, grid)
    return {
        "s": grid,
        # math.asinh, not np.arcsinh: numpy's differs from libm by an ulp
        # on some radii, which would move the column for hyperbolic space.
        "rho": np.array([math.asinh(s) for s in grid.tolist()]) - gap,
        "area": g.area,
        "H": g.mean_curvature,
        "Ric_nu": g.ricci_normal,
        "K": g.gauss_curvature,
        "R": g.scalar,
        "hawking_mass": g.hawking_mass,
        "stability_total": total,
    }


def _cmd_imcf(args, metric):
    if args.s0 < sys.float_info.min:  # subnormal radii repeat along the flow
        raise ValueError(f"--s0 must be at least {sys.float_info.min!r}, the smallest normal float")
    # solve_ode and integrate check their own values; hawking is closed form.
    with np.errstate(**_CLOSED_FORM):
        flow = flow_spheres(metric, args.s0, args.t_max, args.dt)
    return {
        "t": flow.t,
        "s": flow.s,
        "area": flow.area,
        "volume": flow.enclosed_volume,
        "hawking": flow.hawking,
    }


def _cmd_compare_ode(args, metric):
    curve = comparison_ode(args.b0, args.mass_floor, args.v0, args.v_end, n_grid=args.n)
    return {"v": curve.v_grid, "B": curve.B_values, "A_H": curve.hyperbolic_values}


def _cmd_profile(args, metric):
    if not (0.0 < args.v_min < args.v_max < math.inf):
        raise ValueError("need 0 < --v-min < --v-max < inf")
    if args.n < 2:
        raise ValueError("--n must be at least 2")
    # The ProfileTable fields are the column headers.
    return vars(gap_table(metric, _geomspace(args.v_min, args.v_max, args.n)))


def _cmd_expansion(args, metric):
    if not (0.0 < args.v_max < math.inf):
        raise ValueError("--v-max must be finite and positive")
    if args.n < 1:
        raise ValueError("--n must be positive")
    # Dyadic grid v_max 4^-k; ldexp, since 4^-k alone underflows past k = 537.
    grid = np.ldexp(args.v_max, -2 * np.arange(args.n - 1, -1, -1))
    if grid[0] == 0.0:
        raise ValueError(f"--n {args.n} puts --v-max 4^(1 - n) below the smallest float")
    return vars(gap_table(metric, grid))


def _cmd_renorm_vol(args, metric):
    return vars(renormalized_volume(metric, args.rho))


def _cmd_stability(args, metric):
    grid = _s_grid(args, metric)
    with np.errstate(**_CLOSED_FORM):
        spec = dict(jacobi_spectrum(metric, grid, l_max=2))
        total = stability_total(metric, grid)
    return {
        "s": grid,
        "stability_total": total,
        "lambda_0": spec[0],
        "lambda_1": spec[1],
        "lambda_2": spec[2],
    }


def _cmd_validate(args, metric):
    return vars(validate_ah(metric))


# ----------------------------------------------------------------------
# Summary over a directory of run outputs


# What the summary's criteria read of each subcommand's result: the columns
# of its table, or the keys of its JSON object.
_CHECKED = {
    "spheres": ("area", "K", "R", "hawking_mass"),
    "stability": ("stability_total", "lambda_1", "lambda_2"),
    "imcf": ("t", "s", "area", "volume", "hawking"),
    "compare-ode": ("B", "A_H"),
    "profile": ("v", "gap", "scaled_gap"),
    "expansion": ("v", "gap", "scaled_gap"),
    "renorm-vol": ("value",),
}


def _is_number(value) -> bool:
    """Whether a JSON value is a number that a float holds (a bool is not)."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def _usable_manifest(manifest) -> bool:
    """Whether a manifest meets its half of :func:`_read_run`'s rule."""
    if not isinstance(manifest, dict) or not isinstance(manifest.get("parameters"), dict):
        return False
    sub = manifest.get("subcommand")
    if not isinstance(sub, str) or not sub:
        return False
    parser = _build_parser().subcommands.get(sub)
    if parser is None or "--model" not in parser._option_string_actions:
        return True
    model = manifest["parameters"].get("model")
    if not isinstance(model, dict) or not isinstance(manifest.get("model_digest"), str):
        return False
    coeffs = model.get("coeffs", [])
    numbers = [model.get("mass"), model.get("core_radius", 0.0)]
    return isinstance(coeffs, list) and all(map(_is_number, numbers + coeffs))


def _read_run(path: str):
    """Parse one result file into (manifest, data), or None if it is unusable.

    The one rule for a usable result file: it is a CSV table or a JSON
    object whose manifest is an object with a non-empty string
    ``subcommand`` and an object of ``parameters`` and, for a subcommand
    that takes --model, a string ``model_digest`` and a model record whose
    ``mass``, and ``coeffs`` (a list) and ``core_radius`` where present,
    are numbers; it holds every column or key that ``_CHECKED`` declares
    for its subcommand, all numbers; and every row of a table has the
    header's cell count (a truncated write does not).  ``data`` maps
    exactly those names to float columns, a JSON object being a table of
    one row; no other column is converted.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        table = text.startswith("# manifest: ")
        lines = text.splitlines()
        obj = json.loads(lines[0][len("# manifest: ") :] if table else text)
    except (OSError, ValueError):  # unreadable, not UTF-8, or not JSON
        return None
    manifest = obj if table else obj.get("manifest") if isinstance(obj, dict) else None
    if not _usable_manifest(manifest) or (table and len(lines) < 2):
        return None
    names = _CHECKED.get(manifest["subcommand"], ())
    if not table:
        if not all(_is_number(obj.get(name)) for name in names):
            return None
        return manifest, {name: np.array([float(obj[name])]) for name in names}
    header, rows = lines[1].split(","), lines[2:]
    if any(row.count(",") != len(header) - 1 for row in rows) or not set(names) <= set(header):
        return None
    cells = np.empty((0, len(names)))
    if rows and names:
        cols = [header.index(name) for name in names]
        try:
            cells = np.loadtxt(rows, delimiter=",", usecols=cols, ndmin=2)
        except ValueError:
            return None
    return manifest, dict(zip(names, cells.T))


def _runs_by_subcommand(results_dir: str) -> tuple[dict[str, list], int]:
    """The usable runs in results_dir by subcommand, and how many there are.
    A header-only table counts, but has nothing for a criterion to measure."""
    if not os.path.isdir(results_dir):
        raise ValueError(f"{results_dir} is not a directory")
    paths = [os.path.join(results_dir, name) for name in sorted(os.listdir(results_dir))]
    usable = [parsed for parsed in map(_read_run, paths) if parsed is not None]
    if not usable:
        raise ValueError(f"missing runs: no recognizable result files in {results_dir}")
    runs: dict[str, list] = {}
    for manifest, data in usable:
        if all(col.size for col in data.values()):
            runs.setdefault(manifest["subcommand"], []).append((manifest, data))
    return runs, len(usable)


def _criterion(measured, tolerance, ok: bool | None) -> dict:
    if ok is None:
        return {"measured": None, "tolerance": tolerance, "status": "missing"}
    return {
        "measured": measured,
        "tolerance": tolerance,
        "status": "pass" if ok else "fail",
    }


def _bounded(runs, subcommand: str, bounds: dict, measure) -> dict:
    """Worst value of each measure over the runs, against its bound.

    ``measure`` maps one run of ``subcommand`` (manifest, data) to
    {name: value}, or to None when the run does not apply.  Every bound
    is a ceiling except that of ``lambda_min``, which is a floor.  A
    criterion with a single measure reports it and its bound as bare
    numbers.
    """
    worst = {}
    for manifest, data in runs.get(subcommand, []):
        for name, val in (measure(manifest, data) or {}).items():
            pick = min if name == "lambda_min" else max
            worst[name] = pick(worst.get(name, val), val)
    ok = all(
        v >= bounds[k] if k == "lambda_min" else v <= bounds[k]
        for k, v in worst.items()
    )
    if len(bounds) == 1:
        (name, bound), = bounds.items()
        return _criterion(worst.get(name), bound, ok if worst else None)
    return _criterion(worst, bounds, ok if worst else None)


def _hawking_dev(manifest, data):
    mass = manifest["parameters"]["model"]["mass"]
    return {"dev": float(np.max(np.abs(data["hawking_mass"] - mass)))}


def _scalar_dev(manifest, data):
    return {"dev": float(np.max(np.abs(data["R"] + 6.0)))}


def _profile_ode_dev(manifest, data):
    if manifest["parameters"].get("mass_floor") != 0.0:
        return None
    mask = data["A_H"] > 0.0
    if not np.any(mask):
        return None
    a_h = data["A_H"][mask]
    return {"dev": float(np.max(np.abs(data["B"][mask] - a_h) / a_h))}


def _gauss_bonnet_dev(manifest, data):
    return {"dev": float(np.max(np.abs(data["area"] * data["K"] - 4.0 * math.pi)))}


def _flow_measures(manifest, data):
    t, area = data["t"], data["area"]
    pred = area[0] * np.exp(t - t[0])
    measures = {
        "area_law": float(np.max(np.abs(area - pred) / pred)),
        "mass_decrease": float(max(0.0, np.max(-np.diff(data["hawking"])))),
    }
    # The time bound takes central differences, which need three samples.
    if t.size >= 3:
        flow = Flow(t, data["s"], area, data["volume"], data["hawking"])
        measures["time_bound_excess"] = lipschitz_check(
            _metric_from_model_dict(manifest["parameters"]["model"]), flow
        )
    return measures


def _stability_measures(manifest, data):
    model = manifest["parameters"]["model"]
    tot = data["stability_total"]
    if model["mass"] == 0.0 and not model.get("coeffs"):
        return {
            "hyperbolic_total_dev": float(np.max(np.abs(tot - EIGHT_PI))),
            "hyperbolic_lambda1_dev": float(np.max(np.abs(data["lambda_1"]))),
        }
    return {
        "genus_bound_excess": float(np.max(tot - TWELVE_PI)),
        "lambda_min": float(np.min(np.minimum(data["lambda_1"], data["lambda_2"]))),
    }


def _summarize_comparison(runs) -> dict:
    worst = None
    ok = True
    for manifest, data in runs.get("profile", []) + runs.get("expansion", []):
        g = float(np.max(data["gap"]))
        worst = g if worst is None else max(worst, g)
        if manifest["parameters"]["model"]["mass"] > 0.0:
            ok = ok and bool(np.all(data["gap"] < 0.0))
        else:
            # Exact-equality case; leave room for quadrature noise.
            ok = ok and g <= 1e-5
    return _criterion(worst, 0.0, None if worst is None else ok)


def _summarize_gap_limit(runs) -> dict:
    # Pair the largest-volume profile row with the renormalized volume of
    # the same model file.
    vols = {m["model_digest"]: float(d["value"][0]) for m, d in runs.get("renorm-vol", [])}
    entries = []
    for manifest, data in runs.get("profile", []) + runs.get("expansion", []):
        v_ren = vols.get(manifest["model_digest"])
        if v_ren is not None:
            measured = abs(float(data["gap"][-1]) + 2.0 * v_ren)
            entries.append((float(data["v"][-1]), measured, max(0.02 * 2.0 * v_ren, 1e-5)))
    if not entries:
        return _criterion(None, None, None)
    _, measured, tol = max(entries, key=lambda e: e[0])
    return _criterion(measured, tol, measured <= tol)


_EXPANSION_CONSTANT = 16.0 * math.sqrt(2.0) * math.pi ** 2.5


def _summarize_expansion(runs) -> dict:
    entries = []
    for manifest, data in runs.get("expansion", []) + runs.get("profile", []):
        target = _EXPANSION_CONSTANT * manifest["parameters"]["model"]["mass"]
        measured = abs(float(data["scaled_gap"][-1]) - target)
        tol = max(0.05 * target, 1e-5)
        entries.append((measured, tol))
    if not entries:
        return _criterion(None, None, None)
    measured, tol = max(entries, key=lambda e: e[0] - e[1])
    return _criterion(measured, tol, measured <= tol)


def _summarize_renorm(runs) -> dict:
    by_mass = {}
    hyper_dev = None
    for manifest, data in runs.get("renorm-vol", []):
        model = manifest["parameters"]["model"]
        val = float(data["value"][0])
        if model["mass"] == 0.0 and not model.get("coeffs"):
            hyper_dev = abs(val) if hyper_dev is None else max(hyper_dev, abs(val))
        else:
            by_mass[model["mass"]] = val
    if hyper_dev is None and not by_mass:
        return _criterion(None, None, None)
    ok = True
    measured = {}
    if hyper_dev is not None:
        measured["hyperbolic_abs"] = hyper_dev
        ok = ok and hyper_dev <= 1e-9
    if by_mass:
        masses = sorted(by_mass)
        vals = [by_mass[m] for m in masses]
        measured["values_by_mass"] = {repr(m): by_mass[m] for m in masses}
        ok = ok and all(v > 0.0 for v in vals)
        ok = ok and all(b > a for a, b in zip(vals, vals[1:]))
    return _criterion(measured, {"hyperbolic_abs": 1e-9}, ok)


def emit_summary(results_dir: str) -> dict:
    """Aggregate the acceptance criteria over a directory of run outputs.

    Every file that :func:`_read_run` finds usable is a run and counts in
    ``n_runs``; any other file is skipped.  Each criterion that has data
    reports its measured value, tolerance, and pass/fail; criteria
    without matching runs are marked missing.
    """
    runs, n_runs = _runs_by_subcommand(results_dir)
    stability_bounds = {
        "hyperbolic_total_dev": 1e-8,
        "hyperbolic_lambda1_dev": 1e-9,
        "genus_bound_excess": 1e-6,
        "lambda_min": -1e-10,
    }
    criteria = {
        "hawking_identity": _bounded(runs, "spheres", {"dev": 1e-9}, _hawking_dev),
        "scalar_floor": _bounded(runs, "spheres", {"dev": 1e-9}, _scalar_dev),
        "profile_ode_match": _bounded(
            runs, "compare-ode", {"dev": 1e-6}, _profile_ode_dev
        ),
        "area_comparison": _summarize_comparison(runs),
        "gap_volume_limit": _summarize_gap_limit(runs),
        "expansion_coefficient": _summarize_expansion(runs),
        "flow_laws": _bounded(
            runs,
            "imcf",
            {"area_law": 1e-7, "mass_decrease": 1e-9, "time_bound_excess": 1e-6},
            _flow_measures,
        ),
        "stability_bounds": _bounded(
            runs, "stability", stability_bounds, _stability_measures
        ),
        "gauss_bonnet": _bounded(runs, "spheres", {"dev": 1e-12}, _gauss_bonnet_dev),
        "renorm_volume_sign": _summarize_renorm(runs),
    }
    verdicts = {name: c["status"] for name, c in criteria.items()}
    return {
        "criteria": criteria,
        "verdicts": verdicts,
        "n_runs": n_runs,
    }


def _cmd_summary(args, metric):
    return emit_summary(args.results_dir)


# ----------------------------------------------------------------------
# Argument wiring


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process.

    Building it costs more than twenty parses, and in-process batch callers
    run many subcommands.  Reuse is safe: parsing leaves the parser
    unchanged, and every ``parse_args`` fills a fresh ``Namespace`` with
    the defaults.  Each subparser declares exactly the flags its handler
    reads, so an unread flag is an error, and every flag but --out is a
    manifest parameter.
    """
    common = _Parser(add_help=False)
    common.add_argument("--out", help="output file (default: stdout)")

    parser = _Parser(prog="ahiso", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # Each subcommand's own parser, by name, for _parse's one hop.
    parser.subcommands = sub.choices

    def add(name, handler, help, model=True):
        p = sub.add_parser(name, parents=[common], help=help)
        if model:
            p.add_argument("--model", required=True, help="path to a model JSON file")
        p.set_defaults(handler=handler)
        return p

    p = add("spheres", _cmd_spheres, "sphere geometry table")
    p.add_argument("--s-min", type=float, default=None)
    p.add_argument("--s-max", type=float, default=None)
    p.add_argument("--n", type=int, default=200)

    p = add("imcf", _cmd_imcf, "inverse mean curvature flow")
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-2)

    p = add("compare-ode", _cmd_compare_ode, "area comparison ODE curve", model=False)
    p.add_argument("--b0", type=float, required=True)
    p.add_argument("--v0", type=float, default=1.0)
    p.add_argument("--v-end", type=float, required=True)
    p.add_argument("--mass-floor", type=float, default=0.0)
    p.add_argument("--n", type=int, default=200)

    p = add("profile", _cmd_profile, "isoperimetric gap table")
    p.add_argument("--v-min", type=float, default=1.0)
    p.add_argument("--v-max", type=float, default=1e6)
    p.add_argument("--n", type=int, default=60)

    p = add("expansion", _cmd_expansion, "scaled gap on a dyadic volume grid")
    p.add_argument("--v-max", type=float, default=1e6)
    p.add_argument("--n", type=int, default=8)

    p = add("renorm-vol", _cmd_renorm_vol, "renormalized volume")
    p.add_argument("--rho", type=float, default=20.0, help="truncation radius")

    p = add("stability", _cmd_stability, "Jacobi spectrum table")
    p.add_argument("--s-min", type=float, default=None)
    p.add_argument("--s-max", type=float, default=None)
    p.add_argument("--n", type=int, default=50)

    add("validate", _cmd_validate, "model validation report")

    p = add("summary", _cmd_summary, "aggregate checks over run outputs", model=False)
    p.add_argument("results_dir")

    return parser


# Namespace entries that are not manifest parameters.
_NOT_PARAMETERS = ("subcommand", "handler", "out")


def _parse(argv: list[str]) -> argparse.Namespace:
    """The flags of argv.  After a subcommand's name, that subcommand's own
    parser takes the rest, as the top-level one would; it takes all else."""
    parser = _build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    return sub.parse_args(argv[1:], argparse.Namespace(subcommand=argv[0]))


def run(argv: list[str]) -> int:
    """Parse argv, execute one subcommand, return the exit code.

    The metric of --model is loaded for a subcommand that declares it.
    The handler's output is written as CSV when every value is an array
    (a table), else as JSON, with the parsed flags (after the handler
    resolved its defaults) as the manifest's parameters.  Exit codes: 0
    on success, 1 on validation failure or a model that ``validate``
    finds not AH, 2 on numeric failure.
    """
    try:
        args = _parse(argv)
        metric, digest = None, "-"
        if "model" in args:
            metric, args.model, digest = _load_model(args.model)
        body = args.handler(args, metric)
        params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
        manifest = _manifest(args.subcommand, digest, params)
        table = all(isinstance(col, np.ndarray) for col in body.values())
        _emit((_csv_text if table else _json_text)(manifest, body), args.out)
        return 0 if body.get("is_ah", True) else 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
