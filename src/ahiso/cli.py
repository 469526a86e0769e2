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
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .imcf import Flow, comparison_ode, flow_spheres, lipschitz_check
from .models import (
    RadialMetric,
    default_grid,
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
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file {out}: {exc}") from None
    else:
        sys.stdout.write(text)


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
    lo, hi = default_grid(metric, 2).tolist()
    if args.s_min is None:
        args.s_min = lo
    if args.s_max is None:
        args.s_max = hi
    if not (args.s_min > metric.core_radius):
        raise ValueError(
            f"--s-min must exceed the core radius {metric.core_radius!r}"
        )
    if not (args.s_max > args.s_min):
        raise ValueError("--s-max must exceed --s-min")
    if args.n < 1:
        raise ValueError("--n must be positive")
    return np.geomspace(args.s_min, args.s_max, args.n)


def _cmd_spheres(args, metric):
    grid = _s_grid(args, metric)
    gap, _ = gap_over_grid(metric, grid)
    g = sphere_data(metric, grid)
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
        "stability_total": stability_total(metric, grid),
    }


def _cmd_imcf(args, metric):
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
    if not (0.0 < args.v_min < args.v_max):
        raise ValueError("need 0 < --v-min < --v-max")
    if args.n < 2:
        raise ValueError("--n must be at least 2")
    space = np.geomspace if args.log_grid else np.linspace
    # The ProfileTable fields are the column headers.
    return vars(gap_table(metric, space(args.v_min, args.v_max, args.n)))


def _cmd_expansion(args, metric):
    if not (args.v_max > 0.0):
        raise ValueError("--v-max must be positive")
    if args.n < 1:
        raise ValueError("--n must be positive")
    # Dyadic-in-volume grid closing in on v_max from below.
    grid = args.v_max * 4.0 ** -np.arange(args.n - 1, -1, -1, dtype=float)
    return vars(gap_table(metric, grid))


def _cmd_renorm_vol(args, metric):
    return vars(renormalized_volume(metric, args.rho))


def _cmd_stability(args, metric):
    grid = _s_grid(args, metric)
    spec = dict(jacobi_spectrum(metric, grid, l_max=2))
    return {
        "s": grid,
        "stability_total": stability_total(metric, grid),
        "lambda_0": spec[0],
        "lambda_1": spec[1],
        "lambda_2": spec[2],
    }


def _cmd_validate(args, metric):
    return vars(validate_ah(metric))


# ----------------------------------------------------------------------
# Summary over a directory of run outputs


def _read_run(path: str):
    """Parse one output file into (manifest, kind, data) or None."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        return None
    if text.startswith("# manifest: "):
        lines = text.splitlines()
        try:
            manifest = json.loads(lines[0][len("# manifest: ") :])
        except json.JSONDecodeError:
            return None
        if len(lines) < 2:
            return None
        header = lines[1].split(",")
        # A ragged table (a truncated write) or a non-numeric cell raises.
        try:
            if len(lines) > 2:
                table = np.loadtxt(lines[2:], delimiter=",", ndmin=2)
            else:
                table = np.empty((0, len(header)))
        except ValueError:
            return None
        if table.shape[1] != len(header):
            return None
        return manifest, "csv", dict(zip(header, table.T))
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return None
    if isinstance(obj, dict) and "manifest" in obj:
        manifest = obj.pop("manifest")
        return manifest, "json", obj
    return None


def _runs_by_subcommand(results_dir: str) -> dict[str, list]:
    if not os.path.isdir(results_dir):
        raise ValueError(f"{results_dir} is not a directory")
    runs: dict[str, list] = {}
    for name in sorted(os.listdir(results_dir)):
        parsed = _read_run(os.path.join(results_dir, name))
        if parsed is None:
            continue
        manifest, kind, data = parsed
        sub = manifest.get("subcommand")
        if not sub:
            continue
        runs.setdefault(sub, []).append((manifest, data))
    if not runs:
        raise ValueError(f"missing runs: no recognizable result files in {results_dir}")
    return runs


def _model_of(manifest: dict) -> dict | None:
    return manifest.get("parameters", {}).get("model")


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
    model = _model_of(manifest)
    if model is None or "hawking_mass" not in data:
        return None
    return {"dev": float(np.max(np.abs(data["hawking_mass"] - model["mass"])))}


def _scalar_dev(manifest, data):
    if "R" not in data:
        return None
    return {"dev": float(np.max(np.abs(data["R"] + 6.0)))}


def _profile_ode_dev(manifest, data):
    if manifest.get("parameters", {}).get("mass_floor") != 0.0:
        return None
    mask = data["A_H"] > 0.0
    if not np.any(mask):
        return None
    a_h = data["A_H"][mask]
    return {"dev": float(np.max(np.abs(data["B"][mask] - a_h) / a_h))}


def _gauss_bonnet_dev(manifest, data):
    if "K" not in data or "area" not in data:
        return None
    return {"dev": float(np.max(np.abs(data["area"] * data["K"] - 4.0 * math.pi)))}


def _flow_measures(manifest, data):
    model = _model_of(manifest)
    if model is None or "area" not in data:
        return None
    t, area = data["t"], data["area"]
    pred = area[0] * np.exp(t - t[0])
    flow = Flow(
        t=t,
        s=data["s"],
        area=area,
        enclosed_volume=data["volume"],
        hawking=data["hawking"],
    )
    return {
        "area_law": float(np.max(np.abs(area - pred) / pred)),
        "mass_decrease": float(max(0.0, np.max(-np.diff(data["hawking"])))),
        "time_bound_excess": lipschitz_check(_metric_from_model_dict(model), flow),
    }


def _stability_measures(manifest, data):
    model = _model_of(manifest)
    if model is None or "stability_total" not in data:
        return None
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
        model = _model_of(manifest)
        if model is None or "gap" not in data:
            continue
        g = float(np.max(data["gap"]))
        worst = g if worst is None else max(worst, g)
        if model["mass"] > 0.0:
            ok = ok and bool(np.all(data["gap"] < 0.0))
        else:
            # Exact-equality case; leave room for quadrature noise.
            ok = ok and g <= 1e-5
    return _criterion(worst, 0.0, None if worst is None else ok)


def _summarize_gap_limit(runs) -> dict:
    # Pair the largest-volume profile row with the renormalized volume of
    # the same model file.
    vols = {}
    for manifest, data in runs.get("renorm-vol", []):
        vols[manifest.get("model_digest")] = float(data["value"])
    best = None
    for manifest, data in runs.get("profile", []) + runs.get("expansion", []):
        v_ren = vols.get(manifest.get("model_digest"))
        if v_ren is None or "gap" not in data or data["v"].size == 0:
            continue
        gap_end = float(data["gap"][-1])
        measured = abs(gap_end + 2.0 * v_ren)
        tol = max(0.02 * 2.0 * v_ren, 1e-5)
        cand = (measured, tol, measured <= tol)
        if best is None or data["v"][-1] > best[3]:
            best = (*cand, float(data["v"][-1]))
    if best is None:
        return _criterion(None, None, None)
    return _criterion(best[0], best[1], best[2])


_EXPANSION_CONSTANT = 16.0 * math.sqrt(2.0) * math.pi ** 2.5


def _summarize_expansion(runs) -> dict:
    entries = []
    for manifest, data in runs.get("expansion", []) + runs.get("profile", []):
        model = _model_of(manifest)
        if model is None or "scaled_gap" not in data or data["v"].size == 0:
            continue
        target = _EXPANSION_CONSTANT * model["mass"]
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
        model = _model_of(manifest)
        if model is None or "value" not in data:
            continue
        val = float(data["value"])
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
    """Aggregate acceptance checks over a directory of run outputs.

    Each criterion that has data reports its measured value, tolerance,
    and pass/fail; criteria without matching runs are marked missing.
    """
    runs = _runs_by_subcommand(results_dir)
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
        "n_runs": sum(len(v) for v in runs.values()),
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
    p.add_argument(
        "--log-grid", action=argparse.BooleanOptionalAction, default=True
    )

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


def run(argv: list[str]) -> int:
    """Parse argv, execute one subcommand, return the exit code.

    The metric of --model is loaded for a subcommand that declares it.
    The handler's output is written as CSV when every value is an array
    (a table), else as JSON, with the parsed flags (after the handler
    resolved its defaults) as the manifest's parameters.  Exit codes: 0
    on success, 1 on validation failure or a model that ``validate``
    finds not AH, 2 on numeric failure.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
