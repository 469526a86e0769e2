"""Command-line surface: batch runs with manifest-stamped CSV/JSON output.

Every output embeds a run manifest (subcommand, model digest, resolved
parameters, timestamp, tool version).  The manifest line is the only part
of an output that varies between identical runs; the numeric body is
byte-identical because all kernels are deterministic.

CSV layout: one `# manifest: {...}` comment line, a header row, then one
row per sample with round-trippable float formatting.  Scalar results are
JSON objects carrying the manifest under a "manifest" key.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .imcf import FlowSample, comparison_ode, flow_spheres, lipschitz_check
from .models import (
    RadialMetric,
    make_ads_schwarzschild,
    make_hyperbolic,
    make_perturbed,
    rho_from_s,
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


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_text(manifest: dict, header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(x) for x in row) + "\n")
    return buf.getvalue()


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


def _require_model(args) -> tuple[RadialMetric, dict, str]:
    if not args.model:
        raise ValueError(f"subcommand {args.subcommand!r} needs --model")
    return _load_model(args.model)


def _quad_tol(args, default: float = 1e-10) -> float:
    return default if args.quad_tol is None else args.quad_tol


def _ode_tol(args, default: float = 1e-9) -> float:
    return default if args.ode_tol is None else args.ode_tol


# ----------------------------------------------------------------------
# Subcommands


def _s_grid(args, metric: RadialMetric) -> tuple[float, np.ndarray]:
    """Resolved --s-min and the geometric radius grid of --n points."""
    s_min = metric.core_radius + 0.1 if args.s_min is None else args.s_min
    if not (s_min > metric.core_radius):
        raise ValueError(
            f"--s-min must exceed the core radius {metric.core_radius!r}"
        )
    if not (args.s_max > s_min):
        raise ValueError("--s-max must exceed --s-min")
    if args.n < 1:
        raise ValueError("--n must be positive")
    return s_min, np.geomspace(s_min, args.s_max, args.n)


def _cmd_spheres(args) -> int:
    metric, model, digest = _require_model(args)
    s_min, grid = _s_grid(args, metric)
    qt = _quad_tol(args, 1e-13)
    rows = []
    for s in grid:
        s = float(s)
        g = sphere_data(metric, s)
        rows.append(
            (
                s,
                rho_from_s(metric, s, qt),
                g.area,
                g.mean_curvature,
                g.ricci_normal,
                g.gauss_curvature,
                g.scalar,
                g.hawking_mass,
                stability_total(metric, s),
            )
        )
    params = {
        "model": model,
        "s_min": s_min,
        "s_max": args.s_max,
        "n": args.n,
        "quad_tol": qt,
    }
    header = [
        "s",
        "rho",
        "area",
        "H",
        "Ric_nu",
        "K",
        "R",
        "hawking_mass",
        "stability_total",
    ]
    _emit(_csv_text(_manifest("spheres", digest, params), header, rows), args.out)
    return 0


def _cmd_imcf(args) -> int:
    metric, model, digest = _require_model(args)
    qt, ot = _quad_tol(args), _ode_tol(args)
    flow = flow_spheres(metric, args.s0, args.t_max, args.dt, ode_tol=ot, quad_tol=qt)
    rows = [(f.t, f.s, f.area, f.enclosed_volume, f.hawking) for f in flow]
    params = {
        "model": model,
        "s0": args.s0,
        "t_max": args.t_max,
        "dt": args.dt,
        "ode_tol": ot,
        "quad_tol": qt,
    }
    header = ["t", "s", "area", "volume", "hawking"]
    _emit(_csv_text(_manifest("imcf", digest, params), header, rows), args.out)
    return 0


def _cmd_compare_ode(args) -> int:
    ot = _ode_tol(args, 1e-11)
    curve = comparison_ode(
        args.b0, args.mass_floor, args.v0, args.v_end, rel_tol=ot, n_grid=args.n
    )
    rows = list(zip(curve.v_grid, curve.B_values, curve.hyperbolic_values))
    params = {
        "b0": args.b0,
        "mass_floor": args.mass_floor,
        "v0": args.v0,
        "v_end": args.v_end,
        "n": args.n,
        "ode_tol": ot,
    }
    manifest = _manifest("compare-ode", "-", params)
    _emit(_csv_text(manifest, ["v", "B", "A_H"], rows), args.out)
    return 0


def _profile_rows(metric, v_grid, qt, rho):
    table = gap_table(metric, v_grid, quad_tol=qt, truncation_rho=rho)
    return [(r.v, r.A_g, r.A_H, r.gap, r.scaled_gap) for r in table]


_PROFILE_HEADER = ["v", "A_g", "A_H", "gap", "scaled_gap"]


def _cmd_profile(args) -> int:
    metric, model, digest = _require_model(args)
    if not (0.0 < args.v_min < args.v_max):
        raise ValueError("need 0 < --v-min < --v-max")
    if args.n < 2:
        raise ValueError("--n must be at least 2")
    qt = _quad_tol(args)
    if args.log_grid:
        grid = np.geomspace(args.v_min, args.v_max, args.n)
    else:
        grid = np.linspace(args.v_min, args.v_max, args.n)
    rows = _profile_rows(metric, grid, qt, args.rho)
    params = {
        "model": model,
        "v_min": args.v_min,
        "v_max": args.v_max,
        "n": args.n,
        "log_grid": bool(args.log_grid),
        "rho": args.rho,
        "quad_tol": qt,
    }
    manifest = _manifest("profile", digest, params)
    _emit(_csv_text(manifest, _PROFILE_HEADER, rows), args.out)
    return 0


def _cmd_expansion(args) -> int:
    metric, model, digest = _require_model(args)
    if not (args.v_max > 0.0):
        raise ValueError("--v-max must be positive")
    if args.n < 1:
        raise ValueError("--n must be positive")
    qt = _quad_tol(args)
    # Dyadic-in-volume grid closing in on v_max from below.
    grid = args.v_max * 4.0 ** -np.arange(args.n - 1, -1, -1, dtype=float)
    rows = _profile_rows(metric, grid, qt, args.rho)
    params = {
        "model": model,
        "v_max": args.v_max,
        "n": args.n,
        "rho": args.rho,
        "quad_tol": qt,
    }
    manifest = _manifest("expansion", digest, params)
    _emit(_csv_text(manifest, _PROFILE_HEADER, rows), args.out)
    return 0


def _cmd_renorm_vol(args) -> int:
    metric, model, digest = _require_model(args)
    qt = _quad_tol(args, 1e-9)
    res = renormalized_volume(metric, args.rho, quad_tol=qt)
    params = {"model": model, "rho": args.rho, "quad_tol": qt}
    payload = {
        "value": res.value,
        "truncation_rho": res.truncation_rho,
        "tail_estimate": res.tail_estimate,
        "quad_error": res.quad_error,
    }
    _emit(_json_text(_manifest("renorm-vol", digest, params), payload), args.out)
    return 0


def _cmd_stability(args) -> int:
    metric, model, digest = _require_model(args)
    s_min, grid = _s_grid(args, metric)
    rows = []
    for s in grid:
        s = float(s)
        spec = dict(jacobi_spectrum(metric, s, l_max=2))
        rows.append((s, stability_total(metric, s), spec[0], spec[1], spec[2]))
    params = {"model": model, "s_min": s_min, "s_max": args.s_max, "n": args.n}
    header = ["s", "stability_total", "lambda_0", "lambda_1", "lambda_2"]
    _emit(_csv_text(_manifest("stability", digest, params), header, rows), args.out)
    return 0


def _cmd_validate(args) -> int:
    metric, model, digest = _require_model(args)
    report = validate_ah(metric)
    params = {"model": model}
    payload = {
        "is_ah": report.is_ah,
        "min_scalar_curvature_excess": report.min_scalar_curvature_excess,
        "decay_exponent_estimate": report.decay_exponent_estimate,
        "messages": list(report.messages),
    }
    _emit(_json_text(_manifest("validate", digest, params), payload), args.out)
    return 0 if report.is_ah else 1


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
        reader = csv.reader(lines[1:])
        try:
            header = next(reader)
            cols = {name: [] for name in header}
            for row in reader:
                if not row:
                    continue
                for name, val in zip(header, row):
                    cols[name].append(float(val))
        except (StopIteration, ValueError):
            return None
        data = {name: np.asarray(vals) for name, vals in cols.items()}
        return manifest, "csv", data
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
    flow = [
        FlowSample(
            t=float(t[i]),
            s=float(data["s"][i]),
            area=float(area[i]),
            enclosed_volume=float(data["volume"][i]),
            hawking=float(data["hawking"][i]),
        )
        for i in range(t.size)
    ]
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


def _cmd_summary(args) -> int:
    summary = emit_summary(args.results_dir)
    manifest = _manifest("summary", "-", {"results_dir": args.results_dir})
    _emit(_json_text(manifest, summary), args.out)
    return 0


# ----------------------------------------------------------------------
# Argument wiring


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--model", help="path to a model JSON file")
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--quad-tol", type=float, default=None)
    common.add_argument("--ode-tol", type=float, default=None)

    parser = _Parser(prog="ahiso", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spheres", parents=[common], help="sphere geometry table")
    p.add_argument("--s-min", type=float, default=None)
    p.add_argument("--s-max", type=float, default=1e3)
    p.add_argument("--n", type=int, default=200)
    p.set_defaults(handler=_cmd_spheres)

    p = sub.add_parser("imcf", parents=[common], help="inverse mean curvature flow")
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-2)
    p.set_defaults(handler=_cmd_imcf)

    p = sub.add_parser(
        "compare-ode", parents=[common], help="area comparison ODE curve"
    )
    p.add_argument("--b0", type=float, required=True)
    p.add_argument("--v0", type=float, default=1.0)
    p.add_argument("--v-end", type=float, required=True)
    p.add_argument("--mass-floor", type=float, default=0.0)
    p.add_argument("--n", type=int, default=200)
    p.set_defaults(handler=_cmd_compare_ode)

    p = sub.add_parser("profile", parents=[common], help="isoperimetric gap table")
    p.add_argument("--v-min", type=float, default=1.0)
    p.add_argument("--v-max", type=float, default=1e6)
    p.add_argument("--n", type=int, default=60)
    p.add_argument(
        "--log-grid", action=argparse.BooleanOptionalAction, default=True
    )
    p.add_argument("--rho", type=float, default=20.0, help="truncation radius")
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser(
        "expansion", parents=[common], help="scaled gap on a dyadic volume grid"
    )
    p.add_argument("--v-max", type=float, default=1e6)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--rho", type=float, default=20.0, help="truncation radius")
    p.set_defaults(handler=_cmd_expansion)

    p = sub.add_parser("renorm-vol", parents=[common], help="renormalized volume")
    p.add_argument("--rho", type=float, default=20.0, help="truncation radius")
    p.set_defaults(handler=_cmd_renorm_vol)

    p = sub.add_parser("stability", parents=[common], help="Jacobi spectrum table")
    p.add_argument("--s-min", type=float, default=None)
    p.add_argument("--s-max", type=float, default=1e3)
    p.add_argument("--n", type=int, default=50)
    p.set_defaults(handler=_cmd_stability)

    p = sub.add_parser("validate", parents=[common], help="model validation report")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser(
        "summary", parents=[common], help="aggregate checks over run outputs"
    )
    p.add_argument("results_dir")
    p.set_defaults(handler=_cmd_summary)

    return parser


def run(argv: list[str]) -> int:
    """Parse argv, execute one subcommand, return the exit code.

    0 on success, 1 on validation failure, 2 on numeric failure.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
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
