"""Closed-form oracles for every output the benchmark's jobs write.

Each check reads one output file's parsed body and returns a list of
problems, empty when the output is right.  Tolerances are the package's
own acceptance tolerances and never tighter.  The pinned targets of the
two acceptance criteria that fail by design (area comparison, scaled gap
coefficient) are not used.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi
TWELVE_PI = 12.0 * math.pi


def hyperbolic_volume(rho):
    """Volume of the hyperbolic ball of radius rho: pi (sinh 2 rho - 2 rho)."""
    return math.pi * (np.sinh(2.0 * rho) - 2.0 * rho)


def hyperbolic_area(v: float) -> float:
    """Area of the hyperbolic sphere enclosing volume v, by bisection."""
    lo, hi = 0.0, 1.0
    while hyperbolic_volume(hi) < v:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if hyperbolic_volume(mid) < v:
            lo = mid
        else:
            hi = mid
    return FOUR_PI * math.sinh(0.5 * (lo + hi)) ** 2


def parse_output(text: str) -> tuple[str, dict]:
    """Split an output into (body, data).

    The body is everything but the run manifest, the only part allowed to
    differ between repeats: the CSV text after the manifest line, or the
    JSON payload re-serialized without its "manifest" key.  Data is a
    dict of float columns for CSV and the payload dict for JSON.
    """
    if text.startswith("# manifest: "):
        body = text.partition("\n")[2]
        rows = list(csv.reader(body.splitlines()))
        header, values = rows[0], np.array(rows[1:], dtype=float)
        return body, {name: values[:, i] for i, name in enumerate(header)}
    payload = json.loads(text)
    payload.pop("manifest")
    return json.dumps(payload, sort_keys=True), payload


def _recovers_volume(v, area, what: str) -> list[str]:
    # hyperbolic_volume(asinh(sqrt(A_H / 4 pi))) must give v back.
    rho = np.arcsinh(np.sqrt(area / FOUR_PI))
    rel = float(np.max(np.abs(hyperbolic_volume(rho) - v) / v))
    return [] if rel <= 1e-9 else [f"{what} misses v by relative {rel:.3e}"]


def _imcf(cfg, params, d) -> list[str]:
    problems = []
    t, area = d["t"], d["area"]
    area_dev = float(np.max(np.abs(area - area[0] * np.exp(t)) / area))
    if t[0] != 0.0 or abs(t[-1] - params["t_max"]) > 1e-9 * max(1.0, params["t_max"]):
        problems.append(f"time grid [{t[0]!r}, {t[-1]!r}] != [0, t_max]")
    if area_dev > 1e-7:
        problems.append(f"area law |A - A0 e^t|/A = {area_dev:.3e}")
    # Geroch monotonicity: the Hawking mass never drops along the flow.
    if float(np.min(np.diff(d["hawking"]))) < -1e-9:
        problems.append("Hawking mass dropped by more than 1e-9")
    if not np.all(np.diff(d["volume"]) > 0.0):
        problems.append("enclosed volume not increasing")
    return problems


def _compare_ode(cfg, params, d) -> list[str]:
    problems = _recovers_volume(d["v"], d["A_H"], "A_H")
    rel = float(np.max(np.abs(d["B"] - d["A_H"]) / d["A_H"]))
    if rel > 1e-6:
        problems.append(f"|B - A_H|/A_H = {rel:.3e}")
    if d["v"][-1] != params["v_end"]:
        problems.append("grid does not end at v_end")
    return problems


def _profile(cfg, params, d) -> list[str]:
    problems = _recovers_volume(d["v"], d["A_H"], "A_H")
    if d["v"].size != params["n"]:
        problems.append(f"{d['v'].size} rows, expected {params['n']}")
    if not np.all(np.diff(d["A_g"]) >= 0.0):
        problems.append("A_g decreases")
    if cfg["type"] == "hyperbolic":
        rel = float(np.max(np.abs(d["gap"]) / d["A_H"]))
        if rel > 1e-9:
            problems.append(f"hyperbolic |gap|/A_H = {rel:.3e}")
    return problems


def _renorm_vol(cfg, params, d) -> list[str]:
    value = d["value"]
    if cfg["type"] == "hyperbolic":
        return [] if abs(value) <= 1e-9 else [f"hyperbolic V = {value!r}"]
    return [] if value > 0.0 else [f"V = {value!r} <= 0 for mass > 0"]


def _spheres(cfg, params, d) -> list[str]:
    problems = []
    s, mass = d["s"], cfg.get("mass", 0.0)
    if s.size != params["n"]:
        problems.append(f"{s.size} rows, expected {params['n']}")
    gb = float(np.max(np.abs(d["area"] * d["K"] - FOUR_PI)))
    if gb > 1e-12:
        problems.append(f"|area K - 4 pi| = {gb:.3e}")
    if not np.all(np.diff(d["rho"]) > 0.0):
        problems.append("rho not increasing")
    if cfg["type"] == "hyperbolic":
        dev = float(np.max(np.abs(d["rho"] - np.arcsinh(s))))
        if dev > 1e-12:
            problems.append(f"hyperbolic |rho - asinh s| = {dev:.3e}")
    if cfg["type"] != "perturbed":
        dm = float(np.max(np.abs(d["hawking_mass"] - mass)))
        dr = float(np.max(np.abs(d["R"] + 6.0)))
        if dm > 1e-9:
            problems.append(f"|m_H - m| = {dm:.3e}")
        if dr > 1e-9:
            problems.append(f"|R + 6| = {dr:.3e}")
    return problems


def _stability(cfg, params, d) -> list[str]:
    problems = []
    if d["s"].size != params["n"]:
        problems.append(f"{d['s'].size} rows, expected {params['n']}")
    total = d["stability_total"]
    if cfg["type"] == "hyperbolic":
        if float(np.max(np.abs(total - EIGHT_PI))) > 1e-8:
            problems.append("hyperbolic stability total != 8 pi")
        if float(np.max(np.abs(d["lambda_1"]))) > 1e-9:
            problems.append("hyperbolic lambda_1 != 0")
    elif cfg["type"] == "ads_schwarzschild":
        if float(np.max(total)) > TWELVE_PI + 1e-6:
            problems.append("stability total exceeds 12 pi")
        if float(np.min(np.minimum(d["lambda_1"], d["lambda_2"]))) < -1e-10:
            problems.append("negative lambda_1 or lambda_2")
    return problems


def _validate(cfg, params, d) -> list[str]:
    return [] if d["is_ah"] is True else ["model reported as not AH"]


def _summary(cfg, params, d) -> list[str]:
    problems = []
    if d["n_runs"] != params["n_runs"]:
        problems.append(f"summary saw {d['n_runs']} runs, expected {params['n_runs']}")
    if d["verdicts"].get("gauss_bonnet") != "pass":
        problems.append("summary gauss_bonnet verdict is not pass")
    return problems


CHECKS = {
    "imcf": _imcf,
    "compare-ode": _compare_ode,
    "profile": _profile,
    "expansion": _profile,
    "renorm-vol": _renorm_vol,
    "spheres": _spheres,
    "stability": _stability,
    "validate": _validate,
    "summary": _summary,
}


def check(subcommand: str, cfg: dict, params: dict, data: dict) -> list[str]:
    """Problems found in one job's parsed output (empty when correct).

    ``cfg`` is the model file content ({} for model-free jobs) and
    ``params`` the job's numeric parameters by name.
    """
    return CHECKS[subcommand](cfg, params, data)
