"""Checks against an independent high-precision oracle (mpmath)."""

import functools
import json
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahiso.cli import run
from ahiso.imcf import comparison_ode
from ahiso.models import (
    RadialMetric,
    _chart,
    _core_radius,
    _gap_element,
    _gap_moment,
    _geodesic_element,
    gap_over_grid,
    make_ads_schwarzschild,
    make_hyperbolic,
    make_perturbed,
    s_from_rho,
    scalar_curvature_excess,
    validate_ah,
)
from ahiso.profiles import (
    _ball_volume,
    _renormalized_limit,
    _volume_element,
    hyperbolic_profile,
    model_radius_for_volume,
    model_volume_quad,
    renormalized_volume,
)
from ahiso.spheres import jacobi_spectrum, sphere_data, stability_total


def _hyperbolic_profile_oracle(v):
    """4 pi sinh^2 rho with pi (sinh 2 rho - 2 rho) = v, at 60 digits.

    sinh 2 rho - 2 rho cancels about 2 log10(1 / rho) digits, so 60 leave
    more than 35 down to v = 1e-30.  Newton's method on the convex volume
    converges monotonically from any start above the root: (3v / 4 pi)^{1/3}
    below v = 1 (a hyperbolic ball outweighs the Euclidean one of the same
    radius) and log(2v / pi) / 2 + 1 above.
    """
    with mpmath.workdps(60):
        v = mpmath.mpf(v)
        if v < 1:
            rho = mpmath.cbrt(3 * v / (4 * mpmath.pi))
        else:
            rho = mpmath.log(2 * v / mpmath.pi) / 2 + 1
        for _ in range(200):
            excess = mpmath.pi * (mpmath.sinh(2 * rho) - 2 * rho) - v
            step = excess / (4 * mpmath.pi * mpmath.sinh(rho) ** 2)
            rho -= step
            if abs(step) <= mpmath.mpf(10) ** -35 * rho:
                return 4 * mpmath.pi * mpmath.sinh(rho) ** 2
        raise AssertionError(f"oracle did not converge at v = {v}")


def _relative_error(v):
    want = _hyperbolic_profile_oracle(v)
    return float(abs(hyperbolic_profile(v) - want) / want)


def _assert_matches_oracle(volumes):
    want = [_hyperbolic_profile_oracle(v) for v in volumes.tolist()]
    # Each volume on its own, then all of them inverted in one array call.
    for call, got in (
        ("scalar", [hyperbolic_profile(v) for v in volumes.tolist()]),
        ("array", hyperbolic_profile(volumes).tolist()),
    ):
        errors = [float(abs(g - w) / w) for g, w in zip(got, want)]
        worst = int(np.argmax(errors))
        assert errors[worst] <= 1e-14, (
            f"{call} call: relative error {errors[worst]:.3g} at v={volumes[worst]!r}"
        )


def test_hyperbolic_profile_matches_oracle_over_volume_range():
    _assert_matches_oracle(np.geomspace(0.1, 1e7, 200))


def test_hyperbolic_profile_matches_oracle_at_small_volume():
    # The closed-form volume cancels O(1) terms here, and an absolute
    # 1e-12 tolerance on rho is no longer relative: A_H(1e-20) came out
    # 100x too large.
    _assert_matches_oracle(np.geomspace(1e-30, 0.1, 200))


def test_ball_volume_matches_oracle_below_rho_four_tenths():
    # The closed form 4 pi (sinh^2 / 2 + 1/4 - rho / 2 - e^{-2 rho} / 4)
    # cancels O(1) terms here: 1.2e-13 relative error at rho = 0.101 and
    # 4.3e-15 at 0.31.
    rhos = np.linspace(0.1, 0.4, 3001).tolist()
    with mpmath.workdps(50):
        want = [mpmath.pi * (mpmath.sinh(2 * mpmath.mpf(r)) - 2 * mpmath.mpf(r)) for r in rhos]
        errors = [float(abs(_ball_volume(math.sinh(r)) - w) / w) for r, w in zip(rhos, want)]
    worst = int(np.argmax(errors))
    assert errors[worst] <= 2e-15, f"relative error {errors[worst]:.3g} at rho={rhos[worst]!r}"


def test_hyperbolic_profile_matches_oracle_at_pinned_volume():
    # Bisection plus a secant polish between tol-wide bracket ends gave a
    # 3.7e-12 relative error here.
    assert _relative_error(389.36723631191836) <= 1e-14


# ----------------------------------------------------------------------
# Coordinate gap and renormalized volume.  The oracle evaluates the model
# as the package defines it: f from its formula, and near the stored core
# radius c the quotient f(c + delta) / delta as (P(b) - P(c)) / (delta b^n),
# b = c + delta, with P = s^n f(s) and the difference expanded term by
# term, i.e. with P(c) = 0.  The stored c is a float, so P(c) is only zero
# to rounding; the expansion keeps the oracle on the same model instead of
# one whose root sits 1e-16 away, which would move G by ~1e-14 within 1e-6
# of the core.  Far above the core it is f(b) / delta, where the divided
# difference (f(b) - f(c)) / delta would subtract f(c) / delta: 3.2e30 / delta
# on the balanced core below.

ORACLE_MODELS = {
    "hyperbolic": make_hyperbolic(),
    "ads_m0.5": make_ads_schwarzschild(0.5),
    "ads_m1": make_ads_schwarzschild(1.0),
    "ads_m3": make_ads_schwarzschild(3.0),
    "pert_m1": make_perturbed(1.0, (0.1, 0.05)),
    # rho < 0 near its core, where no hyperbolic ball matches; the volume
    # deficit starts at the core all the same.
    "pert_m0.5": make_perturbed(0.5, (0.2,)),
}

# Two tail terms balance at this core (5.55e-13), where the quotient's old
# divided-difference terms, ~1e47 each, cancelled to the true 6e10.
BALANCED_CORE = make_perturbed(0.0, (0.0, 6e10, -0.0333))


class _Oracle:
    """High-precision G, V and f' for one model (mpmath, at the caller's digits)."""

    def __init__(self, metric):
        self.m = mpmath.mpf(metric.mass)
        self.coeffs = [mpmath.mpf(c) for c in metric.coeffs]
        self.c = mpmath.mpf(metric.core_radius)

    def deficit(self, u):
        out = -2 * self.m / u
        for k, ck in enumerate(self.coeffs, start=2):
            out += ck / u**k
        return out

    def f_prime(self, u):
        out = 2 * u + 2 * self.m / u**2
        for k, ck in enumerate(self.coeffs, start=2):
            out -= k * ck / u ** (k + 1)
        return out

    def gap_integrand(self, u):
        # f^{-1/2} - q^{-1/2} = -d / (sqrt f sqrt q (sqrt f + sqrt q)).
        q = 1 + u * u
        f = q + self.deficit(u)
        return -self.deficit(u) / (mpmath.sqrt(f * q) * (mpmath.sqrt(f) + mpmath.sqrt(q)))

    def core_quotient(self, delta):
        c, b = self.c, self.c + delta
        coef = [1, 0, 1, -2 * self.m, *self.coeffs]
        while coef[-1] == 0:
            coef.pop()
        # (b^e - c^e) / delta for the term of P of degree e.
        out = sum(a * sum(b**j * c ** (e - 1 - j) for j in range(e)) for e, a in enumerate(reversed(coef)))
        return out / b ** (len(coef) - 3)

    def gap(self, s):
        """G(s); in w with u = c + w^2 below c + 1 when c > 0."""
        s = mpmath.mpf(s)
        c = self.c
        if c == 0 or s >= c + 1:
            # In x = 1/u the range is finite and the integrand smooth.
            return mpmath.quad(lambda x: self.gap_integrand(1 / x) / (x * x), [0, 1 / s])

        def head(w):
            b = c + w * w
            return 2 / mpmath.sqrt(self.core_quotient(w * w)) - 2 * w / mpmath.sqrt(1 + b * b)

        return mpmath.quad(head, [mpmath.sqrt(s - c), 1]) + self.gap(c + 1)

    def renormalized_volume(self, rho, s_guess):
        """vol_g(s_T) - vol_H(rho) with asinh(s_T) - G(s_T) = rho."""
        rho = mpmath.mpf(rho)
        # Two Newton steps on asinh(s) - G(s) = rho (slope f^{-1/2}) square
        # a guess good to 1e-12 twice.
        s_t = mpmath.mpf(s_guess)
        for _ in range(2):
            f = 1 + s_t * s_t + self.deficit(s_t)
            s_t -= (mpmath.asinh(s_t) - self.gap(s_t) - rho) * mpmath.sqrt(f)
        return self.volume(s_t) - mpmath.pi * (mpmath.sinh(2 * rho) - 2 * rho)

    def volume_element_in_w(self, w):
        """4 pi u^2 f^{-1/2} du/dw with u = c + w^2."""
        b = self.c + w * w
        return 8 * mpmath.pi * b * b / mpmath.sqrt(self.core_quotient(w * w))

    def volume(self, s):
        """vol_g(s): in w below c + 1 when c > 0, then closed form plus gap part."""
        s = mpmath.mpf(s)
        c = self.c
        if c > 0 and s <= c + 1:
            return mpmath.quad(self.volume_element_in_w, [0, mpmath.sqrt(s - c)])
        if c > 0:
            start = c + 1
            vol = mpmath.quad(self.volume_element_in_w, [0, 1])
        else:
            start, vol = mpmath.mpf(0), mpmath.mpf(0)
        # 4 pi u^2 f^{-1/2}: the hyperbolic part in closed form, the rest
        # by quadrature on log-spaced pieces.
        hyp = lambda u: 2 * mpmath.pi * (u * mpmath.sqrt(1 + u * u) - mpmath.asinh(u))  # noqa: E731
        vol += hyp(s) - hyp(start)
        pieces = [start] + [mpmath.mpf(10) ** k for k in range(1, 9) if 10**k > start + 1 and 10**k < s]
        vol += mpmath.quad(lambda u: 4 * mpmath.pi * u * u * self.gap_integrand(u), pieces + [s])
        return vol

    def limit(self):
        """K = W(core) - V_H(core) as vol_g(S) - V_H(S) + W(S), S = core + 1.

        W(S) = 4 pi integral_S^inf u^2 (f^{-1/2} - q^{-1/2}) du, in x = 1/u,
        where its integrand tends to 4 pi m.
        """
        s = self.c + 1
        hyp = 2 * mpmath.pi * (s * mpmath.sqrt(1 + s * s) - mpmath.asinh(s))
        w_s = mpmath.quad(lambda x: 4 * mpmath.pi * self.gap_integrand(1 / x) / x**4, [0, 1 / s])
        return self.volume(s) - hyp + w_s


# ----------------------------------------------------------------------
# Sphere columns.  The oracle forms R = (2/s^2) (1 - f - s f'),
# Ric(nu) = -f'/s and the stability density -f'/s + 2f/s^2 from f' at 50
# digits, where their cancellation of the mass term costs nothing.  Each
# column's error is measured in eps times a scale: |R + 6| for the excess
# (plus an absolute 1e-40 for the oracle's own rounding, since the excess
# of an AdS model is 0), 6 for R, and the sum of the absolute terms of
# the oracle's formula for the others, since lambda_1 and the density
# pass through zero (at s = 3m on AdS).  The measured worst is 1.09, on
# stability_total of pert_m0.5; the formulas through f' reached 11 for R
# and 32 for Ric(nu) on hyperbolic space.
_SPHERE_COLUMN_CEILING = 2.0


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_sphere_columns_within_two_eps_of_oracle(name):
    metric = ORACLE_MODELS[name]
    core = metric.core_radius
    grid = np.geomspace(core + 0.1 * max(1.0, core), 1e3, 200)
    geom = sphere_data(metric, grid)
    total = stability_total(metric, grid)
    spec = dict(jacobi_spectrum(metric, grid, l_max=2))
    oracle = _Oracle(metric)
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for i, s in enumerate(grid.tolist()):
            u = mpmath.mpf(s)
            f, fp = 1 + u * u + oracle.deficit(u), oracle.f_prime(u)
            r = 2 / u**2 * (1 - f - u * fp)
            q, q_scale = -fp / u + 2 * f / u**2, abs(fp / u) + 2 * f / u**2
            # (column, value, oracle, scale)
            rows = [
                ("R + 6", scalar_curvature_excess(metric, s), r + 6, abs(r + 6)),
                ("R", geom.scalar[i], r, 6),
                ("Ric_nu", geom.ricci_normal[i], -fp / u, abs(fp / u)),
                ("stability_total", total[i], 4 * mpmath.pi * u * u * q, 4 * mpmath.pi * u * u * q_scale),
            ]
            rows += [
                (f"lambda_{l}", spec[l][i], l * (l + 1) / u**2 - q, l * (l + 1) / u**2 + q_scale)
                for l in range(3)
            ]
            for column, got, want, scale in rows:
                err = abs(mpmath.mpf(float(got)) - want) - mpmath.mpf(10) ** -40
                ratio = float(err / (eps * scale)) if err > 0 else 0.0
                assert ratio <= _SPHERE_COLUMN_CEILING, (column, s, ratio)


_ELEMENTS = {
    "gap": lambda chart: _gap_element(chart, 0),
    "gap_k2": lambda chart: _gap_element(chart, 2),
    "geodesic": _geodesic_element,
    "volume": _volume_element,
}


@pytest.mark.parametrize("element", sorted(_ELEMENTS))
@pytest.mark.parametrize("name", sorted(n for n, m in ORACLE_MODELS.items() if m.core_radius > 0.0))
def test_w_chart_element_is_the_s_chart_element_times_2w(name, element):
    # Each radial element is written once in s; the w chart (s = core +
    # w^2) only changes ds / (sqrt(f) dt).  Closer to the core f(s)
    # cancels in the s chart, so the two are compared from w = 0.5 up.
    metric = ORACLE_MODELS[name]
    in_w, in_s = (_ELEMENTS[element](_chart(metric, head=h)) for h in (True, False))
    w = np.linspace(0.5, 1.0, 41)
    want = in_s(_chart(metric).to_s(w)) * 2.0 * w
    assert np.all(np.abs(in_w(w) - want) <= 1e-14 * np.abs(want))
    # Finite at the core, where the s chart's f^{-1/2} has its spike.
    assert np.isfinite(in_w(np.array([0.0]))).all()


@pytest.mark.parametrize("rho", [12.0, 20.0, 30.0])
@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_renormalized_volume_within_quad_error_of_oracle(name, rho):
    # At rho = 12 the shell term sinh(G_T) of the truncation is ~5e-5 m.
    metric = ORACLE_MODELS[name]
    res = renormalized_volume(metric, rho)
    with mpmath.workdps(60):
        want = _Oracle(metric).renormalized_volume(rho, s_from_rho(metric, rho))
        err = float(abs(res.value - want))
    # 60 digits on vol_g <= ~2e26 (rho = 30) leave the oracle itself good
    # to ~1e-33.
    assert err <= res.quad_error + 1e-30
    assert err <= 1e-14 * max(1.0, abs(float(want)))


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_renormalized_limit_matches_oracle(name):
    # The scaled_gap column adds 2K, the rho_T -> inf limit of V(rho_T).
    metric = ORACLE_MODELS[name]
    got = _renormalized_limit(metric).value
    with mpmath.workdps(60):
        want = _Oracle(metric).limit()
        err = float(abs(got - want))
    assert err <= 1e-14 * max(1.0, abs(float(want)))


@functools.lru_cache(maxsize=None)
def _scale_free_limits():
    """G(core) and K / core^2 of ads m -> inf, at 40 digits.

    With s = core y and f ~ core^2 (y^2 - 1/y) once the 1 in f is
    negligible, G(core) -> integral_1^inf b(y) dy and
    K / core^2 -> 4 pi integral_1^inf y^2 b(y) dy - 2 pi, with
    b(y) = (y^2 - 1/y)^{-1/2} - 1/y.  The neglected terms are O(core^-2).
    """
    with mpmath.workdps(40):
        def b(y):
            return 1 / mpmath.sqrt(y * y - 1 / y) - 1 / y

        gap = mpmath.quad(b, [1, 2, mpmath.inf])
        w = mpmath.quad(lambda y: y * y * b(y), [1, 2, mpmath.inf])
        return float(gap), float(4 * mpmath.pi * w - 2 * mpmath.pi)


@pytest.mark.parametrize("mass", [1e30, 1e100, 1e300])
def test_huge_core_gap_and_limit_match_scale_free_oracle(mass):
    # The split of _gap_moment scales with the core: with core + 1 it was
    # core itself from m = 1e300 on (a division by zero), and from m = 1e30
    # the head exhausted the quadrature budget.
    metric = make_ads_schwarzschild(mass)
    core = metric.core_radius
    gap, limit = _scale_free_limits()
    assert gap == pytest.approx(0.46209812037329687, rel=1e-16)
    assert limit == pytest.approx(4.4050850010855152, rel=1e-16)
    assert abs(_gap_moment(metric, core, 0).value - gap) <= 1e-14 * gap
    assert abs(_renormalized_limit(metric).value / core**2 - limit) <= 1e-14 * limit


def test_renormalized_volume_negative_without_mass():
    # f = 1 + s^2 + 0.05 / s^2 passes validate_ah (R + 6 = 0.1 / s^4), but
    # f blows up at s = 0: the origin is singular, rho grows like s^2 there,
    # and the volume falls behind the hyperbolic one.  V >= 0 is claimed
    # only for mass > 0.
    metric = make_perturbed(0.0, (0.05,))
    assert validate_ah(metric).is_ah
    res = renormalized_volume(metric)
    with mpmath.workdps(60):
        want = _Oracle(metric).renormalized_volume(20.0, s_from_rho(metric, 20.0))
        err = float(abs(res.value - want))
    assert float(want) == pytest.approx(-0.24370448253268756, rel=1e-15)
    assert err <= res.quad_error + 1e-30
    assert err <= 1e-15


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_volume_deficit_matches_model_volume(name):
    # vol(s) = v_H(asinh s) - v_H(asinh core) + 4 pi (W(core) - W(s)), with
    # W the second moment of the gap integrand, against the volume
    # integrated directly from the core.
    metric = ORACLE_MODELS[name]
    core = metric.core_radius
    w_core = _gap_moment(metric, core, 2)
    for s in (core + 1e-3, core + 0.5, core + 1.0, 3.0, 1e2, 1e5):
        vol = model_volume_quad(metric, s)
        w_s = _gap_moment(metric, s, 2)
        got = math.fsum([
            _ball_volume(s),
            -_ball_volume(core),
            4.0 * math.pi * w_core.value,
            -4.0 * math.pi * w_s.value,
        ])
        bound = (
            vol.error_bound
            + 4.0 * math.pi * (w_core.error_bound + w_s.error_bound)
            + 8.0 * np.spacing(vol.value)
        )
        assert abs(got - vol.value) <= bound, (s, got - vol.value, bound)


_FAR_GRID = ["--s-max", "1e80", "--n", "5"]


# The balanced core runs on the five-point grid only: its oracle G costs
# ~0.25 s a point.
_RHO_MODELS = {**ORACLE_MODELS, "balanced_core": BALANCED_CORE}


@pytest.mark.parametrize(
    "name, grid",
    [(name, []) for name in sorted(ORACLE_MODELS)] + [(name, _FAR_GRID) for name in sorted(_RHO_MODELS)],
    ids=sorted(ORACLE_MODELS) + [f"{name}-far" for name in sorted(_RHO_MODELS)],
)
def test_rho_column_within_sweep_bound_of_oracle(name, grid, tmp_path):
    # The spheres table's rho column on a grid that starts 1e-6 above the
    # core, where G has its square-root behaviour, and on one whose points
    # lie decades apart out to 1e80.
    metric = _RHO_MODELS[name]
    # Every such model is a perturbed one with its own mass and coefficients.
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"type": "perturbed", "mass": metric.mass, "coeffs": list(metric.coeffs)}))
    out = tmp_path / "spheres.csv"
    s_min = metric.core_radius + 1e-6
    argv = ["spheres", "--model", str(path), "--s-min", repr(s_min), "--n", "24", "--out", str(out)]
    assert run(argv + grid) == 0
    data = np.genfromtxt(out, delimiter=",", names=True, skip_header=1)
    _, bound = gap_over_grid(metric, data["s"])
    oracle = _Oracle(metric)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.asinh(s) - oracle.gap(s)) for s in data["s"].tolist()])
    # The sweep bounds G; asinh and the subtraction add up to one ulp each.
    err = np.abs(data["rho"] - want)
    assert np.all(err <= bound + 2.0 * np.spacing(np.abs(want))), np.max(err - bound)


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_core_quotient_stays_below_the_split(name, tmp_path, monkeypatch):
    # G's head chart reaches only core + max(1, core); above it the sweep,
    # the G integrals and s_from_rho's Newton steps run in u = 1/s or in s.
    # Far above a core the quotient's powers overflowed (delta ~ 1e80).
    metric = ORACLE_MODELS[name]
    largest = [0.0]
    quotient = RadialMetric.core_quotient

    def recording(self, delta):
        largest[0] = max(largest[0], float(np.max(delta)))
        return quotient(self, delta)

    monkeypatch.setattr(RadialMetric, "core_quotient", recording)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"type": "perturbed", "mass": metric.mass, "coeffs": list(metric.coeffs)}))
    for argv in (["spheres"], ["spheres", *_FAR_GRID], ["renorm-vol"], ["renorm-vol", "--rho", "300"]):
        assert run(argv + ["--model", str(path), "--out", str(tmp_path / "out")]) == 0
    assert largest[0] <= max(1.0, metric.core_radius)


# ----------------------------------------------------------------------
# Model volume and its inverse.

ORACLE_VOLUMES = np.geomspace(1e-6, 1e7, 14)
# Inverted one at a time, a ladder built from each batch's own guesses put
# a far volume's first panel across the core: 4.9e-11 relative at 1e11.
FAR_VOLUMES = np.geomspace(1e8, 1e12, 5)


@functools.lru_cache(maxsize=None)
def _volume_oracle(name, far=False):
    """s_v from the package, vol_g(s_v) at 40 digits, and the exact s_v,
    on ORACLE_VOLUMES (FAR_VOLUMES if ``far``), each inverted alone.

    The exact s_v is one Newton step from the package's, in w = sqrt(s - c)
    when c > 0 (where the volume element stays finite) and in s otherwise;
    from a start good to ~1e-15 the step leaves an error of ~1e-30.
    """
    metric = ORACLE_MODELS[name]
    oracle = _Oracle(metric)
    volumes = (FAR_VOLUMES if far else ORACLE_VOLUMES).tolist()
    radii = [model_radius_for_volume(metric, v) for v in volumes]
    vols, exact = [], []
    with mpmath.workdps(40):
        c = oracle.c
        for v, s_v in zip(volumes, radii):
            vol = oracle.volume(s_v)
            x = mpmath.mpf(s_v)
            if c > 0:
                w = mpmath.sqrt(x - c)
                w -= (vol - v) / oracle.volume_element_in_w(w)
                exact.append(c + w * w)
            else:
                f = 1 + x * x + oracle.deficit(x)
                exact.append(x - (vol - v) * mpmath.sqrt(f) / (4 * mpmath.pi * x * x))
            vols.append(vol)
    return radii, vols, exact


# Past the oracle's radii hyperbolic space has its closed form _ball_volume.
_FAR_BALL_RADII = (5.01e5, 1e6, 1e7, 1e12, 1e50, 1e100, 1e153)


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_model_volume_quad_within_error_bound_of_oracle(name):
    # One adaptive GK15 panel from the core out to a far s put no node near
    # the core, and its Gauss and Kronrod values agreed on a wrong volume:
    # up to 1,640 times its bound on the far radii of four of these models,
    # and 39.5 high (313 times) on hyperbolic space at s = 5.01e5.
    metric = ORACLE_MODELS[name]
    pairs = [pair for far in (False, True) for pair in zip(*_volume_oracle(name, far)[:2])]
    if name == "hyperbolic":
        pairs += [(s, _ball_volume(s)) for s in _FAR_BALL_RADII]
    for s_v, want in pairs:
        res = model_volume_quad(metric, s_v)
        assert float(abs(res.value - want)) <= res.error_bound, s_v


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_model_radius_for_volume_matches_oracle(name):
    # The absolute 1e-12 stopping rule of the Brent inversion left errors
    # up to 3.7e-13 relative here, and the per-batch ladder 2.4e-11 far out.
    for far, volumes in ((False, ORACLE_VOLUMES), (True, FAR_VOLUMES)):
        radii, _, exact = _volume_oracle(name, far)
        errors = [float(abs(s - want) / want) for s, want in zip(radii, exact)]
        worst = int(np.argmax(errors))
        assert errors[worst] <= 1e-14, f"relative error {errors[worst]:.3g} at v={volumes[worst]!r}"


def test_model_radius_for_volume_at_small_volume():
    # Hyperbolic space holds 2 pi (s sqrt(1 + s^2) - asinh s) inside area
    # radius s.  An absolute 1e-12 stopping rule on s returned 9.5e-17 at
    # v = 1e-40, where s_v is 2.9e-14.
    vols = np.geomspace(1e-40, 1e-3, 38)
    radii = [model_radius_for_volume(make_hyperbolic(), v) for v in vols.tolist()]
    errors = []
    with mpmath.workdps(120):
        for v, s_v in zip(vols.tolist(), radii):
            # Newton from the Euclidean radius, which lies below s_v.
            x = mpmath.cbrt(3 * mpmath.mpf(v) / (4 * mpmath.pi))
            for _ in range(100):
                vol = 2 * mpmath.pi * (x * mpmath.sqrt(1 + x * x) - mpmath.asinh(x))
                step = (vol - v) * mpmath.sqrt(1 + x * x) / (4 * mpmath.pi * x * x)
                x -= step
                if abs(step) <= mpmath.mpf(10) ** -40 * x:
                    break
            errors.append(float(abs(s_v - x) / x))
    worst = int(np.argmax(errors))
    assert errors[worst] <= 1e-14, f"relative error {errors[worst]:.3g} at v={vols[worst]!r}"


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_s_from_rho_matches_oracle(name):
    # The exact s is one Newton step on asinh(s) - G(s) = rho (slope
    # f^{-1/2}) from the package's answer.  rho = 0 lies below the image
    # of every stock model but pert(0.5, [0.2]), whose rho is negative at
    # its core.
    metric = ORACLE_MODELS[name]
    oracle = _Oracle(metric)
    inner = float(mpmath.asinh(oracle.c) - oracle.gap(oracle.c)) if oracle.c > 0 else 0.0
    errors = {}
    for rho in (0.0, 0.7, 1.0, 5.0, 20.0):
        if rho <= inner:
            with pytest.raises(ValueError, match="below the image"):
                s_from_rho(metric, rho)
            continue
        s = s_from_rho(metric, rho)
        with mpmath.workdps(40):
            x = mpmath.mpf(s)
            f = 1 + x * x + oracle.deficit(x)
            exact = x - (mpmath.asinh(x) - oracle.gap(x) - rho) * mpmath.sqrt(f)
            errors[rho] = float(abs(x - exact) / exact)
    worst = max(errors, key=errors.get)
    assert errors[worst] <= 2e-15, f"relative error {errors[worst]:.3g} at rho={worst!r}"


# ----------------------------------------------------------------------
# Core radius.


def _core_oracle(mass, coeffs):
    """Largest positive real root of s^n f(s) to 50 digits, or 0 if none.

    mpmath's polynomial solver finds every root of the polynomial in
    x = s / scale, scale = max_k |p_k|^{1/k} (every root has |x| < 2), to
    an accuracy relative to the largest, so it works with 50 digits more
    than the coefficients span; a root whose imaginary part is below 1e-30
    of its modulus counts as real.  Newton's method on the polynomial, in
    the variable x = s / root, then settles the largest to all 50 digits.
    """
    poly = [1.0, 0.0, 1.0, -2.0 * mass, *coeffs]
    while poly[-1] == 0.0:
        poly.pop()
    exponents = [np.log10(abs(c)) for c in poly if c]
    with mpmath.workdps(50 + int(max(exponents) - min(exponents))):
        poly = [mpmath.mpf(c) for c in poly]
        scale = max(abs(c) ** (mpmath.mpf(1) / k) for k, c in enumerate(poly) if k)
        scaled = [c / scale**k for k, c in enumerate(poly)]
        roots = [scale * z for z in mpmath.polyroots(scaled, maxsteps=400, extraprec=50)]
        real = [mpmath.re(z) for z in roots if abs(mpmath.im(z)) <= 1e-30 * abs(z)]
        real = [r for r in real if r > 0]
        if not real:
            return 0.0
        root = max(real)
        x = mpmath.mpf(1)
        for _ in range(100):
            value, slope = mpmath.polyval(poly, root * x, derivative=True)
            step = value / (slope * root)
            x -= step
            if abs(step) <= mpmath.mpf(10) ** -45:
                return root * x
        raise AssertionError(f"oracle did not converge for {mass!r}, {coeffs!r}")


def _ulps_from_oracle(core, mass, coeffs):
    exact = _core_oracle(mass, coeffs)
    if exact == 0:
        return 0.0 if core == 0.0 else float("inf")
    return float(abs(mpmath.mpf(core) - exact) / np.spacing(float(exact)))


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_stock_core_radius_within_an_ulp_and_a_half_of_oracle(name):
    # Every stock core is correctly rounded but pert_m0.5's, 1.11 ulp off;
    # the sign scan and Brent's method left that one 1.89 ulp off.
    metric = ORACLE_MODELS[name]
    ulps = _ulps_from_oracle(metric.core_radius, metric.mass, metric.coeffs)
    assert ulps <= (1.5 if name == "pert_m0.5" else 0.5)


@pytest.mark.parametrize(
    "mass",
    [
        pytest.param(10.0**exponent, id=str(exponent))
        for exponent in [-300, -200, -100, -20, -7, 0, 7, 20, 100, 200, 300]
    ]
    # 3 sqrt(3) m overflows past 3.46e307, where asinh x is taken as ln 2x.
    + [pytest.param(mass, id=repr(mass)) for mass in [3.5e307, 5e307, 8.9e307]],
)
def test_ads_core_radius_within_two_ulp_of_oracle(mass):
    metric = make_ads_schwarzschild(mass)
    assert _ulps_from_oracle(metric.core_radius, mass, ()) <= 2.0


_SIGNED_POWER = st.tuples(st.booleans(), st.floats(-12.0, 12.0)).map(
    lambda t: (-1.0 if t[0] else 1.0) * 10.0 ** t[1]
)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    mass=st.one_of(st.just(0.0), st.floats(-12.0, 10.0).map(lambda e: 10.0 ** e)),
    coeffs=st.lists(_SIGNED_POWER, max_size=4),
)
def test_core_radius_within_two_ulp_of_oracle(mass, coeffs):
    core = _core_radius(mass, tuple(coeffs))
    assert _ulps_from_oracle(core, mass, coeffs) <= 2.0


# Where some coefficient over P(0) overflows, the reversed polynomial
# cannot be normalized.  Every model below used to raise "cannot
# normalize", but ads m = 1e-308, whose subnormal core 2e-308 was returned.
@pytest.mark.parametrize("mass", [5e-324, 1e-310, 1e-308])
def test_subnormal_core_is_rejected_naming_it(mass):
    with pytest.raises(ValueError, match="is subnormal") as info:
        make_ads_schwarzschild(mass)
    core = float(re.search(r"core radius (\S+) of", str(info.value)).group(1))
    assert _ulps_from_oracle(core, mass, ()) <= 2.0


@pytest.mark.parametrize("coeffs", [(5e-324,), (0.0, 5e-324), (1e10, 1e-300)])
def test_unnormalizable_positive_coefficients_leave_no_core(coeffs):
    # No coefficient of P is negative, so f > 0 on (0, inf).
    assert make_perturbed(0.0, coeffs).core_radius == 0.0


@pytest.mark.parametrize(
    "coeffs",
    [
        # One sign change, and a root well above the subnormal range, where
        # s^k is subnormal: bisecting P in floats put the first at
        # 2.33e-162, 5% above the true 2.22e-162.
        (-5e-324,),
        (0.0, -5e-324),
        (-1e-310,),
        # Two sign changes, and P < 0 near s = 1e-11 though P(0) > 0 and
        # P(1e-6) > 0: taking the core as 0 would accept a model with
        # f ~ -99 at s = 1e-11.
        (-1e-20, 1e-310),
    ],
)
def test_unnormalizable_sign_change_is_rejected(coeffs):
    with pytest.raises(ValueError, match="cannot normalize the reversed polynomial"):
        make_perturbed(0.0, coeffs)


# ----------------------------------------------------------------------
# Comparison curve.


def _comparison_oracle(B0, mu, vs):
    """B at each volume of ``vs`` (vs[0] = v0, B(v0) = B0), at 40 digits.

    It solves the comparison ODE itself, dv/dB = B^{1/2} (16 pi + 4 B -
    (16 pi)^{3/2} mu B^{-1/2})^{-1/2}, row after row: Newton on
    int_{B_prev}^{B} dv/dB = v - v_prev, started one Euler step from the
    row before.  The integral rises strictly with B, so a step that
    converges has found the one root.
    """
    with mpmath.workdps(40):
        sixteen_pi = 16 * mpmath.pi
        mu = mpmath.mpf(mu)

        def dv_db(b):
            return mpmath.sqrt(b / (sixteen_pi + 4 * b - sixteen_pi ** 1.5 * mu / mpmath.sqrt(b)))

        out = [mpmath.mpf(B0)]
        for v_prev, v in zip(vs[:-1], vs[1:]):
            gain = mpmath.mpf(v) - mpmath.mpf(v_prev)
            lo = out[-1]
            b = lo + gain / dv_db(lo)
            for _ in range(100):
                step = (mpmath.quad(dv_db, [lo, b]) - gain) / dv_db(b)
                b -= step
                if abs(step) <= mpmath.mpf(10) ** -35 * b:
                    break
            else:
                raise AssertionError(f"oracle did not converge at v = {v!r}")
            out.append(b)
        return out


@pytest.mark.parametrize(
    "mu, v0, v_end",
    [(0.0, 1.0, 1e4), (0.0, 1.0, 1e9), (0.0, 1e-6, 1e-5), (1.0, 5.0, 1e6), (2.0, 50.0, 1e8)],
)
def test_comparison_curve_matches_ode_oracle(mu, v0, v_end):
    # The Dormand-Prince integration of the ODE erred up to 1.9e-10 here.
    curve = comparison_ode(hyperbolic_profile(v0), mu, v0, v_end)
    rows = list(range(0, curve.v_grid.size, 18)) + [curve.v_grid.size - 1]
    vs = [float(curve.v_grid[i]) for i in rows]
    want = _comparison_oracle(float(curve.B_values[0]), mu, vs)
    errors = [float(abs(curve.B_values[i] - w) / w) for i, w in zip(rows, want)]
    worst = int(np.argmax(errors))
    assert errors[worst] <= 1e-14, f"relative error {errors[worst]:.3g} at v={vs[worst]!r}"
