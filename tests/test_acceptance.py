"""Acceptance gate: ten quantitative end-to-end checks.

Each test pins one externally supplied target with its tolerance and
runtime budget.  The terminal summary (see conftest) prints one line per
criterion.  Two criteria fail by design against this implementation:

* test_04: centered spheres cannot have area below the horizon area
  4 pi core^2, while the hyperbolic profile A_H(v) -> 0 as v -> 0, so
  the required inequality reverses at small volume for every positive
  mass.  The failure message lists the violating rows.
* test_06: the measured large-volume limit of (gap + 2V) sqrt(v) is
  8 sqrt(2) pi^{3/2} m ~ 62.998 m, confirmed independently by dyadic
  convergence; the pinned target is 2 pi times larger.  The test states
  the pinned constant faithfully and reports the discrepancy.
"""

import math
import time

import numpy as np
import pytest

from ahiso.imcf import comparison_ode, flow_spheres, lipschitz_check
from ahiso.models import make_ads_schwarzschild, make_hyperbolic
from ahiso.profiles import gap_table, hyperbolic_profile, renormalized_volume
from ahiso.spheres import jacobi_spectrum, sphere_data, stability_total

MASSES = (0.5, 1.0, 2.0)
EIGHT_PI = 8.0 * math.pi
TWELVE_PI = 12.0 * math.pi
FOUR_PI = 4.0 * math.pi


def _mass_grid(metric, n=50):
    return np.geomspace(metric.core_radius + 0.1, 1e3, n)


def test_01_hawking_mass_identity():
    start = time.perf_counter()
    worst = 0.0
    for m in MASSES:
        metric = make_ads_schwarzschild(m)
        for s in _mass_grid(metric):
            err = abs(sphere_data(metric, float(s)).hawking_mass - m)
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"max |m_H - m| = {worst:.3e}"
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"


def test_02_scalar_curvature_floor():
    start = time.perf_counter()
    worst = 0.0
    metrics = [make_hyperbolic()] + [make_ads_schwarzschild(m) for m in MASSES]
    for metric in metrics:
        for s in _mass_grid(metric):
            geom = sphere_data(metric, float(s))
            worst = max(worst, abs(geom.scalar + 6.0))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"max |R + 6| = {worst:.3e}"
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"


def test_03_profile_ode_equivalence():
    start = time.perf_counter()
    v0, v_end = 1.0, 1e4
    curve = comparison_ode(hyperbolic_profile(v0), 0.0, v0, v_end)
    closed = np.array([hyperbolic_profile(float(v)) for v in curve.v_grid])
    rel = float(np.max(np.abs(curve.B_values - closed) / closed))
    elapsed = time.perf_counter() - start
    assert rel <= 1e-6, f"max relative deviation from A_H: {rel:.3e}"
    assert elapsed < 5.0, f"runtime budget exceeded: {elapsed:.2f}s"


def test_04_area_comparison_bound():
    # Required: A_hat_g(v) <= A_H(v) on 60 log-spaced v in [1, 1e6],
    # strictly below for positive mass.
    start = time.perf_counter()
    grid = np.geomspace(1.0, 1e6, 60)
    reports = []
    for m in MASSES:
        table = gap_table(make_ads_schwarzschild(m), grid)
        bad = table.gap >= 0.0
        if np.any(bad):
            first_ok = table.v[~bad][0] if not np.all(bad) else None
            worst = int(np.argmax(table.gap))
            reports.append(
                f"m = {m}: {np.count_nonzero(bad)} of {bad.size} rows have gap >= 0 "
                f"(worst gap {table.gap[worst]:+.4e} at v = {table.v[worst]:.4g}; "
                f"first negative row at v = {first_ok:.4g})"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime budget exceeded: {elapsed:.2f}s"
    if reports:
        pytest.fail(
            "centered-sphere area exceeds the hyperbolic profile at small "
            "volume: spheres cannot shrink below the horizon area "
            "4 pi core^2 while A_H(v) -> 0, so the comparison reverses "
            "there.\n" + "\n".join(reports)
        )


def test_05_gap_matches_renormalized_volume():
    start = time.perf_counter()
    metric = make_ads_schwarzschild(1.0)
    res = renormalized_volume(metric, truncation_rho=20.0)
    gap = gap_table(metric, np.array([1e6])).gap[0]
    target = 2.0 * res.value
    defect = abs(gap + target)
    elapsed = time.perf_counter() - start
    # propagated quadrature error must be dominated by the tolerance
    assert res.quad_error + res.tail_estimate < 0.02 * target
    assert defect <= 0.02 * target, (
        f"|gap(1e6) + 2V| = {defect:.4e} exceeds 2% of 2V = {target:.6f}"
    )
    assert elapsed < 10.0, f"runtime budget exceeded: {elapsed:.2f}s"


def test_06_scaled_gap_coefficient():
    # Required: scaled gap at v = 1e6 within 5% of 16 sqrt(2) pi^{5/2} m.
    start = time.perf_counter()
    pinned = 16.0 * math.sqrt(2.0) * math.pi**2.5
    derived = 8.0 * math.sqrt(2.0) * math.pi**1.5
    reports = []
    for m in (0.5, 1.0):
        table = gap_table(make_ads_schwarzschild(m), np.array([1e6]))
        scaled_gap = table.scaled_gap[0]
        target = pinned * m
        if abs(scaled_gap - target) > 0.05 * target:
            reports.append(
                f"m = {m}: measured {scaled_gap:.4f}, pinned target "
                f"{target:.4f}; measured/m = {scaled_gap / m:.4f} agrees "
                f"with {derived:.4f} = pinned/(2 pi) to "
                f"{abs(scaled_gap / m - derived) / derived:.1%}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime budget exceeded: {elapsed:.2f}s"
    if reports:
        pytest.fail(
            "the v^{1/2}-scaled gap converges to a constant 2 pi times "
            "smaller than the pinned coefficient:\n" + "\n".join(reports)
        )


def test_07_flow_laws():
    start = time.perf_counter()
    for metric in (make_ads_schwarzschild(1.0), make_hyperbolic()):
        s0 = metric.core_radius + 1.0
        flow = flow_spheres(metric, s0, 10.0, 1e-3)
        ts, areas = flow.t, flow.area
        rel = float(np.max(np.abs(areas / (areas[0] * np.exp(ts)) - 1.0)))
        assert rel <= 1e-7, f"area law violated: {rel:.3e}"
        hs = flow.hawking
        assert float(np.min(np.diff(hs))) >= -1e-9, "Hawking mass decreased"
        if metric.mass > 0.0:
            assert float(np.max(np.abs(hs - metric.mass))) <= 1e-9
        assert lipschitz_check(flow) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime budget exceeded: {elapsed:.2f}s"


def test_08_stability_bounds():
    start = time.perf_counter()
    hyp = make_hyperbolic()
    for s in _mass_grid(hyp):
        s = float(s)
        assert abs(stability_total(hyp, s) - EIGHT_PI) <= 1e-8
        lam1 = dict(jacobi_spectrum(hyp, s, l_max=1))[1]
        assert abs(lam1) <= 1e-9
    for m in MASSES:
        metric = make_ads_schwarzschild(m)
        for s in _mass_grid(metric):
            s = float(s)
            assert stability_total(metric, s) <= TWELVE_PI + 1e-6
            for l, lam in jacobi_spectrum(metric, s, l_max=3):
                if l >= 1:
                    assert lam >= -1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"


def test_09_gauss_bonnet():
    start = time.perf_counter()
    worst = 0.0
    metrics = [make_hyperbolic()] + [make_ads_schwarzschild(m) for m in MASSES]
    for metric in metrics:
        # area * K, as the spheres table writes them and the summary's
        # gauss_bonnet criterion reads them.
        geom = sphere_data(metric, _mass_grid(metric))
        worst = max(worst, float(np.max(np.abs(geom.area * geom.gauss_curvature - FOUR_PI))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"max |int K dmu - 4 pi| = {worst:.3e}"
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"


def test_10_renormalized_volume_sign():
    start = time.perf_counter()
    hyp_res = renormalized_volume(make_hyperbolic())
    assert abs(hyp_res.value) <= 1e-9
    values = [
        renormalized_volume(make_ads_schwarzschild(m)).value for m in MASSES
    ]
    assert values[0] > 0.0
    assert values[0] < values[1] < values[2]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime budget exceeded: {elapsed:.2f}s"
