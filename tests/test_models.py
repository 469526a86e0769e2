"""Model family: construction, curvature, the geodesic coordinate, and
AH validation."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahiso.models import (
    RadialMetric,
    coordinate_gap,
    default_grid,
    gap_over_grid,
    make_ads_schwarzschild,
    make_hyperbolic,
    make_perturbed,
    rho_from_s,
    s_from_rho,
    scalar_curvature,
    scalar_curvature_excess,
    validate_ah,
)


def _bisect_horizon(m: float) -> float:
    # Independent oracle for the root of s^3 + s - 2m.
    lo, hi = 0.0, 1.0 + 2.0 * m
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid**3 + mid - 2.0 * m > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestConstruction:
    def test_hyperbolic(self, hyperbolic):
        assert hyperbolic.f(2.0) == 5.0
        assert hyperbolic.core_radius == 0.0
        assert hyperbolic.mass == 0.0
        assert scalar_curvature(hyperbolic, 1.0) == pytest.approx(-6.0, abs=1e-12)

    def test_ads_unit_mass_horizon_is_exact(self, ads_one):
        # s^3 + s - 2 factors as (s - 1)(s^2 + s + 2).
        assert ads_one.core_radius == pytest.approx(1.0, abs=1e-13)
        assert ads_one.f(2.0) == pytest.approx(4.0, abs=1e-15)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 0.01, 17.0])
    def test_ads_horizon_matches_cubic_oracle(self, m):
        metric = make_ads_schwarzschild(m)
        assert metric.core_radius == pytest.approx(_bisect_horizon(m), abs=1e-12)
        assert abs(metric.f(metric.core_radius)) <= 1e-10 * (1.0 + m)

    def test_ads_half_horizon_frozen(self, ads_half):
        assert ads_half.core_radius == pytest.approx(0.6823278038280193, abs=1e-12)

    def test_ads_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            make_ads_schwarzschild(0.0)
        with pytest.raises(ValueError):
            make_ads_schwarzschild(-1.0)

    def test_perturbed_empty_is_hyperbolic(self, hyperbolic):
        metric = make_perturbed(0.0, ())
        assert metric == hyperbolic

    def test_perturbed_arithmetic(self):
        metric = make_perturbed(1.0, (0.1,))
        assert metric.f(2.0) == pytest.approx(4.025, abs=1e-15)

    def test_perturbed_rejects_destroyed_domain(self):
        # c2 = -50 drives f negative around s = 2 with no outer recovery
        # before the quadratic term wins.
        with pytest.raises(ValueError):
            make_perturbed(1.0, (-50.0,))

    def test_perturbed_may_shrink_the_core(self):
        metric = make_perturbed(1.0, (0.5,))
        assert 0.0 < metric.core_radius < 1.0
        assert abs(metric.f(metric.core_radius)) <= 1e-10

    def test_perturbed_rejects_a_dip_narrower_than_any_scan_step(self):
        # s^3 f = (s^2 - 2s + 1 - 1e-8)(s^3 + 2s^2 + c s + d) is negative on
        # (0.9999, 1.0001), beyond the mass horizon at 0.68.
        with pytest.raises(ValueError, match="remove the positive domain near s = 1"):
            make_perturbed(0.5, (-6.00000011, 4.99999999))

    @pytest.mark.parametrize("mass, a", [(0.5, 1.0), (0.1, 3.0), (2.0, 5.0)])
    @pytest.mark.parametrize("e", [1e-4, 1e-8, 1e-12, 1e-16, 0.0, -1e-12, -1e-8])
    def test_double_root_family(self, mass, a, e):
        # s^3 f = (s^2 - 2as + a^2 - e)(s^3 + 2as^2 + cs + d), with c and d
        # set so that the s^3 and s^2 coefficients are 1 and -2m.  The
        # cubic's coefficients are positive, so f has the roots a +- sqrt(e)
        # for e >= 0, beyond the mass horizon, and none for e < 0.
        q = a * a - e
        c = 1.0 + 3.0 * a * a + e
        d = -2.0 * mass + 2.0 * a * c - 2.0 * a * q
        coeffs = (-2.0 * a * d + q * c, q * d)
        if e >= 0.0:
            with pytest.raises(ValueError, match="remove the positive domain"):
                make_perturbed(mass, coeffs)
            return
        metric = make_perturbed(mass, coeffs)
        assert metric.core_radius == 0.0
        near_a = a + np.linspace(-1e-5, 1e-5, 2001)
        s = np.concatenate([np.geomspace(1e-3, 1e3, 2001), near_a])
        assert np.all(metric.f(s) > 0.0)

    def test_core_quotient_matches_direct_ratio(self, ads_one):
        delta = 1e-3
        direct = ads_one.f(ads_one.core_radius + delta) / delta
        assert ads_one.core_quotient(delta) == pytest.approx(direct, rel=1e-9)

    def test_core_quotient_stable_at_tiny_offsets(self, ads_one):
        # f(core + delta)/delta -> f'(core); the direct ratio would be
        # pure cancellation noise at delta = 1e-12.
        want = ads_one.f_prime(ads_one.core_radius)
        assert ads_one.core_quotient(1e-12) == pytest.approx(want, rel=1e-6)

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            RadialMetric(mass=-1.0)
        with pytest.raises(ValueError):
            RadialMetric(mass=0.0, core_radius=-0.5)
        with pytest.raises(ValueError):
            RadialMetric(mass=math.nan)


_PROFILE_MODELS = {
    "hyperbolic": make_hyperbolic(),
    "ads_m0.5": make_ads_schwarzschild(0.5),
    "ads_m1": make_ads_schwarzschild(1.0),
    "ads_m2": make_ads_schwarzschild(2.0),
    "pert_m1": make_perturbed(1.0, (0.1, 0.05)),
    "pert_m0.5": make_perturbed(0.5, (0.2,)),
    # No mass term: at s = 0 the only pole is the power c s^{-2}.
    "c2_only": RadialMetric(0.0, (0.3,)),
}


def _assert_scalar_matches_array(metric, s):
    # NaN-aware bitwise equality: NaNs may differ in sign or payload.
    with np.errstate(all="ignore"):
        for name in ("deficit", "deficit_prime", "f", "f_prime"):
            method = getattr(metric, name)
            got = method(s)
            want = float(method(np.array([s]))[0])
            assert type(got) is float, (name, s)
            same = struct.pack("<d", got) == struct.pack("<d", want)
            assert same or (math.isnan(got) and math.isnan(want)), (name, s, got, want)


class TestScalarPath:
    """A scalar, evaluated as a 0-d array, matches the array path bit for bit."""

    @pytest.mark.parametrize("metric", _PROFILE_MODELS.values(), ids=_PROFILE_MODELS.keys())
    @pytest.mark.parametrize("s", [0.0, -0.0, 5e-324, 1e-200, 1e300, math.inf, math.nan])
    def test_edge_values(self, metric, s):
        _assert_scalar_matches_array(metric, s)

    @pytest.mark.parametrize("metric", _PROFILE_MODELS.values(), ids=_PROFILE_MODELS.keys())
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(s=st.one_of(st.floats(), st.floats(1e-3, 1e4)))
    def test_drawn_values(self, metric, s):
        _assert_scalar_matches_array(metric, s)


class TestCurvature:
    def test_hyperbolic_is_constant(self, hyperbolic):
        for s in (0.3, 3.0, 300.0):
            assert scalar_curvature(hyperbolic, s) == pytest.approx(-6.0, abs=1e-12)

    def test_ads_mass_term_cancels(self, ads_one):
        assert scalar_curvature(ads_one, 2.0) == pytest.approx(-6.0, abs=1e-12)

    def test_flat_profile_formula(self):
        # f = 1 (Euclidean in this chart): R = (2/s^2)(1 - 1 - 0) = 0.
        s = 1.7
        assert (2.0 / s**2) * (1.0 - 1.0 - s * 0.0) == 0.0

    def test_excess_matches_direct_difference_at_moderate_radius(self):
        metric = make_perturbed(1.0, (0.1, -0.02))
        for s in (2.0, 5.0, 10.0):
            direct = scalar_curvature(metric, s) + 6.0
            assert scalar_curvature_excess(metric, s) == pytest.approx(
                direct, abs=1e-12
            )

    def test_excess_survives_where_direct_route_drowns(self):
        metric = make_perturbed(1.0, (0.1,))
        s = 1e3
        # closed form: 2 (k-1) c_k s^{-k-2} with k=2.
        want = 2.0 * 0.1 * s**-4.0
        assert scalar_curvature_excess(metric, s) == pytest.approx(want, rel=1e-12)

    def test_vector_and_scalar_paths_agree(self, ads_one):
        grid = np.array([1.5, 2.0, 4.0])
        vec = scalar_curvature(ads_one, grid)
        assert vec.shape == grid.shape
        assert vec[1] == scalar_curvature(ads_one, 2.0)

    def test_domain_violations_raise(self, ads_one):
        with pytest.raises(ValueError):
            scalar_curvature(ads_one, 1.0)
        with pytest.raises(ValueError):
            scalar_curvature(ads_one, math.inf)


class TestGeodesicCoordinate:
    def test_hyperbolic_identity(self, hyperbolic):
        assert rho_from_s(hyperbolic, math.sinh(1.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_positive_mass_lags_hyperbolic(self, ads_one):
        for s in (2.0, 10.0, 100.0):
            assert rho_from_s(ads_one, s) < math.asinh(s)

    @pytest.mark.parametrize("s", [2.0, 10.0, 100.0])
    def test_round_trip(self, ads_one, s):
        assert s_from_rho(ads_one, rho_from_s(ads_one, s)) == pytest.approx(
            s, abs=1e-9
        )

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_gap_closes_at_infinity(self, m):
        metric = make_ads_schwarzschild(m)
        assert abs(rho_from_s(metric, 1e3) - math.asinh(1e3)) < 1e-5

    def test_strictly_increasing(self, ads_one):
        grid = np.geomspace(1.1, 50.0, 12)
        rhos = [rho_from_s(ads_one, float(s)) for s in grid]
        assert all(b > a for a, b in zip(rhos, rhos[1:]))

    def test_derivative_by_finite_differences(self, ads_one):
        for s in (2.0, 10.0, 100.0):
            h = 1e-4 * s
            fd = (rho_from_s(ads_one, s + h) - rho_from_s(ads_one, s - h)) / (
                2.0 * h
            )
            assert fd == pytest.approx(ads_one.f(s) ** -0.5, rel=1e-6)

    def test_gap_error_bound_is_reported(self, ads_one):
        res = coordinate_gap(ads_one, 2.0)
        assert res.error_bound >= 0.0
        assert res.error_bound <= 1e-10 * abs(res.value) + 1e-15
        assert res.evaluations >= 15

    def test_gap_at_the_core_is_finite(self, ads_one):
        # The integrand has an integrable 1/sqrt spike at the horizon.
        res = coordinate_gap(ads_one, ads_one.core_radius)
        assert math.isfinite(res.value)
        assert res.value > 0.0

    def test_below_image_raises(self, ads_one):
        horizon_rho = math.asinh(1.0) - coordinate_gap(ads_one, 1.0).value
        with pytest.raises(ValueError):
            s_from_rho(ads_one, horizon_rho - 0.5)

    @pytest.mark.parametrize("rho", [711.0, 1e308, math.inf, math.nan])
    def test_rho_past_sinh_overflow_raises(self, ads_one, rho):
        # sinh overflows above rho = 710.47..., where no float radius lies.
        with pytest.raises(ValueError, match="rho must be finite and <= 710.47"):
            s_from_rho(ads_one, rho)

    def test_domain_violations_raise(self, ads_one):
        with pytest.raises(ValueError):
            rho_from_s(ads_one, 1.0)
        with pytest.raises(ValueError):
            rho_from_s(ads_one, 0.5)

    @settings(max_examples=20, deadline=None)
    @given(m=st.floats(0.1, 3.0), frac=st.floats(0.01, 1.0))
    def test_round_trip_property(self, m, frac):
        metric = make_ads_schwarzschild(m)
        s = metric.core_radius + 0.1 + frac * 50.0
        assert s_from_rho(metric, rho_from_s(metric, s)) == pytest.approx(
            s, abs=1e-9
        )


class TestValidation:
    def test_hyperbolic_report(self, hyperbolic):
        report = validate_ah(hyperbolic)
        assert report.is_ah
        assert report.min_scalar_curvature_excess == 0.0
        assert report.messages == ()

    def test_ads_report(self, ads_one):
        report = validate_ah(ads_one)
        assert report.is_ah
        assert report.min_scalar_curvature_excess == 0.0
        assert math.isinf(report.decay_exponent_estimate)

    def test_perturbed_decay_estimate(self):
        metric = make_perturbed(1.0, (0.1,))
        report = validate_ah(metric)
        assert report.is_ah
        assert report.decay_exponent_estimate == pytest.approx(2.0, abs=0.05)

    def test_scalar_floor_violation_detected(self):
        metric = make_perturbed(0.0, (-0.05, 0.01))
        report = validate_ah(metric)
        assert not report.is_ah
        assert report.min_scalar_curvature_excess < 0.0
        assert any("scalar curvature" in msg for msg in report.messages)

    @pytest.mark.parametrize("mass", [6e8, 1e9, 1e300])
    def test_large_core_report(self, mass):
        # The grid starts above the core and ends three decades beyond it.
        metric = make_ads_schwarzschild(mass)
        grid = default_grid(metric)
        assert grid[0] > metric.core_radius
        assert grid[-1] == pytest.approx(1e3 * metric.core_radius)
        assert validate_ah(metric).is_ah

    def test_default_grid_shape(self, ads_one):
        grid = default_grid(ads_one)
        assert grid.shape == (50,)
        assert grid[0] == pytest.approx(ads_one.core_radius + 0.1)
        assert grid[-1] == pytest.approx(1e3)


class TestGapSweep:
    @pytest.mark.parametrize(
        "metric",
        [make_hyperbolic(), make_ads_schwarzschild(1.0), make_perturbed(0.5, (0.2,))],
        ids=["hyperbolic", "ads_m1", "pert_m0.5"],
    )
    def test_matches_pointwise_gap_in_any_order(self, metric):
        # Unsorted, repeated, on the core, and on both sides of core + 1
        # where the sweep changes variable.
        core = metric.core_radius
        pts = np.array([core + 3.0, core, core + 1e-6, 1e4, core + 0.5, core + 3.0, core + 1.0])
        gap, bound = gap_over_grid(metric, pts)
        for x, g, b in zip(pts.tolist(), gap, bound):
            res = coordinate_gap(metric, x)
            assert abs(g - res.value) <= b + res.error_bound
            assert b <= 1e-13
        assert gap[0] == gap[5]

    def test_single_point_is_coordinate_gap(self, ads_one):
        gap, bound = gap_over_grid(ads_one, [2.0])
        res = coordinate_gap(ads_one, 2.0)
        assert (gap[0], bound[0]) == (res.value, res.error_bound)

    def test_domain_checked(self, ads_one):
        for bad in ([0.5, 2.0], [2.0, math.nan], [], [[2.0]]):
            with pytest.raises(ValueError):
                gap_over_grid(ads_one, bad)
