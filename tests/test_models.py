"""Model family: construction, curvature, the geodesic coordinate, and
AH validation."""

import math
import struct
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_oracles import BALANCED_CORE, ORACLE_MODELS, _Oracle

import ahiso.models
from ahiso.models import (
    RadialMetric,
    _geomspace,
    coordinate_gap,
    default_grid,
    gap_over_grid,
    make_ads_schwarzschild,
    make_hyperbolic,
    make_perturbed,
    rho_from_s,
    s_from_rho,
    scalar_curvature_excess,
    validate_ah,
)
from ahiso.spheres import sphere_data

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from fuzz_models import scan  # noqa: E402


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
        assert sphere_data(hyperbolic, 1.0).scalar == pytest.approx(-6.0, abs=1e-12)

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

    @pytest.mark.parametrize("mass", [0.0, 0.5, 1.0, 2.0, 1e-3, 1e3])
    def test_outward_core_rule_matches_the_two_root_comparison(self, mass):
        # The rule once took the mass-only root too and rejected a core
        # beyond base (1 + 1e-9) + 1e-12; now it reads the sign of
        # x^3 + x - 2m at x = (core - 1e-12) / (1 + 1e-9).  c_2 puts the
        # core of s^4 + s^2 - 2ms + c_2 at that threshold and at the six
        # floats on either side, so both outcomes occur.
        base = ahiso.models._core_radius(mass, ())
        threshold = base * (1.0 + 1e-9) + 1e-12
        outcomes = set()
        for ulps in range(-6, 7):
            r = threshold
            for _ in range(abs(ulps)):
                r = math.nextafter(r, math.copysign(math.inf, ulps))
            with mpmath.workdps(50):
                x = mpmath.mpf(r)
                c2 = float(-(x**4 + x**2 - 2 * mpmath.mpf(mass) * x))
            core = ahiso.models._core_radius(mass, (c2,))
            old = core > base * (1.0 + 1e-9) + 1e-12
            try:
                make_perturbed(mass, (c2,))
                new = False
            except ValueError as exc:
                assert "remove the positive domain" in str(exc)
                new = True
            assert new == old, (ulps, c2, core)
            outcomes.add(new)
        assert outcomes == {False, True}

    @pytest.mark.parametrize(
        "mass, coeffs", [(0.0, ()), (1.0, ()), (1.0, (0.1, 0.05)), (0.5, (0.2,)), (0.0, (-1e-200,))]
    )
    def test_accepted_perturbed_model_takes_one_core_root(self, monkeypatch, mass, coeffs):
        calls = []
        core_radius = ahiso.models._core_radius

        def counting(*args):
            calls.append(args)
            return core_radius(*args)

        monkeypatch.setattr(ahiso.models, "_core_radius", counting)
        make_perturbed(mass, coeffs)
        assert calls == [(mass, coeffs)]

    @pytest.mark.parametrize("mass, coeffs", [(1e-300, ()), (1.0, ()), (1e300, ()), (0.5, (0.0, 0.0))])
    def test_mass_only_core_takes_no_eigenvalue_call(self, monkeypatch, mass, coeffs):
        # The cubic s^3 + s - 2m has a closed-form root; only a tail needs
        # the companion matrix.
        def refuse(_):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        metric = make_perturbed(mass, coeffs)
        assert metric.core_radius == make_ads_schwarzschild(mass).core_radius > 0.0
        with pytest.raises(AssertionError, match="eigvals called"):
            make_perturbed(mass, (0.1,))

    def test_core_quotient_matches_direct_ratio(self, ads_one):
        delta = 1e-3
        direct = ads_one.f(ads_one.core_radius + delta) / delta
        assert ads_one.core_quotient(delta) == pytest.approx(direct, rel=1e-9)

    def test_core_quotient_stable_at_tiny_offsets(self, ads_one):
        # f(core + delta)/delta -> f'(core) = 2 core + 2m / core^2; the
        # direct ratio would be pure cancellation noise at delta = 1e-12.
        core = ads_one.core_radius
        want = 2.0 * core + 2.0 * ads_one.mass / core**2
        assert ads_one.core_quotient(1e-12) == pytest.approx(want, rel=1e-6)

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            RadialMetric(mass=-1.0)
        # The record derives its core; it takes none by hand.
        with pytest.raises(TypeError):
            RadialMetric(mass=0.0, core_radius=-0.5)
        with pytest.raises(ValueError):
            RadialMetric(mass=math.nan)

    def test_record_derives_its_core(self):
        # The core was passed by hand, with 0.0 as its default: the mass
        # horizon at 1 went missing, and sphere_data at s = 0.5 gave nan.
        metric = RadialMetric(1.0)
        assert metric.core_radius == 1.0
        assert metric == make_ads_schwarzschild(1.0)
        with pytest.raises(ValueError):
            sphere_data(metric, 0.5)

    @pytest.mark.parametrize("name", ["pert_m1", "pert_m0.5"])
    def test_record_matches_the_perturbed_constructor(self, name):
        metric = ORACLE_MODELS[name]
        assert RadialMetric(metric.mass, metric.coeffs) == make_perturbed(metric.mass, metric.coeffs)

    def test_record_obeys_the_outward_core_rule(self):
        # Every construction path rejects a tail that pushes the core beyond
        # the mass horizon; the record alone once built it with core 0.
        with pytest.raises(ValueError, match="remove the positive domain"):
            RadialMetric(1.0, (-3.0,))


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
        for name in ("deficit", "f"):
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


def _old_deficit(metric, s):
    """RadialMetric.deficit as it was written before it started from 0.0 - 2m/s."""
    arr = np.asarray(s, dtype=float)
    out = np.zeros_like(arr)
    if metric.mass:
        out = out - 2.0 * metric.mass / arr
    for k, c in enumerate(metric.coeffs, start=2):
        if c:
            out = out + c * np.power(arr, -k)
    return out


# Every oracle model plus the tiny core 1e-150 and the huge core 1.26e100.
_GUARD_MODELS = {
    **ORACLE_MODELS,
    "core_1e-150": make_ads_schwarzschild(5e-151),
    "core_1.26e100": make_ads_schwarzschild(1e300),
}


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestBitGuards:
    """deficit gives the bits of the formula it replaced."""

    @pytest.mark.parametrize("name", sorted(_GUARD_MODELS))
    def test_deficit(self, name):
        metric = _GUARD_MODELS[name]
        lo = max(metric.core_radius, 1e-3)
        # Up to 1e300, where 2m/s and the tail's powers underflow to zeros
        # whose sign must match too.
        s = np.concatenate([lo * (1.0 + np.geomspace(1e-15, 1.0, 50)), np.geomspace(lo, 1e300, 400)])
        assert _same_bits(metric.deficit(s), _old_deficit(metric, s))
        for x in s[::37].tolist():
            assert _same_bits(metric.deficit(x), _old_deficit(metric, x))

    def test_extreme_cores_are_in_place(self):
        assert _GUARD_MODELS["core_1e-150"].core_radius == pytest.approx(1e-150, rel=1e-12)
        assert _GUARD_MODELS["core_1.26e100"].core_radius == pytest.approx(1.26e100, rel=1e-2)


def _assert_core_quotient_matches_oracle(metric, n):
    # Against f(core + delta) / delta at 50 digits, from delta = 1e-3 (where
    # the float core's f(core) / delta is negligible) to 1e30 times
    # max(1, core), and against f'(core) at delta = 0.
    oracle = _Oracle(metric)
    core = metric.core_radius
    delta = max(1.0, core) * np.geomspace(1e-3, 1e30, n)
    got = metric.core_quotient(delta)
    with mpmath.workdps(50):
        for x, g in zip(delta.tolist(), got.tolist()):
            b = mpmath.mpf(core) + x
            want = (1 + b * b + oracle.deficit(b)) / x
            assert abs(g - want) <= 1e-12 * abs(want), (x, g, want)
        want = oracle.f_prime(mpmath.mpf(core))
        assert abs(metric.core_quotient(0.0) - want) <= 1e-14 * abs(want)


class TestCoreQuotient:
    """core_quotient, P deflated by its root, against a 50-digit oracle."""

    @pytest.mark.parametrize(
        "metric",
        [m for m in _GUARD_MODELS.values() if m.core_radius > 0.0] + [BALANCED_CORE],
        ids=[n for n, m in _GUARD_MODELS.items() if m.core_radius > 0.0] + ["balanced_core"],
    )
    def test_matches_oracle(self, metric):
        _assert_core_quotient_matches_oracle(metric, 200)
        # A scalar, evaluated as a 0-d array, gets the array path's bits.
        delta = np.geomspace(1e-30, 1e30, 7)
        for x, want in zip(delta.tolist(), metric.core_quotient(delta).tolist()):
            assert _same_bits(metric.core_quotient(x), want)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_drawn_models_match_oracle(self, seed):
        # The first positive-core model of scripts/fuzz_models.py's scan at
        # this seed.  The divided-difference form was off by more than 1e-12
        # on 136 of the scan's first 300 such models at seed 5.
        metric = next(
            m for spec in scan(seed)
            if (m := make_perturbed(spec["mass"], spec["coeffs"])).core_radius > 0.0
        )
        _assert_core_quotient_matches_oracle(metric, 12)


class TestCurvature:
    def test_hyperbolic_is_constant(self, hyperbolic):
        for s in (0.3, 3.0, 300.0):
            assert sphere_data(hyperbolic, s).scalar == pytest.approx(-6.0, abs=1e-12)

    def test_ads_mass_term_cancels(self, ads_one):
        assert sphere_data(ads_one, 2.0).scalar == pytest.approx(-6.0, abs=1e-12)

    def test_flat_profile_formula(self):
        # f = 1 (Euclidean in this chart): R = (2/s^2)(1 - 1 - 0) = 0.
        s = 1.7
        assert (2.0 / s**2) * (1.0 - 1.0 - s * 0.0) == 0.0

    def test_excess_matches_direct_difference_at_moderate_radius(self):
        metric = make_perturbed(1.0, (0.1, -0.02))
        for s in (2.0, 5.0, 10.0):
            direct = sphere_data(metric, s).scalar + 6.0
            assert scalar_curvature_excess(metric, s) == pytest.approx(
                direct, abs=1e-12
            )

    def test_excess_survives_where_direct_route_drowns(self):
        metric = make_perturbed(1.0, (0.1,))
        s = 1e3
        # closed form: 2 (k-1) c_k s^{-k-2} with k=2.
        want = 2.0 * 0.1 * s**-4.0
        assert scalar_curvature_excess(metric, s) == pytest.approx(want, rel=1e-12)

    def test_weight_past_the_float_range_leaves_a_finite_term(self):
        # 2 c_2 overflows at c_2 = 1e308, which made the whole term inf
        # where it is 2e296, and validate wrote its minimum as Infinity.
        metric = make_perturbed(0.5, (1e308,))
        assert scalar_curvature_excess(metric, 1e3) == 2e296
        assert validate_ah(metric).min_scalar_curvature_excess == 2e296

    def test_vector_and_scalar_paths_agree(self, ads_one):
        grid = np.array([1.5, 2.0, 4.0])
        vec = sphere_data(ads_one, grid).scalar
        assert vec.shape == grid.shape
        assert vec[1] == sphere_data(ads_one, 2.0).scalar

    @pytest.mark.parametrize("mass", [0.0, 0.5, 1.0, 2.0])
    def test_exactly_minus_six_on_the_default_spheres_grid(self, mass):
        # R = (R + 6) - 6 with the excess summed over the c_k alone, so
        # the mass term leaves no rounding: R from f' puts 52, 35, 41 and
        # 34 of these 200 rows below -6.
        metric = make_perturbed(mass, ())
        core = metric.core_radius
        grid = np.geomspace(core + 0.1 * max(1.0, core), max(1e3, 1e3 * core), 200)
        assert np.all(sphere_data(metric, grid).scalar == -6.0)

    def test_domain_violations_raise(self, ads_one):
        with pytest.raises(ValueError):
            sphere_data(ads_one, 1.0)
        with pytest.raises(ValueError):
            sphere_data(ads_one, math.inf)


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

    def test_hyperbolic_gap_is_plus_zero(self, hyperbolic):
        # A first panel within the tolerance returns the sum the
        # refinement loop would form, 0 + value, so never -0.0.
        value = coordinate_gap(hyperbolic, 1.0).value
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

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

    @pytest.mark.parametrize("m", [1e100, 1e300])
    def test_gap_tail_finite_at_a_huge_core(self, m):
        # G(2 core) depends on s / core alone once the core is large.  The
        # element formed sqrt(f) sqrt(q) (sqrt(f) + sqrt(q)) ~ s^3, which
        # overflowed past s ~ 1e102 (m = 1e300 raised a RuntimeWarning);
        # 0.021883829562129007 is its value at m = 1e100.
        metric = make_ads_schwarzschild(m)
        got = coordinate_gap(metric, 2.0 * metric.core_radius).value
        assert got == pytest.approx(0.021883829562129007, rel=2e-15, abs=0.0)

    def test_below_image_raises(self, ads_one):
        horizon_rho = math.asinh(1.0) - coordinate_gap(ads_one, 1.0).value
        with pytest.raises(ValueError):
            s_from_rho(ads_one, horizon_rho - 0.5)

    @pytest.mark.parametrize("rho", [350.0, 700.0, 710.4, 711.0, 1e308, math.inf, math.nan])
    def test_rho_past_sinh_overflow_raises(self, ads_one, rho):
        # The first tail starts at sinh(rho); past rho = asinh(1e151) its
        # GK15 nodes near 234 sinh(rho) overflow the gap element, and
        # sinh itself overflows above 710.47.
        with pytest.raises(ValueError, match="rho must be finite and <= 348.38"):
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

    def test_perturbed_decay_estimate(self):
        metric = make_perturbed(1.0, (0.1,))
        report = validate_ah(metric)
        assert report.is_ah

    @pytest.mark.parametrize(
        "coeffs, exponent",
        [((1e-14,), 2.0), ((0.0, 1e-14), 3.0), ((1e-16,), 2.0)],
    )
    def test_tiny_perturbation_beside_a_mass(self, coeffs, exponent):
        # The record keeps the tail however small it is beside the mass
        # term: its first nonzero c_k sits at k = exponent.
        metric = make_perturbed(1.0, coeffs)
        assert validate_ah(metric).is_ah
        assert next(k for k, c in enumerate(metric.coeffs, start=2) if c) == exponent

    @pytest.mark.parametrize(
        "coeffs", [(1.0, -2.0, 4.0), (1.3, -2.9, 5.6), (1.0, -2.5, 5.0)]
    )
    def test_bent_tail_with_positive_excess_is_accepted(self, coeffs):
        # With x = 1/s, R + 6 = s^-4 (2 c2 + 4 c3 x + 6 c4 x^2) and the
        # perturbation is s^-2 (c2 + c3 x + c4 x^2).  Both quadratics have
        # negative discriminants, so both are positive for every s.  A
        # log-log fit over the grid's tail read their bend as decay slower
        # than s^-2 (1.971 for the first) and rejected them.
        c2, c3, c4 = coeffs
        assert 16.0 * c3**2 < 48.0 * c2 * c4 and c3**2 < 4.0 * c2 * c4
        report = validate_ah(make_perturbed(0.1, coeffs))
        assert report.is_ah, report.messages
        assert report.min_scalar_curvature_excess > 0.0

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        log_c2=st.floats(-2.0, 2.0),
        log_ratio=st.floats(-1.0, 2.0),
        r=st.floats(0.3, 0.99),
        mass=st.floats(0.0, 1.0),
    )
    def test_every_positive_excess_tail_is_accepted(self, log_c2, log_ratio, r, mass):
        # c3^2 = 3 r^2 c2 c4 < 3 c2 c4 puts R + 6 > 0 at every s (see the
        # test above), whatever the mass.
        c2 = 10.0**log_c2
        c4 = c2 * 10.0**log_ratio
        c3 = -r * math.sqrt(3.0 * c2 * c4)
        report = validate_ah(make_perturbed(mass, (c2, c3, c4)))
        assert report.is_ah, report.messages

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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        lo=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
        decades=st.floats(1e-9, 12.0),
        n=st.integers(1, 500),
    )
    def test_geomspace_is_numpys_bit_for_bit(self, lo, decades, n):
        hi = lo * 10.0**decades
        assume(lo < hi < math.inf)
        got, want = _geomspace(lo, hi, n), np.geomspace(lo, hi, n)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_default_grid_shape(self, ads_one):
        grid = default_grid(ads_one)
        assert grid.shape == (50,)
        assert grid[0] == pytest.approx(ads_one.core_radius + 0.1)
        assert grid[-1] == pytest.approx(1e3)


class TestGapSweep:
    @pytest.mark.parametrize(
        "metric",
        [
            make_hyperbolic(),
            make_ads_schwarzschild(1.0),
            make_perturbed(0.5, (0.2,)),
            make_ads_schwarzschild(1e300),
        ],
        ids=["hyperbolic", "ads_m1", "pert_m0.5", "ads_m1e300"],
    )
    def test_matches_pointwise_gap_in_any_order(self, metric):
        # Unsorted, repeated, on the core, and on both sides of the split
        # core + max(1, core) of coordinate_gap's head and tail.  On
        # ads m = 1e300 the offsets vanish beside the core.
        core = metric.core_radius
        sc = max(1.0, core)
        pts = np.array([core + 3.0, core, core + 1e-6, 1e4 * sc, core + 0.5, core + 3.0, core + 1.0])
        gap, bound = gap_over_grid(metric, pts)
        for x, g, b in zip(pts.tolist(), gap, bound):
            res = coordinate_gap(metric, x)
            assert abs(g - res.value) <= b + res.error_bound
            assert b <= 1e-13
        assert gap[0] == gap[5]

    @pytest.mark.parametrize(
        "metric",
        [make_ads_schwarzschild(1.0), make_perturbed(1.0, (0.1, 0.05)), make_ads_schwarzschild(1e30)],
        ids=["ads_m1", "pert_m1", "ads_m1e30"],
    )
    @pytest.mark.parametrize("ratio", [1e10, 1e100])
    def test_wide_gap_matches_pointwise_gap(self, metric, ratio):
        # One panel in s from core + 0.1 max(1, core) to ratio * max(1, core)
        # has no node where the m / u^4 integrand lives: its Gauss and
        # Kronrod sums agree on a wrong value (0.238 off on ads m = 1 at
        # 1e10, and G = 0 with bound 0 at 1e100).  In u = 1/s above the
        # split the integrand is ~m u^2.
        sc = max(1.0, metric.core_radius)
        lo = metric.core_radius + 0.1 * sc
        gap, bound = gap_over_grid(metric, [lo, ratio * sc])
        res = coordinate_gap(metric, lo)
        assert abs(gap[0] - res.value) <= bound[0] + res.error_bound
        assert bound[0] <= 1e-13

    @pytest.mark.parametrize(
        "points, panel_calls",
        [([1.2, 1.5, 3.0, 10.0, 1e3], 2), ([1.2, 1.5], 2), ([3.0, 1e80], 1)],
        ids=["both-sides", "head-only", "tail-only"],
    )
    def test_no_tail_integral_and_at_most_two_panel_calls(self, ads_one, monkeypatch, points, panel_calls):
        # Panels below the split core + 1 = 2 take one panel call and
        # those above it (the last running to u = 0) another; no point
        # takes a coordinate_gap integral.
        import ahiso.models

        calls = []
        for name in ("_panels", "coordinate_gap"):
            fn = getattr(ahiso.models, name)

            def counted(*args, _fn=fn, _name=name):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(ahiso.models, name, counted)
        gap_over_grid(ads_one, points)
        assert calls == ["_panels"] * panel_calls

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_single_point_matches_coordinate_gap(self, ads_one, s):
        # Below, on and above the split core + 1 = 2.
        gap, bound = gap_over_grid(ads_one, [s])
        res = coordinate_gap(ads_one, s)
        assert abs(gap[0] - res.value) <= bound[0] + res.error_bound
        assert bound[0] <= 1e-13

    def test_domain_checked(self, ads_one):
        for bad in ([0.5, 2.0], [2.0, math.nan], [], [[2.0]]):
            with pytest.raises(ValueError):
                gap_over_grid(ads_one, bad)
