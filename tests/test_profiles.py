"""Volumes, isoperimetric profiles, renormalized volume, and the profile
gap table."""

import math

import numpy as np
import pytest

from ahiso.imcf import flow_spheres
from ahiso.models import make_ads_schwarzschild, make_perturbed
from ahiso.profiles import (
    cumulative_volume_over_grid,
    gap_table,
    hyperbolic_profile,
    hyperbolic_volume,
    model_profile,
    model_radius_for_volume,
    model_volume,
    model_volume_quad,
    profile_monotone_check,
    renormalized_volume,
)
from ahiso.spheres import sphere_data

FOUR_PI = 4.0 * math.pi

# V for masses 0.5 / 1 / 2 at truncation 20, frozen from two independent
# quadrature routes that agreed to ~2e-11.
FROZEN_RENORM = {0.5: 6.4779818527, 1.0: 10.5797970598, 2.0: 16.2424827218}

# (gap + 2V) sqrt(v) tends to this constant times the mass.
SCALED_GAP_CONSTANT = 8.0 * math.sqrt(2.0) * math.pi**1.5


class TestHyperbolicClosedForms:
    def test_volume_antiderivative(self):
        for rho in (0.3, 1.0, 2.0, 5.0):
            want = math.pi * math.sinh(2.0 * rho) - 2.0 * math.pi * rho
            assert hyperbolic_volume(rho) == pytest.approx(want, rel=1e-12)

    def test_volume_at_zero(self):
        assert hyperbolic_volume(0.0) == 0.0

    def test_small_radius_is_euclidean(self):
        rho = 1e-3
        euclid = (FOUR_PI / 3.0) * rho**3
        assert hyperbolic_volume(rho) / euclid == pytest.approx(1.0, abs=1e-5)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            hyperbolic_volume(-0.1)

    def test_profile_inverts_the_volume(self):
        v = hyperbolic_volume(1.0)
        assert hyperbolic_profile(v) == pytest.approx(
            FOUR_PI * math.sinh(1.0) ** 2, rel=1e-9
        )

    def test_profile_euclidean_limit(self):
        v = 1e-9
        euclid = (36.0 * math.pi) ** (1.0 / 3.0) * v ** (2.0 / 3.0)
        assert hyperbolic_profile(v) / euclid == pytest.approx(1.0, abs=1e-4)

    def test_profile_linear_growth(self):
        # A_H(v) = 2v + O(log v) at large volume.
        assert abs(hyperbolic_profile(1e8) / 1e8 - 2.0) <= 1e-5

    def test_profile_rejects_nonpositive_volume(self):
        with pytest.raises(ValueError):
            hyperbolic_profile(0.0)
        with pytest.raises(ValueError):
            hyperbolic_profile(-1.0)


class TestModelVolume:
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0, 5.0])
    def test_hyperbolic_model_matches_closed_form(self, hyperbolic, rho):
        got = model_volume(hyperbolic, math.sinh(rho))
        assert got == pytest.approx(hyperbolic_volume(rho), rel=1e-9)

    def test_error_bound_dominates(self, hyperbolic):
        res = model_volume_quad(hyperbolic, math.sinh(2.0))
        assert abs(res.value - hyperbolic_volume(2.0)) <= res.error_bound + 1e-12
        assert res.evaluations >= 15

    def test_volume_vanishes_at_the_core(self, ads_one):
        assert model_volume(ads_one, ads_one.core_radius) == 0.0

    def test_inside_core_rejected(self, ads_one):
        with pytest.raises(ValueError):
            model_volume(ads_one, 0.5)

    @pytest.mark.parametrize("s", [1.5, 3.0, 10.0])
    def test_radius_volume_round_trip(self, ads_one, s):
        v = model_volume(ads_one, s)
        assert model_radius_for_volume(ads_one, v) == pytest.approx(s, rel=1e-9)

    def test_profile_derivative_is_mean_curvature(self, ads_one):
        # dA/dv along centered spheres is H: dA/ds = 8 pi s and
        # dv/ds = 4 pi s^2 / sqrt(f).
        v = 50.0
        h = 1e-4 * v
        fd = (model_profile(ads_one, v + h) - model_profile(ads_one, v - h)) / (
            2.0 * h
        )
        s_v = model_radius_for_volume(ads_one, v)
        want = sphere_data(ads_one, s_v).mean_curvature
        assert fd == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("name", ["hyperbolic", "ads_one", "perturbed_valid"])
    def test_profile_monotone(self, request, name):
        metric = request.getfixturevalue(name)
        grid = np.geomspace(0.5, 1e4, 25)
        assert profile_monotone_check(metric, grid)

    def test_nonpositive_volume_rejected(self, ads_one):
        with pytest.raises(ValueError):
            model_radius_for_volume(ads_one, 0.0)


class TestCumulativeVolume:
    def test_matches_pointwise_quadrature(self, ads_one):
        grid = np.geomspace(1.5, 200.0, 400)
        cum, err = cumulative_volume_over_grid(ads_one, grid)
        base = model_volume(ads_one, 1.5)
        for k in (0, 57, 199, 399):
            want = model_volume(ads_one, float(grid[k])) - base
            assert cum[k] == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert 0.0 <= err < 1e-3

    @pytest.mark.parametrize("dt", [1e-3, 1e-2])
    def test_error_bound_holds_on_flow_radii(self, hyperbolic, dt):
        # Hyperbolic volume inside area-radius s: 2 pi (s sqrt(1+s^2) - asinh s).
        s = np.array([f.s for f in flow_spheres(hyperbolic, 2.0, 8.0, dt)])
        cum, err = cumulative_volume_over_grid(hyperbolic, s)
        vol = 2.0 * math.pi * (s * np.sqrt(1.0 + s * s) - np.arcsinh(s))
        assert np.max(np.abs(cum - (vol - vol[0]))) <= err

    def test_grid_validation(self, ads_one):
        with pytest.raises(ValueError):
            cumulative_volume_over_grid(ads_one, np.array([2.0]))
        with pytest.raises(ValueError):
            cumulative_volume_over_grid(ads_one, np.array([2.0, 1.5]))
        with pytest.raises(ValueError):
            cumulative_volume_over_grid(ads_one, np.array([0.5, 2.0]))


class TestRenormalizedVolume:
    def test_hyperbolic_vanishes(self, hyperbolic):
        res = renormalized_volume(hyperbolic)
        assert abs(res.value) <= 1e-12
        assert res.tail_estimate == 0.0

    @pytest.mark.parametrize("m", sorted(FROZEN_RENORM))
    def test_frozen_values(self, m):
        metric = make_ads_schwarzschild(m)
        assert renormalized_volume(metric).value == pytest.approx(
            FROZEN_RENORM[m], abs=1e-8
        )

    def test_ordering_in_mass(self, ads_half, ads_one, ads_two):
        v_half = renormalized_volume(ads_half).value
        v_one = renormalized_volume(ads_one).value
        v_two = renormalized_volume(ads_two).value
        assert 0.0 < v_half < v_one < v_two

    def test_truncation_stability(self, ads_one):
        r15 = renormalized_volume(ads_one, truncation_rho=15.0)
        r30 = renormalized_volume(ads_one, truncation_rho=30.0)
        assert abs(r30.value - r15.value) <= r15.tail_estimate + 1e-8

    def test_tail_coefficient(self, ads_one):
        # Truncating at rho leaves 8 pi m / (3 sinh rho) uncollected:
        # the residual between two truncations matches it to 1e-4.
        r12 = renormalized_volume(ads_one, truncation_rho=12.0)
        r30 = renormalized_volume(ads_one, truncation_rho=30.0)
        tail = 8.0 * math.pi / (3.0 * math.sinh(12.0))
        assert abs(r12.value - r30.value + tail) <= 1e-4
        assert r12.tail_estimate == pytest.approx(tail, rel=1e-12)

    def test_quad_error_is_small_and_reported(self, ads_one):
        res = renormalized_volume(ads_one)
        assert 0.0 <= res.quad_error <= 1e-8
        assert res.truncation_rho == 20.0

    def test_truncation_with_dominant_tail_rejected(self, ads_one):
        with pytest.raises(ValueError, match="tail estimate"):
            renormalized_volume(ads_one, truncation_rho=2.0)

    def test_truncation_inside_inner_boundary_rejected(self, ads_one):
        # The horizon sits at rho ~ 0.57 for unit mass.
        with pytest.raises(ValueError, match="inner"):
            renormalized_volume(ads_one, truncation_rho=0.3)

    def test_nonfinite_truncation_rejected(self, ads_one):
        with pytest.raises(ValueError):
            renormalized_volume(ads_one, truncation_rho=math.inf)


class TestGapTable:
    def test_hyperbolic_gap_is_numerical_zero(self, hyperbolic):
        rows = gap_table(hyperbolic, np.geomspace(1.0, 1e6, 12))
        for row in rows:
            assert abs(row.gap) <= 1e-8 * max(1.0, row.A_H)

    def test_gap_approaches_minus_twice_renorm_volume(self, ads_one):
        row = gap_table(ads_one, np.array([1e6]))[0]
        target = -2.0 * renormalized_volume(ads_one).value
        assert row.gap == pytest.approx(target, rel=0.02)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_scaled_gap_constant(self, m):
        metric = make_ads_schwarzschild(m)
        row = gap_table(metric, np.array([1e6]))[0]
        assert row.scaled_gap / m == pytest.approx(
            SCALED_GAP_CONSTANT, rel=5e-3
        )

    def test_scaled_gap_converges_along_dyadic_grid(self, ads_one):
        grid = 1e6 * 4.0 ** -np.arange(3, -1, -1)
        rows = gap_table(ads_one, grid)
        scaled = np.array([r.scaled_gap for r in rows])
        steps = np.abs(np.diff(scaled))
        assert np.all(np.diff(steps) < 0.0)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_gap_negative_at_large_volume(self, m):
        metric = make_ads_schwarzschild(m)
        rows = gap_table(metric, np.geomspace(14.0, 1e6, 20))
        assert all(row.gap < 0.0 for row in rows)

    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_gap_positive_at_small_volume(self, m):
        # Centered spheres cannot shrink below the core area 4 pi c^2,
        # while A_H(v) -> 0, so the gap changes sign at small volume.
        metric = make_ads_schwarzschild(m)
        row = gap_table(metric, np.array([1.0]))[0]
        assert row.A_g > FOUR_PI * metric.core_radius**2 - 1e-12
        assert row.gap > 0.0

    def test_grid_validation(self, ads_one):
        with pytest.raises(ValueError):
            gap_table(ads_one, np.array([]))
        with pytest.raises(ValueError):
            gap_table(ads_one, np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            gap_table(ads_one, np.array([-1.0, 2.0]))

    def test_invalid_model_rejected(self):
        metric = make_perturbed(0.0, (-0.05, 0.01))
        with pytest.raises(ValueError, match="AH validation"):
            gap_table(metric, np.array([1.0, 10.0]))

    def test_row_fields_are_consistent(self, ads_one):
        renorm = renormalized_volume(ads_one).value
        row = gap_table(ads_one, np.array([100.0]))[0]
        assert row.gap == row.A_g - row.A_H
        assert row.scaled_gap == pytest.approx(
            (row.gap + 2.0 * renorm) * math.sqrt(row.v), rel=1e-9
        )
