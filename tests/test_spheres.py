"""Per-sphere geometry: curvatures, Hawking mass, stability, Gauss-Bonnet."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahiso.models import make_ads_schwarzschild, make_perturbed, s_from_rho
from ahiso.spheres import (
    gauss_bonnet_total,
    hawking_mass,
    jacobi_spectrum,
    sphere_data,
    sphere_data_from_profile,
    stability_total,
)

FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi


class TestSphereData:
    def test_flat_profile_unit_sphere(self):
        # f = 1 is the Euclidean chart: H = 2, so the mass formula
        # collapses to sqrt(area)/(16 pi)^{1/2} / 2 = s/2.
        geom = sphere_data_from_profile(1.0, 1.0, 0.0)
        assert geom.mean_curvature == 2.0
        assert geom.hawking_mass == pytest.approx(0.5, abs=1e-15)
        assert geom.scalar == 0.0

    def test_hyperbolic_sphere(self, hyperbolic):
        s = math.sinh(1.0)
        geom = sphere_data(hyperbolic, s)
        assert geom.mean_curvature == pytest.approx(
            2.0 / math.tanh(1.0), abs=1e-12
        )
        assert geom.ricci_normal == pytest.approx(-2.0, abs=1e-12)
        assert geom.hawking_mass == 0.0
        assert geom.traceless_norm_sq == 0.0

    def test_ads_sphere_at_twice_horizon(self, ads_one):
        geom = sphere_data(ads_one, 2.0)
        assert geom.area == pytest.approx(16.0 * math.pi, abs=1e-12)
        assert geom.mean_curvature == pytest.approx(2.0, abs=1e-14)
        assert geom.scalar == pytest.approx(-6.0, abs=1e-12)
        assert geom.hawking_mass == pytest.approx(1.0, abs=1e-13)

    def test_mean_curvature_limit(self, ads_one):
        assert abs(sphere_data(ads_one, 1e6).mean_curvature - 2.0) <= 1e-11

    def test_umbilic_identity(self, ads_one):
        geom = sphere_data(ads_one, 3.0)
        assert geom.second_fund_norm_sq == pytest.approx(
            0.5 * geom.mean_curvature**2, abs=1e-15
        )

    def test_inside_core_rejected(self, ads_one):
        with pytest.raises(ValueError):
            sphere_data(ads_one, 0.5)
        with pytest.raises(ValueError):
            sphere_data(ads_one, ads_one.core_radius)

    def test_bad_profile_samples_rejected(self):
        with pytest.raises(ValueError):
            sphere_data_from_profile(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            sphere_data_from_profile(1.0, -1.0, 0.0)


class TestGaussEquation:
    @pytest.mark.parametrize("s", [0.5, 2.0, 30.0])
    def test_residual_vanishes_hyperbolic(self, hyperbolic, s):
        assert abs(sphere_data(hyperbolic, s).gauss_equation_residual()) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(m=st.floats(0.1, 3.0), frac=st.floats(0.0, 1.0))
    def test_residual_vanishes_in_family(self, m, frac):
        metric = make_ads_schwarzschild(m)
        s = metric.core_radius + 0.1 + frac * 50.0
        assert abs(sphere_data(metric, s).gauss_equation_residual()) <= 1e-12


class TestHawkingMass:
    def test_stored_field_is_exact_at_large_radius(self, ads_one):
        assert abs(sphere_data(ads_one, 1e3).hawking_mass - 1.0) <= 1e-9

    def test_defining_formula_rounds_at_large_radius(self, ads_one):
        # The literal formula forms H^2 - 4 (total cancellation as H -> 2)
        # and then multiplies by area ~ 1e7.  It stays within 2e-7 here,
        # which is exactly why sphere_data stores the deficit-based value.
        literal = hawking_mass(sphere_data(ads_one, 1e3))
        assert abs(literal - 1.0) <= 2e-7

    def test_two_routes_agree_at_moderate_radius(self, ads_one):
        geom = sphere_data(ads_one, 2.0)
        assert hawking_mass(geom) == pytest.approx(geom.hawking_mass, abs=1e-12)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("rho", [6.0, 8.0])
    def test_large_radius_expansion(self, m, rho):
        # In the geodesic coordinate H = 2/tanh(rho) - 2m/sinh(rho)^3 up
        # to terms decaying faster than sinh^{-3}.
        metric = make_ads_schwarzschild(m)
        s = s_from_rho(metric, rho)
        h = sphere_data(metric, s).mean_curvature
        predicted = 2.0 / math.tanh(rho) - 2.0 * m / math.sinh(rho) ** 3
        assert abs(h - predicted) <= 1e-8

    def test_monotone_along_radius_when_valid(self, perturbed_valid):
        # R >= -6 forces the mass to grow outward (here visible in closed
        # form: 1 - 0.05/s - 0.025/s^2).
        grid = np.geomspace(1.2, 1e3, 40)
        masses = [sphere_data(perturbed_valid, float(s)).hawking_mass for s in grid]
        assert all(b > a for a, b in zip(masses, masses[1:]))

    def test_decreases_somewhere_when_floor_violated(self):
        metric = make_perturbed(0.0, (-0.05, 0.01))
        grid = np.geomspace(0.5, 50.0, 40)
        masses = [sphere_data(metric, float(s)).hawking_mass for s in grid]
        assert any(b < a for a, b in zip(masses, masses[1:]))


class TestStability:
    @pytest.mark.parametrize("s", [0.7, 5.0, 1e3, 1e6])
    def test_hyperbolic_total_is_eight_pi(self, hyperbolic, s):
        assert abs(stability_total(hyperbolic, s) - EIGHT_PI) <= 1e-12

    @pytest.mark.parametrize("s", [1.5, 2.0, 10.0, 200.0])
    def test_ads_closed_form(self, ads_one, s):
        want = EIGHT_PI - 24.0 * math.pi * ads_one.mass / s
        assert stability_total(ads_one, s) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_upper_bound_on_grid(self, m):
        metric = make_ads_schwarzschild(m)
        for s in np.geomspace(metric.core_radius + 0.1, 1e3, 50):
            assert stability_total(metric, float(s)) <= 12.0 * math.pi + 1e-6

    def test_total_approaches_eight_pi(self, ads_two):
        # Closed form 8 pi - 24 pi m / s: the defect at s = 1e9 is 1.5e-7.
        assert stability_total(ads_two, 1e9) == pytest.approx(
            EIGHT_PI, abs=1e-6
        )

    def test_perturbed_bound(self, perturbed_valid):
        for s in np.geomspace(1.2, 1e3, 50):
            assert stability_total(perturbed_valid, float(s)) <= 12.0 * math.pi + 1e-6


class TestJacobiSpectrum:
    def test_hyperbolic_first_mode_is_exactly_zero(self, hyperbolic):
        for s in (0.5, 3.0, 100.0):
            spec = dict(jacobi_spectrum(hyperbolic, s, l_max=2))
            assert spec[1] == 0.0
            assert spec[0] == pytest.approx(-2.0 / s**2, rel=1e-15)
            assert spec[2] == pytest.approx(4.0 / s**2, rel=1e-15)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_ads_low_modes_nonnegative(self, m):
        metric = make_ads_schwarzschild(m)
        for s in np.geomspace(metric.core_radius + 0.1, 1e3, 30):
            for l, lam in jacobi_spectrum(metric, float(s), l_max=3):
                if l >= 1:
                    assert lam >= -1e-10

    def test_ads_first_mode_closed_form(self, ads_one):
        # lambda_1 = 2/s^2 - density = 6m/s^3.
        s = 2.0
        spec = dict(jacobi_spectrum(ads_one, s, l_max=1))
        assert spec[1] == pytest.approx(6.0 * ads_one.mass / s**3, rel=1e-12)

    def test_l_max_zero_allowed(self, ads_one):
        spec = jacobi_spectrum(ads_one, 2.0, l_max=0)
        assert len(spec) == 1
        assert spec[0][0] == 0

    def test_negative_l_max_rejected(self, ads_one):
        with pytest.raises(ValueError):
            jacobi_spectrum(ads_one, 2.0, l_max=-1)


class TestGaussBonnet:
    @pytest.mark.parametrize("s", [0.3, 2.0, 1e3, 1e6])
    def test_total_curvature(self, hyperbolic, s):
        assert abs(gauss_bonnet_total(hyperbolic, s) - FOUR_PI) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(m=st.floats(0.1, 3.0), frac=st.floats(0.0, 1.0))
    def test_total_curvature_in_family(self, m, frac):
        metric = make_ads_schwarzschild(m)
        s = metric.core_radius + 0.1 + frac * 1e3
        assert abs(gauss_bonnet_total(metric, s) - FOUR_PI) <= 1e-12
