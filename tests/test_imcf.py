"""Expanding flow of centered spheres and the area comparison curve."""

import math

import numpy as np
import pytest

from ahiso.imcf import (
    ComparisonCurve,
    Flow,
    comparison_ode,
    flow_spheres,
    lipschitz_check,
)
from ahiso.models import RadialMetric
from ahiso.numerics import NumericsError, solve_ode
from ahiso.profiles import hyperbolic_profile, model_volume


class TestFlow:
    def test_hyperbolic_exponential_law(self, hyperbolic):
        flow = flow_spheres(hyperbolic, 1.0, 2.0, 0.1)
        assert flow.t[-1] == 2.0
        # ds/dt = sqrt(f)/H = s/2 for every model in the family.
        assert flow.s[-1] == pytest.approx(math.e, rel=1e-9)
        assert flow.area[-1] == pytest.approx(4.0 * math.pi * math.e**2, rel=1e-9)

    @pytest.mark.parametrize("name", ["hyperbolic", "ads_one"])
    def test_area_grows_exactly_exponentially(self, request, name):
        metric = request.getfixturevalue(name)
        s0 = metric.core_radius + 1.0
        flow = flow_spheres(metric, s0, 10.0, 1e-2)
        ts, areas = flow.t, flow.area
        rel = np.abs(areas / areas[0] - np.exp(ts))
        assert float(np.max(rel / np.exp(ts))) <= 1e-7

    def test_hawking_mass_constant_on_ads(self, ads_one):
        flow = flow_spheres(ads_one, 2.0, 5.0, 0.05)
        assert np.all(np.abs(flow.hawking - 1.0) <= 1e-12)

    def test_hawking_mass_nondecreasing_on_perturbed(self, perturbed_valid):
        flow = flow_spheres(perturbed_valid, 1.5, 8.0, 0.05)
        assert np.all(np.diff(flow.hawking) >= -1e-8)

    def test_volumes_track_the_static_measure(self, ads_one):
        flow = flow_spheres(ads_one, 2.0, 4.0, 0.5)
        step = flow.s.size // 4
        for s, vol in zip(flow.s[::step].tolist(), flow.enclosed_volume[::step].tolist()):
            assert vol == pytest.approx(model_volume(ads_one, s), rel=1e-9)

    def test_initial_sample_carries_core_volume(self, ads_one):
        flow = flow_spheres(ads_one, 3.0, 1.0, 0.5)
        assert flow.t[0] == 0.0
        assert flow.s[0] == 3.0
        assert flow.enclosed_volume[0] == pytest.approx(
            model_volume(ads_one, 3.0), rel=1e-10
        )

    def test_final_time_always_sampled(self, hyperbolic):
        flow = flow_spheres(hyperbolic, 1.0, 1.0, 0.3)
        assert flow.t[-1] == 1.0

    def test_column_shape_mismatch_rejected(self):
        col = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            Flow(t=col, s=col, area=col, enclosed_volume=col[:1], hawking=col)

    def test_input_validation(self, ads_one):
        with pytest.raises(ValueError):
            flow_spheres(ads_one, 0.5, 1.0, 0.1)
        with pytest.raises(ValueError):
            flow_spheres(ads_one, 2.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            flow_spheres(ads_one, 2.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            flow_spheres(ads_one, 2.0, 1.0, 2.0)

    @pytest.mark.parametrize("t_max, dt", [(math.inf, 0.5), (1e308, 0.5), (math.inf, math.inf)])
    def test_sample_count_must_be_finite(self, ads_one, t_max, dt):
        with pytest.raises(ValueError, match="t_max / dt"):
            flow_spheres(ads_one, 2.0, t_max, dt)

    def test_ode_never_evaluates_the_metric(self, perturbed_valid, monkeypatch):
        # ds/dt = sqrt(f) / H = s / 2: the metric enters only the volumes
        # and Hawking masses, after the ODE.
        calls = {"inside": False, "f": 0}
        f = RadialMetric.f

        def counting_f(metric, s):
            calls["f"] += calls["inside"]
            return f(metric, s)

        def flagged_solve_ode(*args, **kwargs):
            calls["inside"] = True
            try:
                return solve_ode(*args, **kwargs)
            finally:
                calls["inside"] = False

        monkeypatch.setattr(RadialMetric, "f", counting_f)
        monkeypatch.setattr("ahiso.imcf.solve_ode", flagged_solve_ode)
        flow = flow_spheres(perturbed_valid, 1.5, 4.0, 0.01)
        assert calls["f"] == 0
        assert flow.s[-1] == pytest.approx(1.5 * math.e**2, rel=1e-9)

    def test_step_count_independent_of_sampling(self, ads_one, monkeypatch):
        # The sampling interval sets output points, not steps: the solver
        # fills samples from its continuous extension.
        solutions = []

        def recording_solve_ode(*args, **kwargs):
            sol = solve_ode(*args, **kwargs)
            solutions.append(sol)
            return sol

        monkeypatch.setattr("ahiso.imcf.solve_ode", recording_solve_ode)
        flow_spheres(ads_one, 2.0, 10.0, 1e-3)
        flow_spheres(ads_one, 2.0, 10.0, 1e-2)
        fine, coarse = solutions
        assert fine.xs.size == 10_001 and coarse.xs.size == 1_001
        assert fine.n_steps == coarse.n_steps
        assert fine.n_steps < 1_000


class TestLipschitzBound:
    def test_equality_case_leaves_only_noise(self, hyperbolic):
        flow = flow_spheres(hyperbolic, 1.0, 5.0, 0.01)
        assert lipschitz_check(hyperbolic, flow) <= 1e-8

    @pytest.mark.parametrize("name", ["ads_one", "perturbed_valid"])
    def test_bound_holds_in_family(self, request, name):
        metric = request.getfixturevalue(name)
        flow = flow_spheres(metric, metric.core_radius + 1.0, 5.0, 0.01)
        assert lipschitz_check(metric, flow) <= 1e-6

    def test_needs_three_samples(self, hyperbolic):
        flow = flow_spheres(hyperbolic, 1.0, 1.0, 0.5)
        short = Flow(**{k: v[:2] for k, v in vars(flow).items()})
        with pytest.raises(ValueError):
            lipschitz_check(hyperbolic, short)


class TestComparisonOde:
    def test_zero_floor_reproduces_hyperbolic_profile(self):
        v0, v_end = 1.0, 1e4
        curve = comparison_ode(hyperbolic_profile(v0), 0.0, v0, v_end)
        want = np.array([hyperbolic_profile(float(v)) for v in curve.v_grid])
        rel = np.abs(curve.B_values - want) / want
        assert float(np.max(rel)) <= 1e-6
        assert np.all(curve.B_values <= curve.hyperbolic_values + 1e-6)

    @pytest.mark.parametrize("v_end", [3e5, 1e6, 1e7])
    def test_zero_floor_tracks_profile_at_large_volume(self, v_end):
        # B reaches ~2 v_end; its absolute error must stay well below the
        # 1e-6 fault check.
        curve = comparison_ode(hyperbolic_profile(1.0), 0.0, 1.0, v_end)
        excess = curve.B_values - curve.hyperbolic_values
        assert float(np.max(np.abs(excess))) <= 2e-7

    def test_positive_floor_stays_strictly_below(self):
        v0 = 5.0
        curve = comparison_ode(hyperbolic_profile(v0), 1.0, v0, 1e4)
        assert curve.B_values[0] == hyperbolic_profile(v0)
        assert np.all(curve.B_values[1:] < curve.hyperbolic_values[1:])

    @pytest.mark.parametrize("v_end", [1e5, 1e7])
    def test_floor_near_its_limit_over_long_span(self, v_end):
        # The floor is close to the largest A_H(5) allows (1.37), so the
        # curve starts near the horizon of the AdS-Schwarzschild slice.
        curve = comparison_ode(hyperbolic_profile(5.0), 1.0, 5.0, v_end)
        assert np.all(curve.B_values[1:] < curve.hyperbolic_values[1:])

    def test_cubed_area_gap_is_monotone(self):
        # omega = B^{3/2} - A_H^{3/2} cannot increase once a positive
        # floor is switched on.
        curve = comparison_ode(hyperbolic_profile(5.0), 1.0, 5.0, 1e4)
        omega = curve.B_values**1.5 - curve.hyperbolic_values**1.5
        assert np.all(np.diff(omega) <= 1e-9)

    def test_cubed_area_ode_by_finite_differences(self):
        # With zero floor, d(B^{3/2})/dv = 3 sqrt(4 pi + B).
        v0, v_end, n = 10.0, 100.0, 4001
        curve = comparison_ode(
            hyperbolic_profile(v0), 0.0, v0, v_end, n_grid=n
        )
        # geomspace grid: interpolate onto a uniform one for the stencil.
        vs = np.linspace(v0, v_end, n)
        b = np.interp(vs, curve.v_grid, curve.B_values)
        f = b**1.5
        h = vs[1] - vs[0]
        fd = (f[2:] - f[:-2]) / (2.0 * h)
        want = 3.0 * np.sqrt(4.0 * math.pi + b[1:-1])
        assert float(np.max(np.abs(fd / want - 1.0))) <= 1e-5

    def test_euclidean_limit_at_small_volume(self):
        v0, v_end = 1e-6, 1e-5
        curve = comparison_ode(hyperbolic_profile(v0), 0.0, v0, v_end)
        euclid = (36.0 * math.pi) ** (1.0 / 3.0) * curve.v_grid ** (2.0 / 3.0)
        rel = np.abs(curve.B_values / euclid - 1.0)
        assert float(np.max(rel)) <= 1e-4

    def test_infeasible_floor_raises_with_location(self):
        with pytest.raises(ValueError, match="radicand negative"):
            comparison_ode(hyperbolic_profile(1.0), 1.0, 1.0, 100.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            comparison_ode(-1.0, 0.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            comparison_ode(10.0, -0.5, 1.0, 10.0)
        with pytest.raises(ValueError):
            comparison_ode(10.0, 0.0, 5.0, 5.0)
        with pytest.raises(ValueError):
            comparison_ode(10.0, 0.0, 1.0, 10.0, n_grid=1)
        with pytest.raises(ValueError):
            comparison_ode(10.0, 0.0, 1.0, math.inf)
        with pytest.raises(ValueError):
            comparison_ode(10.0, 0.0, math.nan, 10.0)

    def test_no_ode_is_integrated(self, monkeypatch):
        calls = []

        def counting_solve_ode(*args, **kwargs):
            calls.append(args)
            return solve_ode(*args, **kwargs)

        monkeypatch.setattr("ahiso.imcf.solve_ode", counting_solve_ode)
        comparison_ode(hyperbolic_profile(1.0), 0.0, 1.0, 1e4)
        comparison_ode(hyperbolic_profile(5.0), 1.0, 5.0, 1e4)
        assert calls == []

    def test_horizon_start_rises(self, ads_one):
        # B0 is the horizon area, where the radicand vanishes: B = B0 is a
        # stationary solution of the ODE, but the comparison curve is the
        # AdS-Schwarzschild profile, which leaves the horizon at once.
        b0 = 4.0 * math.pi * ads_one.core_radius ** 2
        curve = comparison_ode(b0, 1.0, 0.0, 1e3, n_grid=50)
        assert curve.B_values[0] == b0
        assert np.all(np.diff(curve.B_values) > 0.0)

    def test_areas_past_the_float_range_fail(self):
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="not finite"):
            comparison_ode(hyperbolic_profile(1.0), 0.0, 1.0, 1e308)

    def test_curve_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ComparisonCurve(
                v_grid=np.array([1.0, 2.0]),
                B_values=np.array([1.0]),
                hyperbolic_values=np.array([1.0, 2.0]),
                mass_floor=0.0,
            )


class TestFlowDomainExit:
    def test_flow_sample_fields_are_frozen(self, hyperbolic):
        flow = flow_spheres(hyperbolic, 1.0, 1.0, 0.5)
        assert isinstance(flow, Flow)
        with pytest.raises(AttributeError):
            flow.s = np.array([2.0, 2.0, 2.0])

    def test_mass_floor_error_names_failing_volume(self):
        with pytest.raises(ValueError) as err:
            comparison_ode(hyperbolic_profile(1.0), 1.0, 1.0, 100.0)
        assert "v = " in str(err.value)
        assert "mass floor" in str(err.value)
