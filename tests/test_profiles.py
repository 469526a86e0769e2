"""Volumes, isoperimetric profiles, renormalized volume, and the profile
gap table."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ahiso.numerics
from ahiso.imcf import flow_spheres
from ahiso.models import (
    _gap_moment,
    coordinate_gap,
    gap_over_grid,
    make_ads_schwarzschild,
    make_hyperbolic,
    make_perturbed,
    s_from_rho,
    validate_ah,
)
from ahiso.numerics import NumericsError, find_root, integrate, solve_increasing
from ahiso.profiles import (
    _ball_volume,
    _hyperbolic_volume_over_s,
    _renormalized_limit,
    cumulative_volume_over_grid,
    gap_table,
    hyperbolic_profile,
    model_radius_for_volume,
    model_volume,
    model_volume_quad,
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
            assert _ball_volume(math.sinh(rho)) == pytest.approx(want, rel=1e-12)

    def test_volume_at_zero(self):
        assert _ball_volume(0.0) == 0.0

    def test_small_radius_is_euclidean(self):
        rho = 1e-3
        euclid = (FOUR_PI / 3.0) * rho**3
        assert _ball_volume(math.sinh(rho)) / euclid == pytest.approx(1.0, abs=1e-5)

    def test_profile_inverts_the_volume(self):
        v = _ball_volume(math.sinh(1.0))
        assert hyperbolic_profile(v) == pytest.approx(
            FOUR_PI * math.sinh(1.0) ** 2, rel=1e-9
        )

    def test_profile_euclidean_limit(self):
        v = 1e-9
        euclid = (36.0 * math.pi) ** (1.0 / 3.0) * v ** (2.0 / 3.0)
        assert hyperbolic_profile(v) / euclid == pytest.approx(1.0, abs=1e-4)

    def test_profile_linear_growth(self):
        # A_H(v) = 2v + O(log v) at large volume.  From v ~ 1e250 up, a
        # search on the closed-form volume raised OverflowError in sinh.
        for v in (1e8, 1e300):
            assert abs(hyperbolic_profile(v) / v - 2.0) <= 1e-5

    def test_profile_rejects_nonpositive_volume(self):
        with pytest.raises(ValueError):
            hyperbolic_profile(0.0)
        with pytest.raises(ValueError):
            hyperbolic_profile(-1.0)

    @pytest.mark.parametrize("v", [-5e-324, math.nan, math.inf, -math.inf])
    def test_profile_rejects_nonfinite_volume_alone_or_in_a_batch(self, v):
        with pytest.raises(ValueError):
            hyperbolic_profile(v)
        with pytest.raises(ValueError):
            hyperbolic_profile(np.array([1.0, v]))

    @pytest.mark.parametrize("v", [5e-324, 1e-310, 1e-300])
    def test_profile_at_subnormal_and_tiny_volume(self, v):
        # Here A_H is the Euclidean (36 pi v^2)^{1/3} to ~v^{2/3} relative.
        # Formed from v / s and V_H(s) / s, the Newton step stays normal;
        # 3 v / 4 pi itself underflows to 0 at v = 5e-324.
        want = np.cbrt(36.0 * math.pi) * np.cbrt(v) ** 2
        assert abs(hyperbolic_profile(v) - want) <= 1e-15 * want

    def test_profile_near_the_float_maximum(self):
        # A_H(8e307) ~ 1.6e308 is finite and comes back; from v ~ 8.99e307
        # on, A_H exceeds the float range and raises instead of giving inf.
        assert abs(hyperbolic_profile(8e307) / 8e307 - 2.0) <= 1e-5
        for v in (9e307, 1.7e308, np.finfo(float).max):
            with pytest.raises(NumericsError, match="not finite"):
                hyperbolic_profile(v)
        with pytest.raises(NumericsError, match="v = 1.7e"):
            hyperbolic_profile(np.array([1.0, 1.7e308, 2.0]))

    def test_profile_is_independent_of_the_batch(self):
        # Each volume's A_H is bitwise the same alone, in a batch and in a
        # shuffled batch.  The quadrature inversion moved 96 of these 200
        # volumes by an ulp between the batch and single calls.
        vols = np.concatenate([np.geomspace(5.0, 1e6, 200), np.geomspace(1e-30, 5.0, 40)])
        batch = hyperbolic_profile(vols)
        alone = np.array([hyperbolic_profile(v) for v in vols.tolist()])
        order = np.random.default_rng(7).permutation(vols.size)
        assert np.array_equal(batch, alone)
        assert np.array_equal(hyperbolic_profile(vols[order]), batch[order])


def _newton_rounds(monkeypatch, v):
    """The radii of each Newton round of one hyperbolic_profile(v) call.

    Every round evaluates V_H(s) / s once, on the rows still moving, so
    the first entry is the start.
    """
    rounds = []

    def recording(s, q):
        rounds.append(s.copy())
        return _hyperbolic_volume_over_s(s, q)

    monkeypatch.setattr(ahiso.profiles, "_hyperbolic_volume_over_s", recording)
    hyperbolic_profile(v)
    return rounds


def _volume_exceeds(s, v):
    """Whether V_H(s) >= v, exactly for float s and v: with x = 2 asinh s,
    V_H = pi (sinh x - x), at enough digits to outlast the cancellation."""
    digits = 40 + 3 * max(0, -math.floor(math.log10(s)))
    with mpmath.workdps(digits):
        x = 2 * mpmath.asinh(mpmath.mpf(s))
        return mpmath.pi * (mpmath.sinh(x) - x) >= mpmath.mpf(v)


class TestHyperbolicProfileStart:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(math.log(5e-324), math.log(8e307)))
    def test_start_is_a_tight_upper_bound(self, log_v):
        # Log-uniform volumes over the whole range.  The start lies at or
        # above the root, and within 1% of it: the earlier start lay up
        # to 32% above it for v < 10 and 12% at subnormal v.
        v = min(max(math.exp(log_v), 5e-324), 8e307)
        with pytest.MonkeyPatch.context() as mp:
            start = float(_newton_rounds(mp, v)[0][0])
        assert _volume_exceeds(start, v)
        assert not _volume_exceeds(start / 1.01, v)

    @pytest.mark.parametrize("v_max", [1e4, 1e5, 1e6])
    def test_workload_grids_take_at_most_three_rounds(self, monkeypatch, v_max):
        # The profile grids geomspace(1, v_max, n) and the expansion grids
        # v_max 4^-k took 6 and up to 5 rounds from the earlier start.
        for n in (20, 40, 60):
            assert len(_newton_rounds(monkeypatch, np.geomspace(1.0, v_max, n))) <= 3
        for n in (4, 8):
            grid = np.ldexp(v_max, -2 * np.arange(n - 1, -1, -1))
            assert len(_newton_rounds(monkeypatch, grid)) <= 3

    @pytest.mark.parametrize("v", [5e-324, 8e307])
    def test_range_ends_take_one_round(self, monkeypatch, v):
        # The earlier start took 5 rounds at 5e-324 and 1 at 8e307.
        assert len(_newton_rounds(monkeypatch, v)) == 1


class TestModelVolume:
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0, 5.0])
    def test_hyperbolic_model_matches_closed_form(self, hyperbolic, rho):
        got = model_volume(hyperbolic, math.sinh(rho))
        assert got == pytest.approx(_ball_volume(math.sinh(rho)), rel=1e-9)

    def test_error_bound_dominates(self, hyperbolic):
        res = model_volume_quad(hyperbolic, math.sinh(2.0))
        assert abs(res.value - _ball_volume(math.sinh(2.0))) <= res.error_bound + 1e-12
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
        s_plus = model_radius_for_volume(ads_one, v + h)
        s_minus = model_radius_for_volume(ads_one, v - h)
        fd = FOUR_PI * (s_plus**2 - s_minus**2) / (2.0 * h)
        s_v = model_radius_for_volume(ads_one, v)
        want = sphere_data(ads_one, s_v).mean_curvature
        assert fd == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("name", ["hyperbolic", "ads_one", "perturbed_valid"])
    def test_profile_monotone(self, request, name):
        metric = request.getfixturevalue(name)
        grid = np.geomspace(0.5, 1e4, 25)
        assert np.all(np.diff(gap_table(metric, grid).A_g) >= 0.0)

    def test_nonpositive_volume_rejected(self, ads_one):
        with pytest.raises(ValueError):
            model_radius_for_volume(ads_one, 0.0)
        with pytest.raises(ValueError):
            model_radius_for_volume(ads_one, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("name", ["hyperbolic", "ads_one", "perturbed_valid"])
    def test_volumes_in_any_order_match_one_at_a_time(self, request, name):
        # Together the rows bracket one another, so the iterates differ;
        # each row still stops within its own tolerance of the root.
        metric = request.getfixturevalue(name)
        vols = np.array([3e4, 0.2, 1e11, 7.0, 1e-9, 1e12, 250.0, 7.5, 1e8])
        together = model_radius_for_volume(metric, vols)
        alone = np.array([model_radius_for_volume(metric, v) for v in vols.tolist()])
        assert together.shape == vols.shape
        assert np.all(np.abs(together - alone) <= 4e-16 * alone)
        assert isinstance(model_radius_for_volume(metric, 7.0), float)


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
        s = flow_spheres(hyperbolic, 2.0, 8.0, dt).s
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

    @pytest.mark.parametrize(
        "grid",
        [[1.0], [[1.0, 2.0]], [1.0, 1.0], [2.0, 1.0], [1.0, math.inf], [math.nan, 2.0]],
    )
    def test_malformed_grid_rejected(self, hyperbolic, grid):
        # Every grid is checked before any panel: an infinite top or a nan
        # start raise ValueError, not a quadrature failure.
        with pytest.raises(ValueError, match="s_grid must"):
            cumulative_volume_over_grid(hyperbolic, grid)


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
        # The horizon sits at rho ~ 0.57 for unit mass; s(rho) rejects it.
        with pytest.raises(ValueError, match="below the image"):
            renormalized_volume(ads_one, truncation_rho=0.3)

    @pytest.mark.parametrize("rho", [math.inf, 0.0, -0.0, -0.1])
    def test_truncation_outside_zero_to_inf_rejected(self, rho):
        # The tail 8 pi m / (3 sinh rho) divided by zero at rho = +-0, and
        # at -0.1 it was negative, so the 10% rule let it through.
        with pytest.raises(ValueError, match="truncation_rho must be finite and > 0"):
            renormalized_volume(make_perturbed(0.5, (0.2,)), truncation_rho=rho)

    def test_hyperbolic_limit_is_exactly_zero(self, hyperbolic):
        assert _renormalized_limit(hyperbolic).value == 0.0

    def test_hyperbolic_renormalized_volume_is_plus_zero(self, hyperbolic):
        value = renormalized_volume(hyperbolic).value
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("rho", [12.0, 20.0])
    @pytest.mark.parametrize(
        "metric",
        [
            make_ads_schwarzschild(0.5),
            make_ads_schwarzschild(1.0),
            make_ads_schwarzschild(2.0),
            make_perturbed(1.0, (0.1, 0.05)),
            make_perturbed(0.5, (0.2,)),
        ],
        ids=["ads_m0.5", "ads_m1", "ads_m2", "pert_m1", "pert_m0.5"],
    )
    def test_limit_exceeds_truncated_value_by_the_tail(self, metric, rho):
        # K takes W(core) alone; V(rho_T) adds W(s_T), the shell of width
        # G(s_T) and the s(rho) inversion.  Their difference is the tail
        # 8 pi m / (3 sinh rho_T) up to O(1 / sinh^2): 9.2e-7 of it at
        # worst at rho_T = 12.
        res = renormalized_volume(metric, rho)
        miss = abs(_renormalized_limit(metric).value - res.value - res.tail_estimate)
        assert miss <= 1e-5 * res.tail_estimate + res.quad_error


class TestGapTable:
    def test_hyperbolic_gap_is_numerical_zero(self, hyperbolic):
        table = gap_table(hyperbolic, np.geomspace(1.0, 1e6, 12))
        assert np.all(np.abs(table.gap) <= 1e-8 * np.maximum(1.0, table.A_H))

    def test_gap_approaches_minus_twice_renorm_volume(self, ads_one):
        gap = gap_table(ads_one, np.array([1e6])).gap[0]
        target = -2.0 * renormalized_volume(ads_one).value
        assert gap == pytest.approx(target, rel=0.02)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_scaled_gap_constant(self, m):
        metric = make_ads_schwarzschild(m)
        scaled_gap = gap_table(metric, np.array([1e6])).scaled_gap[0]
        assert scaled_gap / m == pytest.approx(
            SCALED_GAP_CONSTANT, rel=5e-3
        )

    def test_scaled_gap_converges_along_dyadic_grid(self, ads_one):
        grid = 1e6 * 4.0 ** -np.arange(3, -1, -1)
        scaled = gap_table(ads_one, grid).scaled_gap
        steps = np.abs(np.diff(scaled))
        assert np.all(np.diff(steps) < 0.0)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_gap_negative_at_large_volume(self, m):
        metric = make_ads_schwarzschild(m)
        table = gap_table(metric, np.geomspace(14.0, 1e6, 20))
        assert np.all(table.gap < 0.0)

    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_gap_positive_at_small_volume(self, m):
        # Centered spheres cannot shrink below the core area 4 pi c^2,
        # while A_H(v) -> 0, so the gap changes sign at small volume.
        metric = make_ads_schwarzschild(m)
        table = gap_table(metric, np.array([1.0]))
        assert table.A_g[0] > FOUR_PI * metric.core_radius**2 - 1e-12
        assert table.gap[0] > 0.0

    def test_grid_validation(self, ads_one):
        with pytest.raises(ValueError):
            gap_table(ads_one, np.array([]))
        with pytest.raises(ValueError):
            gap_table(ads_one, np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            gap_table(ads_one, np.array([-1.0, 2.0]))

    def test_overflowing_scaled_gap_names_v(self, ads_one):
        # At v = 1e300 the gap's rounding (~1e284) times sqrt(v) = 1e150
        # overflows: the table is refused by name, with no overflow warning.
        with pytest.raises(NumericsError, match=r"scaled_gap not finite for v = 1e\+300"):
            gap_table(ads_one, np.geomspace(1.0, 1e300, 3))

    def test_invalid_model_rejected(self):
        metric = make_perturbed(0.0, (-0.05, 0.01))
        with pytest.raises(ValueError, match="AH validation"):
            gap_table(metric, np.array([1.0, 10.0]))

    def test_row_fields_are_consistent(self, ads_one):
        limit = _renormalized_limit(ads_one).value
        table = gap_table(ads_one, np.array([100.0]))
        assert table.gap[0] == table.A_g[0] - table.A_H[0]
        assert table.scaled_gap[0] == pytest.approx(
            (table.gap[0] + 2.0 * limit) * math.sqrt(table.v[0]), rel=1e-9
        )


class TestRootFindingWork:
    def test_gap_table_probes_per_root(self, monkeypatch):
        # Brent once made one hyperbolic radius root per row, 16,072 probes
        # in a traced profile pass; both profiles now come from Newton.
        calls = []

        def counting_find_root(*args, **kwargs):
            calls.append(1)
            return find_root(*args, **kwargs)

        metric = make_ads_schwarzschild(1.0)
        for target in ("ahiso.numerics.find_root", "ahiso.models.find_root"):
            monkeypatch.setattr(target, counting_find_root)
        # profiles no longer imports it; a root search put back there counts.
        monkeypatch.setattr("ahiso.profiles.find_root", counting_find_root, raising=False)
        gap_table(metric, np.geomspace(1.0, 1e6, 60))
        assert not calls


class TestNewtonInversionWork:
    def test_gap_table_rounds_and_integrals(self, monkeypatch):
        # Brent over adaptive volume segments made 14,099 integrate calls
        # in a traced profile pass; Newton from the rungs took three or
        # four panel rounds, and from the interpolated starts it takes none.
        newton_panels, integrals, panel_calls = [], [], []

        def counting_integrate(*args, **kwargs):
            integrals.append(1)
            return integrate(*args, **kwargs)

        def counting_panels(*args, **kwargs):
            panel_calls.append(1)
            return panels(*args, **kwargs)

        def counting_solve(*args, **kwargs):
            before = len(panel_calls)
            out = solve_increasing(*args, **kwargs)
            newton_panels.append(len(panel_calls) - before)
            return out

        panels = ahiso.numerics._panels
        monkeypatch.setattr("ahiso.numerics._panels", counting_panels)
        # profiles takes every volume from _panels and imports no integrate.
        for module in ("numerics", "models"):
            monkeypatch.setattr(f"ahiso.{module}.integrate", counting_integrate)
        monkeypatch.setattr("ahiso.profiles.solve_increasing", counting_solve)
        gap_table(make_ads_schwarzschild(1.0), np.geomspace(1.0, 1e6, 60))
        # One inversion for A_g; A_H comes from the closed-form volume.
        assert newton_panels == [0]
        # The three adaptive integrals are K's W(core).
        assert len(integrals) <= 3

    @staticmethod
    def _tagged_calls(monkeypatch, metric, vols, start=None):
        """Each element call of one inversion, tagged by the kernel making it:
        the sweep's or the start's panel call in profiles, or a Newton
        round's in numerics; plus the number of rounds, the rows' starts and
        the radii.  ``start``, if given, replaces the interpolated start."""
        calls, stage, rounds, starts = [], ["outside"], [], []
        element = ahiso.profiles._volume_element

        def counting_element(*args):
            fn = element(*args)

            def counted(t):
                calls.append((stage[0], np.array(t, dtype=float).reshape(-1)))
                return fn(t)

            return counted

        def tagged(name, fn):
            def wrapper(*args, **kwargs):
                # profiles makes the sweep's call, which keeps the node
                # values, and the start panel's.
                if name == "profiles":
                    stage[0] = "sweep" if kwargs.get("nodes") else "start"
                else:
                    stage[0] = name
                    rounds.append(1)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stage[0] = "outside"

            return wrapper

        def spying_solve(density, target, t, *rest):
            starts.append(np.array(t))
            return solve_increasing(density, target, t, *rest)

        monkeypatch.setattr("ahiso.profiles._volume_element", counting_element)
        monkeypatch.setattr("ahiso.profiles._panels", tagged("profiles", ahiso.profiles._panels))
        monkeypatch.setattr("ahiso.numerics._panels", tagged("round", ahiso.numerics._panels))
        monkeypatch.setattr("ahiso.profiles.solve_increasing", spying_solve)
        if start is not None:
            monkeypatch.setattr("ahiso.profiles._interpolant_root", start)
        radii = model_radius_for_volume(metric, vols)
        return calls, len(rounds), starts, radii

    def test_inversion_calls_the_volume_element_three_times(self, monkeypatch):
        # The near-core guess of v = 1 (one scalar call), the sweep, which
        # also keeps its node values, and the start panel, which gives every
        # row's volume and slope at its interpolated start.  Newton from the
        # rungs added one call per round, 3 or 4 of them (7 calls at most).
        calls, rounds, _, _ = self._tagged_calls(
            monkeypatch, make_ads_schwarzschild(1.0), np.geomspace(1.0, 1e6, 60)
        )
        assert [kind for kind, _ in calls] == ["outside", "sweep", "start"]
        assert rounds == 0

    @pytest.mark.parametrize(
        "metric",
        [make_ads_schwarzschild(1.0), make_perturbed(1.0, (0.1, 0.05)), make_hyperbolic()],
        ids=["ads_m1", "pert_m1", "hyperbolic"],
    )
    @pytest.mark.parametrize(
        "vols", [np.geomspace(1.0, 1e6, 40), np.array([1e11])], ids=["grid", "far"]
    )
    def test_one_element_call_for_the_sweep_and_one_for_the_starts(
        self, monkeypatch, metric, vols
    ):
        # Outside the kernels only the near-core guess v / element(0) of a
        # volume whose guess lies at or below a positive core calls the
        # element, once, at t = 0.  The starts come from the sweep's node
        # values, so the start panel is the last call, and t = 0 is
        # evaluated by no kernel, since no row starts there.
        calls, rounds, starts, _ = self._tagged_calls(monkeypatch, metric, vols)
        kinds = [kind for kind, _ in calls]
        assert kinds.count("sweep") == kinds.count("start") == 1
        assert kinds[-1] == "start"
        assert rounds == 0
        outside = [t.tolist() for kind, t in calls if kind == "outside"]
        v = float(vols.min())
        low = metric.core_radius >= max(np.cbrt(0.75 * v / math.pi), math.sqrt(v / 2 / math.pi))
        assert outside == ([[0.0]] if low else [])
        assert len(calls) == 2 + len(outside)
        (t0,) = starts
        assert (t0 > 0.0).all()
        assert not any((t == 0.0).any() for kind, t in calls if kind != "outside")

    @pytest.mark.parametrize(
        "metric",
        [
            make_ads_schwarzschild(0.5),
            make_ads_schwarzschild(1.0),
            make_ads_schwarzschild(3.0),
            make_hyperbolic(),
            make_perturbed(1.0, (0.1, 0.05)),
            make_perturbed(0.5, (0.2,)),
            make_perturbed(0.0, (0.0, 0.5)),
            make_perturbed(0.0, (0.3,)),
            make_ads_schwarzschild(1e-3),
            make_ads_schwarzschild(1e3),
        ],
        ids=[
            "ads_m0.5", "ads_m1", "ads_m3", "hyperbolic", "pert_m1", "pert_m0.5",
            "zero_core_s4", "zero_core_s3", "ads_m1e-3", "ads_m1e3",
        ],
    )
    @pytest.mark.parametrize(
        "vols",
        [np.geomspace(1.0, 1e6, 60), np.geomspace(1e-30, 1e12, 43), np.array([7.3])],
        ids=["stock", "wide", "one"],
    )
    def test_no_row_takes_a_newton_round(self, monkeypatch, metric, vols):
        # Every interpolated start is within the Newton test's 1e-10 of its
        # root, so solve_increasing applies the start panel's step and stops.
        _, rounds, _, radii = self._tagged_calls(monkeypatch, metric, vols)
        assert rounds == 0
        # Near a positive core the smallest radii round to the core itself.
        assert np.all(np.diff(radii) >= 0.0)

    @pytest.mark.parametrize(
        "metric",
        [make_ads_schwarzschild(1.0), make_perturbed(0.0, (0.3,)), make_hyperbolic()],
        ids=["ads_m1", "zero_core_s3", "hyperbolic"],
    )
    def test_a_start_at_the_rung_converges_to_the_same_radii(self, monkeypatch, metric):
        # solve_increasing stays the safeguard: from the lower rung of each
        # bracket (x = -1) it takes Newton rounds to the same radii, within
        # an ulp of the chart coordinate.  Through s = core + w^2 that is up
        # to 3 ulp of s (6.2e-16 relative at s = 68.9 on ads m = 1), and
        # both answers are within 3.3e-16 of the 40-digit root there.
        vols = np.geomspace(1.0, 1e6, 60)
        _, none, _, radii = self._tagged_calls(monkeypatch, metric, vols)
        monkeypatch.undo()
        _, rounds, (t0,), moved = self._tagged_calls(
            monkeypatch, metric, vols, start=lambda fv, y: np.full(y.size, -1.0)
        )
        assert none == 0 and rounds >= 2
        assert np.all(np.abs(moved - radii) <= 4.0 * np.spacing(radii))

    def test_widest_inversion_keeps_the_ladder_node_values_only(self):
        # The sweep keeps 15 node values per rung for the starts: 9,995
        # rungs (1.1 MiB) from a volume of 1e-300 to one of 1e300 on ads
        # m = 1, which peaked at 2.39 MiB (1.58 MiB with no values kept).
        metric = make_ads_schwarzschild(1.0)
        vols = np.array([1e-300, 1e300])
        model_radius_for_volume(metric, vols)
        tracemalloc.start()
        try:
            model_radius_for_volume(metric, vols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * 2**20

    def test_gap_table_takes_one_deficit_integral(self, monkeypatch):
        # The truncated V cost three coordinate_gap tails, an s(rho)
        # inversion and two W integrals per table; the limit K needs only
        # W(core).
        forbidden, moments = [], []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                forbidden.append(name)
                return fn(*args, **kwargs)

            return wrapper

        def counting_moment(*args, **kwargs):
            moments.append(args[1:3])
            return _gap_moment(*args, **kwargs)

        for name, fn in (
            ("renormalized_volume", renormalized_volume),
            ("s_from_rho", s_from_rho),
            ("coordinate_gap", coordinate_gap),
        ):
            for module in ("models", "profiles"):
                monkeypatch.setattr(f"ahiso.{module}.{name}", counting(name, fn), raising=False)
        for module in ("models", "profiles"):
            monkeypatch.setattr(f"ahiso.{module}._gap_moment", counting_moment)
        metric = make_ads_schwarzschild(1.0)
        gap_table(metric, np.geomspace(1.0, 1e6, 60))
        assert not forbidden
        assert moments == [(metric.core_radius, 2)]

    def test_hyperbolic_profile_makes_no_quadrature(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("quadrature called")

        for name in ("integrate", "_panels", "solve_increasing"):
            monkeypatch.setattr(f"ahiso.numerics.{name}", forbidden)
            monkeypatch.setattr(f"ahiso.profiles.{name}", forbidden, raising=False)
        hyperbolic_profile(np.geomspace(1e-30, 1e30, 61))
        hyperbolic_profile(1.0)

    @staticmethod
    def _gap_points(monkeypatch, metric):
        """Points of every coordinate_gap call one renormalized_volume makes."""
        calls = []

        def counting_gap(*args, **kwargs):
            calls.append(args[1])
            return coordinate_gap(*args, **kwargs)

        for target in ("ahiso.models.coordinate_gap", "ahiso.profiles.coordinate_gap"):
            monkeypatch.setattr(target, counting_gap)
        renormalized_volume(metric)
        return calls

    def test_renormalized_volume_gap_integrals(self, monkeypatch):
        # Brent on rho(s) took one adaptive gap integral per probe: 9 per V.
        assert len(self._gap_points(monkeypatch, make_ads_schwarzschild(1.0))) <= 4

    def test_renormalized_volume_below_rho_zero_reuses_the_core_gap(self, monkeypatch):
        # rho < 0 at the core.  No G(core) is taken: s(rho) rejects a rho
        # below the image of the domain, and K takes W(core) alone (6
        # calls per V when rho_low's G(core) was integrated twice, 1 when
        # it was checked once).
        metric = make_perturbed(0.5, (0.2,))
        calls = self._gap_points(monkeypatch, metric)
        assert calls.count(metric.core_radius) == 0
        assert len(calls) <= 5


@st.composite
def _valid_perturbed_models(draw):
    """Seeded random perturbed models that pass validate_ah."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mass = float(rng.uniform(0.05, 3.0))
    coeffs = rng.uniform(-0.3, 0.3, size=int(rng.integers(0, 4))) * mass
    try:
        metric = make_perturbed(mass, coeffs.tolist())
    except ValueError:
        metric = None
    assume(metric is not None and validate_ah(metric).is_ah)
    return metric


class TestProperties:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(metric=_valid_perturbed_models())
    def test_profile_increasing_and_renormalized_volume_nonnegative(self, metric):
        # Both are claimed for every valid model of mass > 0 (these have
        # mass >= 0.05): A_g = 4 pi s_v^2 with s_v increasing in v, and
        # V >= 0.  Without mass V can be negative (test_oracles).
        table = gap_table(metric, np.geomspace(1e-3, 1e6, 40))
        assert np.all(np.diff(table.A_g) > 0.0)
        assert renormalized_volume(metric).value >= 0.0


class TestRenormalizedVolumeWork:
    @pytest.mark.parametrize("m", [0.5, 1.0, 3.0])
    def test_one_gap_sweep_per_round(self, monkeypatch, m):
        # One adaptive gap integral per outer quadrature node made 68 for
        # unit mass; now the inner boundary, the s(rho) inversion and one
        # sweep per refinement round remain.
        calls = []

        def counting_gap(*args, **kwargs):
            calls.append(args[1])
            return coordinate_gap(*args, **kwargs)

        for target in ("ahiso.models.coordinate_gap", "ahiso.profiles.coordinate_gap"):
            monkeypatch.setattr(target, counting_gap)
        renormalized_volume(make_ads_schwarzschild(m))
        assert len(calls) <= 12

    @pytest.mark.parametrize(
        "metric",
        [make_ads_schwarzschild(1.0), make_perturbed(0.5, (0.2,))],
        ids=["ads_m1", "pert_m0.5"],
    )
    def test_three_gap_integrals_and_no_sweep(self, monkeypatch, metric):
        # The outer mesh took one gap_over_grid sweep per refinement round
        # (1 and 3 here) and 3 and 5 gap integrals.  The volume deficit
        # needs G only at the s(rho) start and at s_T; the G(core) that
        # checked rho_T against the inner boundary is gone.
        gaps, sweeps = [], []

        def counting_gap(*args, **kwargs):
            gaps.append(args[1])
            return coordinate_gap(*args, **kwargs)

        def counting_sweep(*args, **kwargs):
            sweeps.append(1)
            return gap_over_grid(*args, **kwargs)

        for module in ("models", "profiles"):
            monkeypatch.setattr(f"ahiso.{module}.coordinate_gap", counting_gap)
            # profiles no longer imports it; a sweep put back there counts.
            monkeypatch.setattr(f"ahiso.{module}.gap_over_grid", counting_sweep, raising=False)
        renormalized_volume(metric)
        assert not sweeps
        assert len(gaps) == 2
        assert metric.core_radius not in gaps
