"""Kernel tests: quadrature, ODE stepping, root finding.

Expected values here are closed forms or were computed independently
(antiderivatives evaluated by hand or with mpmath at high precision),
never copied from the implementation's own output.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ahiso.numerics import (
    NumericsError,
    QuadResult,
    _gk15,
    find_root,
    gk15_panels,
    integrate,
    solve_ode,
)


def test_integrate_cubic_exact():
    res = integrate(lambda u: 3.0 * u * u, 0.0, 1.0)
    assert abs(res.value - 1.0) <= 1e-12
    assert abs(res.value - 1.0) <= res.error_bound + 1e-15
    assert res.evaluations >= 1


def test_integrate_sinh_squared_matches_antiderivative():
    # integral_0^1 sinh^2 = 1/2 sinh^2(1) + 1/4 - 1/2 - 1/4 e^{-2}
    truth = 0.5 * math.sinh(1.0) ** 2 + 0.25 - 0.5 - 0.25 * math.exp(-2.0)
    res = integrate(lambda u: np.sinh(u) ** 2, 0.0, 1.0)
    assert abs(res.value - truth) <= 1e-12
    assert abs(truth - 0.4067151) <= 5e-8
    assert abs(res.value - truth) <= res.error_bound + 1e-15


def test_integrate_infinite_tail():
    res = integrate(lambda u: u**-3.0, 2.0, math.inf)
    assert abs(res.value - 0.125) <= 1e-12
    assert abs(res.value - 0.125) <= res.error_bound + 1e-16


def test_integrate_sqrt_singularity():
    res = integrate(lambda u: 1.0 / np.sqrt(u), 0.0, 1.0, abs_tol=1e-10)
    assert abs(res.value - 2.0) <= 1e-9
    assert abs(res.value - 2.0) <= res.error_bound + 1e-12


def test_integrate_constant_over_sphere_angle():
    # A surface integral of a constant over a round sphere reduces to
    # c * int_0^pi sin(theta) dtheta = 2c.
    for c in (1.0, -0.37, 4.0 * math.pi * 20.0**2):
        res = integrate(lambda t: c * np.sin(t), 0.0, math.pi)
        assert abs(res.value - 2.0 * c) <= res.error_bound


def test_integrate_empty_interval():
    res = integrate(lambda u: u, 3.0, 3.0)
    assert res == QuadResult(0.0, 0.0, 0)


def test_integrate_rejects_reversed_interval():
    with pytest.raises(ValueError):
        integrate(lambda u: u, 1.0, 0.0)


def test_integrate_infinite_tail_needs_positive_start():
    with pytest.raises((ValueError, NumericsError)):
        integrate(lambda u: np.exp(-u), 0.0, math.inf)


def test_integrate_nonfinite_integrand_raises():
    with np.errstate(divide="ignore", over="ignore"), pytest.raises(NumericsError):
        integrate(lambda u: 1.0 / u, 0.0, 1.0)


def test_integrate_budget_exhaustion_raises():
    with pytest.raises(NumericsError):
        integrate(
            lambda u: 1.0 / np.sqrt(np.abs(u)),
            0.0,
            1.0,
            abs_tol=1e-300,
            rel_tol=1e-300,
            max_evals=500,
        )


@pytest.mark.parametrize(
    "fn, edges",
    [
        (
            lambda u: 4.0 * math.pi * u * u / np.sqrt(1.0 + u * u),
            np.geomspace(0.5, 300.0, 60),
        ),
        (lambda u: np.sqrt(u), np.linspace(0.0, 1.0, 40)),
        (lambda u: np.exp(-u) * np.cos(7.0 * u), np.linspace(0.0, 9.0, 40)),
    ],
)
def test_gk15_panels_agree_with_scalar_panel(fn, edges):
    # Value exactly; the error to a few ulp, since numpy's power and
    # libm's round the ** 1.5 of the error rescaling differently.
    for lo, hi in zip(edges[:-1], edges[1:]):
        vals, errs = gk15_panels(fn, [lo, hi])
        val, err, _ = _gk15(fn, lo, hi)
        assert vals[0] == val
        assert abs(errs[0] - err) <= 4.0 * np.spacing(err)


@pytest.mark.parametrize(
    "edges",
    [[1.0], [[0.0, 1.0]], [0.0, 0.0], [1.0, 0.0], [0.0, math.inf], [math.nan, 1.0]],
)
def test_gk15_panels_rejects_malformed_edges(edges):
    with pytest.raises(ValueError):
        gk15_panels(lambda u: u, edges)


def test_gk15_panels_nonfinite_integrand_names_x():
    # The middle node of [0, 1] is 0.5.
    with np.errstate(divide="ignore"), pytest.raises(NumericsError, match="x=0.5"):
        gk15_panels(lambda u: 1.0 / (u - 0.5), [0.0, 1.0])


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.tuples(
        st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)
    ),
    b=st.floats(0.1, 4.0),
)
def test_integrate_polynomials_to_error_bound(coeffs, b):
    c0, c1, c2, c3 = coeffs

    def fn(u):
        return c0 + u * (c1 + u * (c2 + u * c3))

    truth = c0 * b + c1 * b**2 / 2 + c2 * b**3 / 3 + c3 * b**4 / 4
    res = integrate(fn, 0.0, b, abs_tol=1e-11)
    assert abs(res.value - truth) <= res.error_bound + 1e-10


def test_solve_ode_exponential():
    sol = solve_ode(lambda x, y: y, 1.0, 0.0, 1.0, rel_tol=1e-9)
    assert abs(sol.ys[-1] - math.e) <= 1e-9
    assert sol.n_steps >= 1
    assert sol.rhs_evaluations >= 6 * sol.n_steps


def test_solve_ode_half_rate_growth():
    # The radius law of the sphere flow: y' = y/2 from s0.
    s0 = 1.7
    sol = solve_ode(lambda x, y: 0.5 * y, s0, 0.0, 2.0, rel_tol=1e-10)
    assert abs(sol.ys[-1] - s0 * math.e) <= 1e-9 * s0 * math.e


def _hyperbolic_ball_volume(rho: float) -> float:
    return 4.0 * math.pi * (
        0.5 * math.sinh(rho) ** 2 + 0.25 - 0.5 * rho - 0.25 * math.exp(-2.0 * rho)
    )


def test_solve_ode_profile_cube_law():
    # y' = 3 sqrt(4 pi + y^(2/3)) carries A_H^(3/2) along the volume axis.
    def rhs(v, y):
        return 3.0 * math.sqrt(4.0 * math.pi + y ** (2.0 / 3.0))

    v0 = _hyperbolic_ball_volume(1.0)
    v1 = _hyperbolic_ball_volume(3.0)
    y0 = (4.0 * math.pi * math.sinh(1.0) ** 2) ** 1.5
    truth = (4.0 * math.pi * math.sinh(3.0) ** 2) ** 1.5
    sol = solve_ode(rhs, y0, v0, v1, rel_tol=1e-11)
    assert abs(sol.ys[-1] - truth) <= 1e-8 * truth


def test_solve_ode_x_eval_hits_requested_points():
    xs = np.array([0.0, 0.25, 0.5, 1.0])
    sol = solve_ode(lambda x, y: y, 1.0, 0.0, 1.0, rel_tol=1e-10, x_eval=xs)
    assert np.array_equal(sol.xs, xs)
    assert np.max(np.abs(sol.ys - np.exp(xs))) <= 1e-9


def test_solve_ode_halving_tolerance_halves_error():
    # Checked in the asymptotic window where the controller's error is
    # tolerance-dominated; at coarse tolerances the first accepted steps
    # can leave the ratio above 1/2.
    problems = [
        (lambda x, y: y, 1.0, 0.0, 1.0, math.e),
        (lambda x, y: 0.5 * y, 2.0, 0.0, 2.0, 2.0 * math.e),
        (
            lambda v, y: 3.0 * math.sqrt(4.0 * math.pi + y ** (2.0 / 3.0)),
            (4.0 * math.pi * math.sinh(1.0) ** 2) ** 1.5,
            _hyperbolic_ball_volume(1.0),
            _hyperbolic_ball_volume(3.0),
            (4.0 * math.pi * math.sinh(3.0) ** 2) ** 1.5,
        ),
    ]
    for rhs, y0, x0, x1, truth in problems:
        errs = []
        for k in range(10):
            tol = 1e-8 * 2.0**-k
            sol = solve_ode(rhs, y0, x0, x1, rel_tol=tol, abs_tol=0.0)
            errs.append(abs(sol.ys[-1] - truth))
        for e1, e2 in zip(errs, errs[1:]):
            # 5e-15 * truth is the float floor; below it halving is moot.
            assert e2 <= 0.5 * e1 or e2 <= 5e-15 * truth


def test_solve_ode_dense_output_costs_no_extra_steps():
    # Output points are filled from each step's continuous extension, so
    # the step sequence is the same however many points are requested.
    sparse = solve_ode(
        lambda x, y: y, 1.0, 0.0, 1.0, rel_tol=1e-10,
        x_eval=np.array([0.0, 0.5, 1.0]),
    )
    xs = np.linspace(0.0, 1.0, 10_001)
    dense = solve_ode(lambda x, y: y, 1.0, 0.0, 1.0, rel_tol=1e-10, x_eval=xs)
    assert dense.n_steps == sparse.n_steps
    assert dense.n_rejected == sparse.n_rejected
    assert dense.rhs_evaluations == sparse.rhs_evaluations
    assert np.array_equal(dense.xs, xs)
    assert np.max(np.abs(dense.ys - np.exp(xs))) <= 1e-9


def test_solve_ode_fsal_rhs_accounting():
    # One start-up call, then six per attempted step: the last stage of an
    # accepted step is reused as the first stage of the next.
    def rhs(x, y):
        return math.cos(x) * y

    for x_eval in (None, np.linspace(0.0, 6.0, 7)):
        sol = solve_ode(rhs, 1.0, 0.0, 6.0, rel_tol=1e-9, x_eval=x_eval)
        assert sol.rhs_evaluations == 1 + 6 * (sol.n_steps + sol.n_rejected)


def test_solve_ode_long_span_tight_tolerance():
    # A_H along the volume axis, dA/dv = 2 coth(rho), over v spanning 1e7.
    # Near the start the per-unit-step budget rel_tol * |y| * h / span sits
    # below the rounding noise of the error estimate at every h; the step
    # must still advance instead of shrinking to underflow.
    def rhs(v, y):
        return math.sqrt(16.0 * math.pi + 4.0 * y) / math.sqrt(y)

    y0 = 4.0 * math.pi * math.sinh(1.0) ** 2
    truth = 4.0 * math.pi * math.sinh(8.0) ** 2
    v0, v1 = _hyperbolic_ball_volume(1.0), _hyperbolic_ball_volume(8.0)
    sol = solve_ode(rhs, y0, v0, v1, rel_tol=1e-11)
    assert abs(sol.ys[-1] - truth) <= 1e-10 * truth


def test_solve_ode_nan_stage_is_retried_shorter():
    # y' = -50 y with NaN below zero: once |y| sits at abs_tol the step
    # grows until trial stages overshoot zero.  Those steps must be
    # rejected and shortened, not grown until the step budget runs out.
    def rhs(x, y):
        return math.nan if y < 0.0 else -50.0 * y

    sol = solve_ode(rhs, 1.0, 0.0, 1.0, rel_tol=1e-9, abs_tol=1e-12)
    assert sol.n_rejected > 0
    assert abs(sol.ys[-1] - math.exp(-50.0)) <= 1e-12


def test_solve_ode_step_underflow_raises():
    def rhs(x, y):
        if x > 0.5:
            raise NumericsError("domain edge")
        return y

    with pytest.raises(NumericsError):
        solve_ode(rhs, 1.0, 0.0, 1.0)


def test_solve_ode_rejects_bad_x_eval():
    with pytest.raises(ValueError):
        solve_ode(lambda x, y: y, 1.0, 0.0, 1.0, x_eval=np.array([0.0, 2.0]))


def test_find_root_cubic():
    root = find_root(lambda s: s**3 + s - 2.0, 0.0, 2.0)
    assert abs(root - 1.0) <= 1e-12


def test_find_root_sinh():
    root = find_root(lambda r: math.sinh(r) ** 2 - 1.0, 0.0, 2.0)
    assert abs(root - math.asinh(1.0)) <= 1e-12
    assert abs(root - 0.881374) <= 1e-6


def test_find_root_linear():
    assert abs(find_root(lambda x: x - 3.0, 0.0, 10.0) - 3.0) <= 1e-12


def test_find_root_exact_endpoint():
    assert find_root(lambda x: x, 0.0, 1.0) == 0.0


def test_find_root_no_sign_change_raises():
    with pytest.raises(NumericsError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_root_tiny_same_sign_bracket_raises():
    # f(lo) * f(hi) underflows to 0 here; the bracket still has no root.
    with pytest.raises(NumericsError):
        find_root(lambda x: 1e-200, 0.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(r=st.floats(-1.5, 1.5))
@example(r=5e-324)
def test_find_root_monotone_cubic_recovers_root(r):
    target = r**3 + r
    root = find_root(lambda x: x**3 + x - target, -2.0, 2.0, tol=1e-13)
    assert abs(root - r) <= 1e-9
