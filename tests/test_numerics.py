"""Kernel tests: quadrature, ODE stepping, root finding.

Expected values here are closed forms or were computed independently
(antiderivatives evaluated by hand or with mpmath at high precision),
never copied from the implementation's own output.
"""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ahiso.numerics import (
    NumericsError,
    QuadResult,
    _NODES,
    _gk15,
    find_root,
    integrate,
    integrate_intervals,
    integrate_panels,
    solve_increasing,
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


def test_integrate_rejects_an_integrand_of_the_wrong_shape():
    # No per-node loop stands behind the array call: a constant that
    # ignores its nodes is an error naming both shapes.
    with pytest.raises(ValueError, match=r"shape \(\) for nodes of shape \(15,\)"):
        integrate(lambda u: 1.0, 0.0, 1.0)


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


def _panel(fn, lo, hi):
    """One GK15 panel on [lo, hi] from the vectorized rule, never redone:
    no panel's error estimate exceeds the tolerance 1e300."""
    vals, errs = integrate_panels(fn, [lo], [hi], 1e300)
    return vals[0], errs[0]


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
def test_vectorized_panel_agrees_with_scalar_panel(fn, edges):
    # The vectorized panel rule of integrate_panels against the scalar
    # panel of integrate: value exactly; the error to a few ulp, since
    # numpy's power and libm's round the ** 1.5 of the error rescaling
    # differently.
    for lo, hi in zip(edges[:-1], edges[1:]):
        val_vec, err_vec = _panel(fn, lo, hi)
        val, err = _gk15(fn, lo, hi)
        assert val_vec == val
        assert abs(err_vec - err) <= 4.0 * np.spacing(err)


@pytest.mark.parametrize(
    "edges",
    [[1.0], [[0.0, 1.0]], [0.0, 0.0], [1.0, 0.0], [0.0, math.inf], [math.nan, 1.0]],
)
def test_integrate_intervals_rejects_malformed_edges(edges):
    with pytest.raises(ValueError):
        integrate_intervals(lambda u: u, edges, 1e-10)


def test_integrate_panels_nonfinite_integrand_names_x():
    # The middle node of [0, 1] is 0.5.
    with np.errstate(divide="ignore"), pytest.raises(NumericsError, match="x=0.5"):
        integrate_panels(lambda u: 1.0 / (u - 0.5), [0.0], [1.0], 1e-10)


def test_integrate_panels_match_single_panels_in_any_order():
    # Overlapping, unordered intervals; the sqrt panel from 0 is over its
    # share and is redone adaptively to it.  Many panels at once may sum
    # the weight products in another order, so values agree to a few ulp.
    fn = lambda u: np.sqrt(u) * np.exp(-u)  # noqa: E731
    a = np.array([2.0, 0.0, 1.0, 0.5])
    b = np.array([3.0, 1.0, 2.5, 0.75])
    vals, errs = integrate_panels(fn, a, b, 1e-13)
    for lo, hi, val, err in zip(a, b, vals, errs):
        one, one_err = _panel(fn, lo, hi)
        if one_err <= max(1e-13, 2e-14 * abs(one)):
            assert abs(val - one) <= 4.0 * np.spacing(val)
            assert abs(err - one_err) <= 1e-12 * err
        else:
            assert err <= max(1e-13, 2e-14 * abs(val))
            assert abs(val - integrate(fn, lo, hi, abs_tol=1e-15).value) <= 2e-13
    assert errs[1] <= 1e-13


@pytest.mark.parametrize(
    "a, b",
    [([0.0], [0.0]), ([1.0], [0.0]), ([0.0, 1.0], [1.0]), ([0.0], [math.inf]), ([[0.0]], [[1.0]])],
)
def test_integrate_panels_rejects_malformed_intervals(a, b):
    with pytest.raises(ValueError):
        integrate_panels(lambda u: u, a, b, 1e-10)


def _square(x):
    return x * x


# One call per tolerance argument; tol is the only argument that varies.
_TOLERANCE_CALLS = {
    "integrate abs_tol": lambda tol: integrate(_square, 0.0, 1.0, abs_tol=tol),
    "integrate rel_tol": lambda tol: integrate(_square, 0.0, 1.0, rel_tol=tol),
    "integrate_panels": lambda tol: integrate_panels(_square, [0.0], [1.0], tol),
    "integrate_intervals": lambda tol: integrate_intervals(_square, [0.0, 0.5, 1.0], tol),
    "solve_increasing": lambda tol: solve_increasing(
        lambda t: 3.0 * t * t, [8.0], [1.0], [1.0], [1.0], [3.0], tol
    ),
    "solve_ode rel_tol": lambda tol: solve_ode(lambda x, y: y, 1.0, 0.0, 1.0, rel_tol=tol),
    "solve_ode abs_tol": lambda tol: solve_ode(lambda x, y: y, 1.0, 0.0, 1.0, abs_tol=tol),
    "find_root": lambda tol: find_root(lambda x: x - 0.5, 0.0, 1.0, tol=tol),
}
# A relative floor of 0 in integrate, or an absolute one in solve_ode,
# leaves the other tolerance in charge.
_ZERO_OK = {"integrate rel_tol", "solve_ode abs_tol"}


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("kernel", sorted(_TOLERANCE_CALLS))
def test_nonfinite_or_nonpositive_tolerance_raises_at_once(kernel, bad):
    # A nan tolerance used to pass every error test or none: integrate ran
    # 20 s to its budget and a volume inversion returned a wrong root.
    call = _TOLERANCE_CALLS[kernel]
    start = time.perf_counter()
    if bad == 0.0 and kernel in _ZERO_OK:
        call(bad)
    else:
        with pytest.raises(ValueError, match="must be finite and >=? 0, got"):
            call(bad)
    assert time.perf_counter() - start < 0.1


def test_solve_increasing_inverts_a_cube_row_by_row():
    # F(t) = t^3 from F(lo) = lo^3, brackets [lo, 2 lo] and [lo, inf).
    target = np.geomspace(1e-30, 1e30, 25)
    root = np.cbrt(target)
    lo = 0.6 * root
    hi = np.where(np.arange(25) % 2 == 0, 2.0 * root, np.inf)
    got = solve_increasing(lambda t: 3.0 * t * t, target, lo, lo**3, lo, hi, 1e-300)
    assert np.all(np.abs(got - root) <= 4e-16 * root)


def test_solve_increasing_rounding_level_step_does_not_bisect():
    # Started on the root, which is also the bracket's upper end, with F
    # there a rounding error low: the raw step points out of the bracket
    # but is at rounding level, so the row stops at once, without a panel.
    calls = []

    def density(t):
        calls.append(np.size(t))
        return 3.0 * t * t

    got = solve_increasing(density, [8.0], [2.0], [8.0 - 1e-15], [1.0], [2.0], 1e-12)
    assert got[0] == 2.0
    assert calls == [1]


def test_solve_increasing_wrong_density_raises():
    # A density 1000x too small overshoots every time; the bracket closes
    # while the raw step stays large.
    with pytest.raises(NumericsError, match="bracket"):
        solve_increasing(lambda t: 3e-3 * t * t, [8.0], [1.0], [1.0], [1.0], [3.0], 1e-12)


def test_solve_increasing_step_out_of_an_open_bracket_raises():
    with pytest.raises(NumericsError, match="inf"):
        solve_increasing(lambda t: -np.ones_like(t), [8.0], [1.0], [1.0], [1.0], [np.inf], 1e-12)


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


# Fault injection.  A poison value replaces the integrand on a short
# interval around one node of a first panel, so the kernel always samples
# it.  A nan or an infinity must raise.  A subnormal makes a legitimate,
# if discontinuous, integrand: the kernel must return a bound that meets
# the tolerance and holds against the unpoisoned answer, which the notch
# moves by at most its width times max |f| = 3.

_POISONS = st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, 1e-310])


def _wave(x):
    return 2.0 + np.cos(3.0 * x)


def _wave_integral(a, b):
    # At 30 digits: in floats, sin(3 b) alone errs by ~eps * 3 |b|.
    with mpmath.workdps(30):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        return float(2 * (b - a) + (mpmath.sin(3 * b) - mpmath.sin(3 * a)) / 3)


def _poisoned(x0, half_width, poison):
    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x - x0) <= half_width, poison, _wave(x))

    return fn


def _panel_node(a, b, node):
    """Node ``node`` of the GK15 panel on [a, b], bit for bit as sampled."""
    return 0.5 * (a + b) + 0.5 * (b - a) * _NODES[node]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    a=st.floats(-3.0, 3.0),
    length=st.floats(0.1, 10.0),
    node=st.integers(0, 14),
    rel_width=st.floats(0.0, 1e-13),
    poison=_POISONS,
)
def test_integrate_poisoned_interval_raises_or_stays_in_bound(a, length, node, rel_width, poison):
    b = a + length
    half_width = rel_width * length
    fn = _poisoned(_panel_node(a, b, node), half_width, poison)
    if not math.isfinite(poison):
        with pytest.raises(NumericsError, match="not finite"):
            integrate(fn, a, b)
        return
    res = integrate(fn, a, b, abs_tol=1e-10)
    assert res.error_bound <= 1e-10
    assert abs(res.value - _wave_integral(a, b)) <= res.error_bound + 6.0 * half_width


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    a=st.floats(-3.0, 3.0),
    widths=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=6),
    panel=st.integers(0, 5),
    node=st.integers(0, 14),
    rel_width=st.floats(0.0, 1e-13),
    poison=_POISONS,
)
def test_integrate_panels_poisoned_interval_raises_or_stays_in_bound(
    a, widths, panel, node, rel_width, poison
):
    edges = a + np.concatenate([[0.0], np.cumsum(widths)])
    lo, hi = edges[:-1], edges[1:]
    i = panel % lo.size
    half_width = rel_width * (hi[i] - lo[i])
    fn = _poisoned(_panel_node(lo[i], hi[i], node), half_width, poison)
    if not math.isfinite(poison):
        with pytest.raises(NumericsError, match="not finite"):
            integrate_panels(fn, lo, hi, 1e-10)
        return
    vals, errs = integrate_panels(fn, lo, hi, 1e-10)
    assert np.all(errs <= 1e-10)
    for j, (x, y) in enumerate(zip(lo.tolist(), hi.tolist())):
        notch = 6.0 * half_width if j == i else 0.0
        assert abs(vals[j] - _wave_integral(x, y)) <= errs[j] + notch


def _wave_antiderivative(t):
    """F(t) = 2 t + sin(3 t) / 3, the integral of _wave from 0, at 30 digits."""
    with mpmath.workdps(30):
        return 2 * mpmath.mpf(t) + mpmath.sin(3 * mpmath.mpf(t)) / 3


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    starts=st.lists(st.floats(0.5, 3.0), min_size=1, max_size=4),
    length=st.floats(0.05, 3.0),
    row=st.integers(0, 3),
    node=st.integers(0, 14),
    rel_width=st.floats(0.0, 1e-13),
    poison=_POISONS,
)
def test_solve_increasing_poisoned_density_raises_or_stays_in_tolerance(
    starts, length, row, node, rel_width, poison
):
    # Every row inverts F = int _wave from its start t0, where F is known,
    # for the target F(t0 + length) with the bracket [t0, inf).  The poison
    # sits on a node of one row's first panel, which runs from t0 to
    # t0 + (target - F(t0)) / _wave(t0), so the kernel always samples it.
    t0 = np.array(starts)
    value = np.array([float(_wave_antiderivative(t)) for t in starts])
    target = np.array([float(_wave_antiderivative(t + length)) for t in starts])
    i = row % t0.size
    first = t0 + (target - value) / _wave(t0)
    half_width = rel_width * (first[i] - t0[i])
    fn = _poisoned(_panel_node(t0[i], first[i], node), half_width, poison)
    tol = 1e-10
    args = (target, t0, value, t0, np.full(t0.size, np.inf), tol)
    if not math.isfinite(poison):
        with pytest.raises(NumericsError, match="not finite"):
            solve_increasing(fn, *args)
        return
    got = solve_increasing(fn, *args)
    # F errs by at most tol plus the notch, 6 half_width; F' >= 1.
    for t, goal, x in zip(starts, target.tolist(), got.tolist()):
        with mpmath.workdps(30):
            root = mpmath.findroot(lambda u: _wave_antiderivative(u) - goal, t + length)
        assert abs(x - float(root)) <= tol + 6.0 * half_width


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


def test_find_root_nan_probe_inside_bracket_raises():
    # Treated as a sign, the NaN returned 0.45000000000027285 here.
    fn = lambda x: math.nan if 0.45 < x < 0.55 else x - 0.5  # noqa: E731
    with pytest.raises(NumericsError, match=r"f\(0\.5\) is NaN inside the bracket \[0\.0, 1\.0\]"):
        find_root(fn, 0.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(r=st.floats(-1.5, 1.5))
@example(r=5e-324)
def test_find_root_monotone_cubic_recovers_root(r):
    target = r**3 + r
    root = find_root(lambda x: x**3 + x - target, -2.0, 2.0, tol=1e-13)
    assert abs(root - r) <= 1e-9


def _counted(fn):
    """fn plus a list whose length is the number of calls made to it."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return fn(x)

    return wrapped, calls


def _unit_step(x):
    return -1.0 if x < 0.3 else 1.0


def test_find_root_raises_when_max_iter_runs_out():
    # A linear fn would not do: one secant step solves it exactly.
    with pytest.raises(NumericsError, match=r"bracket \[.*tol=1e-12"):
        find_root(_unit_step, 0.0, 1.0, max_iter=3)


_FLAT_ROOTS = pytest.mark.parametrize(
    "fn",
    [
        lambda x: (x - 0.3) ** 3,
        lambda x: (x - 0.3) ** 9,
        lambda x: (x - 0.3) ** 15,
        _unit_step,
    ],
    ids=["cube", "ninth", "fifteenth", "step"],
)


@_FLAT_ROOTS
def test_find_root_flat_roots_cost_at_most_three_bisections(fn):
    # Bisection on [0, 1] to 1e-12 takes 40 probes plus the two ends; the
    # stall safeguard bounds Brent's method at three times that.
    counted, calls = _counted(fn)
    root = find_root(counted, 0.0, 1.0, tol=1e-12)
    assert abs(root - 0.3) <= 2e-12
    assert len(calls) <= 3 * 42


@_FLAT_ROOTS
def test_find_root_every_three_probes_halve_the_bracket(fn):
    # Each probe lands inside the bracket and replaces the end of its sign,
    # so the bracket after each probe can be rebuilt from the probes alone.
    counted, calls = _counted(fn)
    find_root(counted, 0.0, 1.0, tol=1e-12)
    lo, hi = calls[:2]
    widths = [hi - lo]
    for x in calls[2:]:
        lo, hi = (x, hi) if fn(x) < 0.0 else (lo, x)
        widths.append(hi - lo)
    assert len(widths) > 3
    for before, after in zip(widths, widths[3:]):
        assert after <= 0.5 * before
