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

import ahiso.numerics
from ahiso.numerics import (
    NumericsError,
    QuadResult,
    _NODES,
    _SUB_GRID,
    _SUB_INTEGRAL,
    _SUB_VALUE,
    _WKF,
    _interpolant_root,
    _panels,
    find_root,
    integrate,
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
    # A finite lower limit puts b = -inf below it: no separate check.
    with pytest.raises(ValueError, match="a <= b"):
        integrate(lambda u: u, 0.0, -math.inf)


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


def test_integrate_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(ahiso.numerics, "_MAX_EVALS", 500)
    with pytest.raises(NumericsError):
        integrate(lambda u: 1.0 / np.sqrt(np.abs(u)), 0.0, 1.0, abs_tol=1e-300)


def _counting(fn):
    """``fn`` and the list of node counts of its calls."""
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return fn(x)

    return counted, calls


@pytest.mark.parametrize(
    "fn, a, b",
    [
        (lambda u: 1.0 + u * u * u, 0.0, 2.0),
        (np.sqrt, 0.0, 1.0),
        (lambda u: np.exp(-u) * np.cos(40.0 * u), 0.0, 9.0),
        (lambda s: np.exp(-s), 1.0, math.inf),
    ],
    ids=["one-panel", "sqrt", "oscillating", "tail"],
)
def test_integrate_calls_its_integrand_once_per_split(fn, a, b):
    # The first panel takes one call, and each split one more for both
    # halves; a first panel within the tolerance returns after one call.
    counted, calls = _counting(fn)
    res = integrate(counted, a, b, abs_tol=1e-12)
    assert len(calls) == 1 + (res.evaluations - 15) // 30
    assert calls == [15] + [30] * (len(calls) - 1)


def _panel(fn, lo, hi):
    """One GK15 panel on [lo, hi] from the vectorized rule, never redone:
    no panel's error estimate exceeds the tolerance 1e300."""
    vals, errs, _ = _panels(fn, np.array([lo]), np.array([hi]), 1e300)
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
    # The vectorized panel rule of _panels against the scalar first
    # panel of integrate (one panel: 15 evaluations, accepted under the
    # tolerance 1e300): value exactly; the error to a few ulp, since
    # numpy's power and libm's round the ** 1.5 of the error rescaling
    # differently.
    for lo, hi in zip(edges[:-1], edges[1:]):
        val_vec, err_vec = _panel(fn, lo, hi)
        one = integrate(fn, lo, hi, abs_tol=1e300)
        assert one.evaluations == 15
        val, err = one.value, one.error_bound
        assert val_vec == val
        assert abs(err_vec - err) <= 4.0 * np.spacing(err)


def test_panels_nonfinite_integrand_names_x():
    # The middle node of [0, 1] is 0.5.
    with np.errstate(divide="ignore"), pytest.raises(NumericsError, match="x=0.5"):
        _panels(lambda u: 1.0 / (u - 0.5), np.array([0.0]), np.array([1.0]), 1e-10)


def test_panels_match_single_panels_in_any_order():
    # Overlapping, unordered intervals; the sqrt panel from 0 is over its
    # share and is redone adaptively to it.  Many panels at once may sum
    # the weight products in another order, so values agree to a few ulp.
    fn = lambda u: np.sqrt(u) * np.exp(-u)  # noqa: E731
    a = np.array([2.0, 0.0, 1.0, 0.5])
    b = np.array([3.0, 1.0, 2.5, 0.75])
    vals, errs, _ = _panels(fn, a, b, 1e-13)
    for lo, hi, val, err in zip(a, b, vals, errs):
        one, one_err = _panel(fn, lo, hi)
        if one_err <= max(1e-13, 2e-14 * abs(one)):
            assert abs(val - one) <= 4.0 * np.spacing(val)
            assert abs(err - one_err) <= 1e-12 * err
        else:
            assert err <= max(1e-13, 2e-14 * abs(val))
            assert abs(val - integrate(fn, lo, hi, abs_tol=1e-15).value) <= 2e-13
    assert errs[1] <= 1e-13


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_panels_in_blocks_equal_one_call_per_block():
    # 2,500 intervals are three blocks; the extra points go with the last.
    block = ahiso.numerics._PANEL_BLOCK
    rng = np.random.default_rng(7)
    lo = rng.uniform(0.0, 5.0, 2500)
    hi = lo + rng.uniform(1e-3, 1.0, lo.size)
    extra = rng.uniform(0.0, 6.0, 7)
    fn = lambda u: np.exp(-u) * np.cos(3.0 * u) + u * u  # noqa: E731
    vals, errs, at_extra = _panels(fn, lo, hi, 1e-12, extra)
    parts = [
        _panels(fn, lo[i : i + block], hi[i : i + block], 1e-12, extra if i == 2 * block else ())
        for i in range(0, lo.size, block)
    ]
    assert len(parts) == 3
    assert np.array_equal(_bits(vals), _bits(np.concatenate([p[0] for p in parts])))
    assert np.array_equal(_bits(errs), _bits(np.concatenate([p[1] for p in parts])))
    assert np.array_equal(_bits(at_extra), _bits(parts[-1][2]))


@pytest.mark.parametrize(
    "n, extra", [(2500, 7), (2048, 0), (1025, 3), (1024, 2), (200, 2), (1, 2)]
)
def test_panels_call_holds_at_most_one_block(n, extra):
    # A batch of at most one block is one call, with the extra points.
    block = ahiso.numerics._PANEL_BLOCK
    lo = np.linspace(0.0, 1.0, n)
    points = np.linspace(0.0, 1.0, extra)
    counted, calls = _counting(np.cos)
    _, _, at_extra = _panels(counted, lo, lo + 0.5, 1e300, points)
    assert max(calls) <= 15 * block + extra
    full = (n - 1) // block
    assert calls == [15 * block] * full + [15 * (n - full * block) + extra]
    assert np.array_equal(at_extra, np.cos(points))


def test_panels_keep_node_values_only_when_asked():
    # 2,500 intervals are three blocks; the kept rows are fn at each
    # interval's nodes, and the values and bounds are those of a plain call.
    rng = np.random.default_rng(11)
    lo = rng.uniform(0.0, 5.0, 2500)
    hi = lo + rng.uniform(1e-3, 1.0, lo.size)
    fn = lambda u: np.exp(-u) * np.cos(3.0 * u) + u * u  # noqa: E731
    plain = _panels(fn, lo, hi, 1e-12, [0.5])
    kept = _panels(fn, lo, hi, 1e-12, [0.5], nodes=True)
    assert len(plain) == 3 and len(kept) == 4
    for a, b in zip(plain, kept):
        assert np.array_equal(_bits(a), _bits(b))
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    assert kept[3].shape == (2500, 15)
    assert np.array_equal(kept[3], fn(mid[:, None] + half[:, None] * _NODES))


def test_interpolant_integral_at_one_is_the_kronrod_rule():
    # The integral of the interpolant over [-1, 1] is the K15 rule itself.
    assert _SUB_GRID[-1] == 1.0 and _SUB_GRID.size == 65
    assert np.all(np.abs(_SUB_INTEGRAL[:, -1] - _WKF) <= 2.0 * np.spacing(_WKF))
    assert not _SUB_INTEGRAL[:, 0].any()


@pytest.mark.parametrize("k", range(15))
def test_interpolant_matrices_are_exact_on_polynomials(k):
    # x^k, k <= 14, is its own interpolant: its integral from -1 to each
    # sub-grid point and its value there come back to rounding.
    at_nodes = _NODES**k
    integral = (_SUB_GRID ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
    assert np.max(np.abs(np.einsum("j,jk->k", at_nodes, _SUB_INTEGRAL) - integral)) <= 1e-14
    assert np.max(np.abs(np.einsum("kj,j->k", _SUB_VALUE, at_nodes) - _SUB_GRID**k)) <= 1e-14


def test_interpolant_root_inverts_a_smooth_integral_row_by_row():
    # exp(a x) on [-1, 1]: the integral from -1 to x is (e^{ax} - e^{-a}) / a.
    # The inverse Hermite step errs by ~6 a^3 / (384 * 32^4), 3e-11 at
    # a = 0.13, which is how a w^3 volume element grows over a rung.  Each
    # row's root is the same alone as in the batch.
    a = np.linspace(0.02, 0.2, 12)[:, None]
    x = np.linspace(-0.999, 0.999, 37)
    fv = np.repeat(np.exp(a * _NODES), x.size, axis=0)
    rows = np.repeat(a[:, 0], x.size)
    xs = np.tile(x, a.size)
    y = (np.exp(rows * xs) - np.exp(-rows)) / rows
    got = _interpolant_root(fv, y)
    assert np.max(np.abs(got - xs)) <= 2e-10
    for i in range(0, got.size, 41):
        assert _interpolant_root(fv[i : i + 1], y[i : i + 1])[0] == got[i]


def test_interpolant_root_of_a_flat_interpolant_stays_in_range():
    # A zero or sign-changing interpolant has no root to find; the start
    # is then some point of [-1, 1], with no warning.
    fv = np.stack([np.zeros(15), np.cos(4.0 * _NODES), -np.ones(15)])
    with np.errstate(all="raise"):
        got = _interpolant_root(fv, np.array([0.5, 0.1, 1.0]))
    assert np.all((-1.0 <= got) & (got <= 1.0))


def _square(x):
    return x * x


# One call per tolerance argument; tol is the only argument that varies.
_TOLERANCE_CALLS = {
    "integrate abs_tol": lambda tol: integrate(_square, 0.0, 1.0, abs_tol=tol),
    "solve_increasing": lambda tol: solve_increasing(
        lambda t: 3.0 * t * t, [8.0], [1.0], [1.0], [3.0], [1.0], [3.0], tol
    ),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("kernel", sorted(_TOLERANCE_CALLS))
def test_nonfinite_or_nonpositive_tolerance_raises_at_once(kernel, bad):
    # A nan tolerance used to pass every error test or none: integrate ran
    # 20 s to its budget and a volume inversion returned a wrong root.
    call = _TOLERANCE_CALLS[kernel]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="must be finite and > 0, got"):
        call(bad)
    assert time.perf_counter() - start < 0.1


def test_solve_increasing_inverts_a_cube_row_by_row():
    # F(t) = t^3 from F(lo) = lo^3, brackets [lo, 2 lo] and [lo, inf).
    target = np.geomspace(1e-30, 1e30, 25)
    root = np.cbrt(target)
    lo = 0.6 * root
    hi = np.where(np.arange(25) % 2 == 0, 2.0 * root, np.inf)
    got = solve_increasing(
        lambda t: 3.0 * t * t, target, lo, lo**3, 3.0 * lo * lo, lo, hi, 1e-300
    )
    assert np.all(np.abs(got - root) <= 4e-16 * root)


def test_solve_increasing_calls_its_density_once_per_round():
    # The cube problem: the caller gives the first slopes, so no call at
    # the starts, then one per round that gives both the round's panels
    # and the next round's slopes, 15 nodes and the new iterate for each
    # active row.  The first round holds every row.
    target = np.geomspace(1e-30, 1e30, 25)
    lo = 0.6 * np.cbrt(target)
    density, calls = _counting(lambda t: 3.0 * t * t)
    solve_increasing(density, target, lo, lo**3, 3.0 * lo * lo, lo, np.full(25, np.inf), 1e-300)
    assert calls[0] == 16 * 25
    assert len(calls) > 1
    assert all(n % 16 == 0 for n in calls[1:])
    assert calls[1:] == sorted(calls[1:], reverse=True)


def test_solve_increasing_rounding_level_step_does_not_bisect():
    # Started on the root, which is also the bracket's upper end, with F
    # there a rounding error low: the raw step points out of the bracket
    # but is at rounding level, so the row stops at once, without a panel
    # (and, its start slope given, without a call of the density at all).
    calls = []

    def density(t):
        calls.append(np.size(t))
        return 3.0 * t * t

    got = solve_increasing(density, [8.0], [2.0], [8.0 - 1e-15], [12.0], [1.0], [2.0], 1e-12)
    assert got[0] == 2.0
    assert calls == []


def test_solve_increasing_wrong_density_raises():
    # A density 1000x too small overshoots every time; the bracket closes
    # while the raw step stays large.
    with pytest.raises(NumericsError, match="bracket"):
        solve_increasing(lambda t: 3e-3 * t * t, [8.0], [1.0], [1.0], [3e-3], [1.0], [3.0], 1e-12)


def test_solve_increasing_step_out_of_an_open_bracket_raises():
    with pytest.raises(NumericsError, match="inf"):
        solve_increasing(
            lambda t: -np.ones_like(t), [8.0], [1.0], [1.0], [-1.0], [1.0], [np.inf], 1e-12
        )


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
def test_panels_poisoned_interval_raises_or_stays_in_bound(
    a, widths, panel, node, rel_width, poison
):
    edges = a + np.concatenate([[0.0], np.cumsum(widths)])
    lo, hi = edges[:-1], edges[1:]
    i = panel % lo.size
    half_width = rel_width * (hi[i] - lo[i])
    fn = _poisoned(_panel_node(lo[i], hi[i], node), half_width, poison)
    if not math.isfinite(poison):
        with pytest.raises(NumericsError, match="not finite"):
            _panels(fn, lo, hi, 1e-10)
        return
    vals, errs, _ = _panels(fn, lo, hi, 1e-10)
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
    args = (target, t0, value, fn(t0), t0, np.full(t0.size, np.inf), tol)
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


@pytest.mark.parametrize(
    "rhs, y0",
    [
        # e^x overflows past x = 709.78; its stages turn infinite with
        # both signs in the error estimate, which math.fsum refused with a
        # bare ValueError ("-inf + inf in fsum").
        (lambda x, y: y, 1.0),
        # Finite stages and an error estimate of zero; only y overflows.
        (lambda x, y: 1e308, 0.0),
    ],
    ids=["stages", "solution"],
)
def test_solve_ode_overflow_raises_by_name(rhs, y0):
    with pytest.raises(NumericsError, match=r"^solve_ode: the step from x=\S+ with h=\S+ overflows$"):
        solve_ode(rhs, y0, [0.0, 1000.0])


def test_solve_ode_exponential():
    sol = solve_ode(lambda x, y: y, 1.0, [0.0, 1.0])
    assert abs(sol.ys[-1] - math.e) <= 1e-9
    assert sol.n_steps >= 1
    assert sol.rhs_evaluations >= 6 * sol.n_steps


def test_solve_ode_half_rate_growth():
    # The radius law of the sphere flow: y' = y/2 from s0.
    s0 = 1.7
    sol = solve_ode(lambda x, y: 0.5 * y, s0, [0.0, 2.0])
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
    sol = solve_ode(rhs, y0, [v0, v1])
    assert abs(sol.ys[-1] - truth) <= 1e-8 * truth


def test_solve_ode_x_eval_hits_requested_points():
    xs = np.array([0.0, 0.25, 0.5, 1.0])
    sol = solve_ode(lambda x, y: y, 1.0, xs)
    assert np.array_equal(sol.xs, xs)
    assert np.max(np.abs(sol.ys - np.exp(xs))) <= 1e-9


def test_solve_ode_dense_output_costs_no_extra_steps():
    # Output points are filled from each step's continuous extension, so
    # the step sequence is the same however many points are requested.
    sparse = solve_ode(lambda x, y: y, 1.0, [0.0, 0.5, 1.0])
    xs = np.linspace(0.0, 1.0, 10_001)
    dense = solve_ode(lambda x, y: y, 1.0, xs)
    assert dense.n_steps == sparse.n_steps
    assert dense.n_rejected == sparse.n_rejected
    assert dense.rhs_evaluations == sparse.rhs_evaluations
    assert np.array_equal(dense.xs, xs)
    assert np.max(np.abs(dense.ys - np.exp(xs))) <= 1e-9


def _wavy_growth(x, y):
    return math.cos(3.0 * x) * y + 0.1 * math.sin(x)


_DENSE_X = np.linspace(0.0, 4.0, 801)
_DENSE = solve_ode(_wavy_growth, 1.0, _DENSE_X)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sets(st.integers(1, _DENSE_X.size - 2)))
@example(set())
@example(set(range(1, _DENSE_X.size - 1)))
def test_solve_ode_sample_does_not_depend_on_the_other_points(interior):
    # Step control sees only the two endpoints, and each point is filled
    # from the step that holds it, so any sorted subset of a grid gives
    # bitwise the same samples and the same work counts as the full grid.
    idx = [0, *sorted(interior), _DENSE_X.size - 1]
    sub = solve_ode(_wavy_growth, 1.0, _DENSE_X[idx])
    assert sub.ys.tobytes() == _DENSE.ys[idx].tobytes()
    assert (sub.n_steps, sub.n_rejected, sub.rhs_evaluations) == (
        _DENSE.n_steps, _DENSE.n_rejected, _DENSE.rhs_evaluations
    )


def test_solve_ode_fsal_rhs_accounting():
    # One start-up call, then six per attempted step: the last stage of an
    # accepted step is reused as the first stage of the next.
    def rhs(x, y):
        return math.cos(x) * y

    sol = solve_ode(rhs, 1.0, np.linspace(0.0, 6.0, 7))
    assert sol.rhs_evaluations == 1 + 6 * (sol.n_steps + sol.n_rejected)


def test_solve_ode_long_span_tight_tolerance():
    # A_H along the volume axis, dA/dv = 2 coth(rho), over v spanning 4e10.
    # Near the start the per-unit-step budget 1e-9 |y| h / span sits below
    # the rounding noise of the error estimate at every h; the step must
    # still advance instead of shrinking to underflow.  (At rho = 8 the
    # span is too short for the noise to reach the budget.)
    def rhs(v, y):
        return math.sqrt(16.0 * math.pi + 4.0 * y) / math.sqrt(y)

    y0 = 4.0 * math.pi * math.sinh(1.0) ** 2
    truth = 4.0 * math.pi * math.sinh(12.0) ** 2
    v0, v1 = _hyperbolic_ball_volume(1.0), _hyperbolic_ball_volume(12.0)
    sol = solve_ode(rhs, y0, [v0, v1])
    assert abs(sol.ys[-1] - truth) <= 1e-10 * truth


def test_solve_ode_nan_stage_is_retried_shorter():
    # y' = -50 y with NaN below zero: once |y| sits at the absolute floor
    # 1e-12 the step grows until trial stages overshoot zero.  Those steps
    # must be rejected and shortened, not grown until the step budget runs
    # out.
    def rhs(x, y):
        return math.nan if y < 0.0 else -50.0 * y

    sol = solve_ode(rhs, 1.0, [0.0, 1.0])
    assert sol.n_rejected > 0
    assert abs(sol.ys[-1] - math.exp(-50.0)) <= 1e-12


def test_solve_ode_step_underflow_raises():
    def rhs(x, y):
        if x > 0.5:
            raise NumericsError("domain edge")
        return y

    with pytest.raises(NumericsError):
        solve_ode(rhs, 1.0, [0.0, 1.0])


@pytest.mark.parametrize(
    "x_eval, match",
    [
        ([0.0], "at least two points"),
        ([0.0, 1.0, 1.0], "strictly increasing"),
        ([1.0, 0.0], "strictly increasing"),
    ],
)
def test_solve_ode_rejects_bad_x_eval(x_eval, match):
    with pytest.raises(ValueError, match=match):
        solve_ode(lambda x, y: y, 1.0, x_eval)


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


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (1.0, 0.0), (math.nan, 1.0)])
def test_find_root_rejects_an_empty_or_reversed_bracket(lo, hi):
    with pytest.raises(ValueError, match="need hi > lo"):
        find_root(lambda x: x - 0.5, lo, hi)


@pytest.mark.parametrize("nan_end", [0.0, 1.0])
def test_find_root_nan_endpoint_raises(nan_end):
    # A NaN end has no sign, so the bracket cannot be known to hold a root.
    fn = lambda x: math.nan if x == nan_end else x - 0.5  # noqa: E731
    with pytest.raises(NumericsError, match="no sign change"):
        find_root(fn, 0.0, 1.0)


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
    root = find_root(lambda x: x**3 + x - target, -2.0, 2.0)
    assert abs(root - r) <= 2.0 * np.spacing(abs(r))


def _counted(fn):
    """fn plus a list whose length is the number of calls made to it."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return fn(x)

    return wrapped, calls


def _unit_step(x):
    return -1.0 if x < 0.3 else 1.0


@pytest.mark.parametrize("r", [1e-310, 5e-324])
def test_find_root_bisects_the_whole_float_range_without_a_budget(r):
    # About 1,024 halvings from 1.7e308 to 1 and 1,074 more to 5e-324.
    counted, calls = _counted(lambda x: x - r)
    assert find_root(counted, -1.7e308, 1.7e308) == r
    assert len(calls) <= 2101


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
def test_find_root_flat_roots_cost_one_bisection_to_adjacent_floats(fn):
    # Bisection on [0, 1] down to the float spacing 2^-54 at 0.3 takes 54
    # probes plus the two ends, however flat the root.
    counted, calls = _counted(fn)
    root = find_root(counted, 0.0, 1.0)
    assert abs(root - 0.3) <= np.spacing(0.3)
    assert len(calls) <= 56


@_FLAT_ROOTS
def test_find_root_every_probe_halves_the_bracket(fn):
    # Each probe lands inside the bracket and replaces the end of its sign,
    # so the bracket after each probe can be rebuilt from the probes alone.
    counted, calls = _counted(fn)
    find_root(counted, 0.0, 1.0)
    lo, hi = calls[:2]
    widths = [hi - lo]
    for x in calls[2:]:
        lo, hi = (x, hi) if fn(x) < 0.0 else (lo, x)
        widths.append(hi - lo)
    assert len(widths) > 3
    for before, after in zip(widths, widths[1:]):
        assert after <= 0.5 * before
