"""Deterministic numeric kernels: adaptive quadrature and a safeguarded
Newton inversion of integrals, vectorized over rows, plus an embedded
Runge-Kutta integrator and a bisection root finder at fixed tolerances.

All routines are reproducible bit for bit across runs: there is no
randomness, no thread-order dependence, and refinement always proceeds in
a fixed order.  Convergence failures raise :class:`NumericsError` rather
than returning a degraded result.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NumericsError",
    "QuadResult",
    "OdeSolution",
    "integrate",
    "solve_increasing",
    "solve_ode",
    "find_root",
]


class NumericsError(RuntimeError):
    """A kernel failed to converge within its evaluation budget."""


# Gauss-Kronrod 7-15 nodes and weights on [-1, 1].  Positive abscissae only;
# the rule is symmetric.  Even indices are the embedded Gauss-7 points.
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full 15-point node vector in ascending order, plus matching weight vectors.
_NODES = np.concatenate([-_XK[:7], _XK[7:8], _XK[6::-1]])
_WKF = np.concatenate([_WK[:7], _WK[7:8], _WK[6::-1]])
_wg_half = _WG[:3]
_WGF = np.zeros(15)
_WGF[1:7:2] = _wg_half
_WGF[7] = _WG[3]
_WGF[9:15:2] = _wg_half[::-1]
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadResult:
    """Value and a conservative error bound for one definite integral."""

    value: float
    error_bound: float
    evaluations: int


@dataclass(frozen=True)
class OdeSolution:
    """Sampled solution curve of a scalar initial value problem."""

    xs: np.ndarray
    ys: np.ndarray
    n_steps: int
    n_rejected: int
    rhs_evaluations: int

    def __post_init__(self):
        if self.xs.shape != self.ys.shape:
            raise ValueError("xs and ys must have matching shapes")


def _eval_batch(fn: Callable, xs: np.ndarray) -> np.ndarray:
    """fn on an array of nodes, which must give one value per node."""
    out = np.asarray(fn(xs), dtype=float)
    if out.shape != xs.shape:
        raise ValueError(
            f"integrand returned shape {out.shape} for nodes of shape {xs.shape}"
        )
    return out


def _gk15_rule(a: float, b: float, xs: np.ndarray, fv: np.ndarray) -> tuple[float, float]:
    """One Gauss-Kronrod 7-15 panel on [a, b] from the integrand's values
    ``fv`` at its nodes ``xs``.

    Returns (kronrod value, error estimate).  The estimate follows the
    usual rescaled |K15 - G7| rule, which is sharp on smooth integrands
    and conservative near integrable singularities.
    """
    if not np.isfinite(fv).all():
        bad = float(xs[~np.isfinite(fv)][0])
        raise NumericsError(f"integrand not finite at x={bad!r}")
    half = 0.5 * (b - a)
    resk = half * float(_WKF @ fv)
    resg = half * float(_WGF @ fv)
    resabs = abs(half) * float(_WKF @ np.abs(fv))
    mean = resk / (b - a) if b != a else 0.0
    resasc = abs(half) * float(_WKF @ np.abs(fv - mean))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    # Guard against an error estimate below attainable rounding.
    err = max(err, 50.0 * _EPS * resabs)
    return resk, err


def _check_tol(name: str, tol: float) -> None:
    """ValueError unless ``tol`` is finite and > 0."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {tol!r}")


def _increasing(points, name: str) -> np.ndarray:
    """A copy of ``points``, which must be finite and strictly increasing."""
    e = np.array(points, dtype=float)
    if e.ndim != 1 or e.size < 2:
        raise ValueError(f"{name} must be a 1-d sequence of at least two points")
    if not np.isfinite(e).all() or (np.diff(e) <= 0.0).any():
        raise ValueError(f"{name} must be finite and strictly increasing")
    return e


def _pair_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return mid[:, None] + half[:, None] * _NODES[None, :]


def _pair_rule(a: np.ndarray, b: np.ndarray, fv: np.ndarray):
    half = 0.5 * (b - a)
    resk = half * (fv @ _WKF)
    resg = half * (fv @ _WGF)
    resabs = half * (np.abs(fv) @ _WKF)
    resasc = half * (np.abs(fv - (resk / (b - a))[:, None]) @ _WKF)
    err = np.abs(resk - resg)
    scales = (resasc > 0.0) & (err > 0.0)
    if scales.all():
        err = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        err = np.where(scales, scaled, err)
    return resk, np.maximum(err, 50.0 * _EPS * resabs)


# _panels evaluates at most this many intervals per call of the
# integrand: a block's node arrays (15 * 1024 floats, 120 KiB) stay
# below glibc's default mmap threshold, whatever the batch size.
_PANEL_BLOCK = 1024


def _panels(fn: Callable, lo: np.ndarray, hi: np.ndarray, tol: float, extra=(), nodes=False):
    """Integral of ``fn`` over each interval [lo[i], hi[i]], plus ``fn`` at ``extra``.

    Every interval gets one GK15 panel.  The intervals (at least one) go
    to ``fn`` in blocks of 1,024, in order and one call per block, and
    the points ``extra`` go with the last block's nodes (so a panel that
    ends at a Newton iterate also gives the slope there); the node arrays
    are O(block) at any batch size, and a batch of one block is one call.
    Once all blocks are in, an interval whose error estimate exceeds
    ``tol``, or 2e-14 of its own value when that is larger (the panel
    rule's rounding floor is 50 eps of it), is redone by adaptive
    :func:`integrate` to that tolerance.  The intervals may overlap and
    come in any order; the callers build them, so nothing is checked but
    the integrand's finiteness at the panel nodes.  Returns the values
    and error bounds per interval and ``fn`` at ``extra``, which is not
    checked for finiteness; with ``nodes``, also ``fn`` at each
    interval's 15 nodes (before any fallback), one row per interval, so
    that only a caller that asks for them keeps more than a block of
    node values.

    Raises
    ------
    NumericsError
        If ``fn`` is not finite at a panel node, or a fallback fails.
    """
    n = lo.size
    vals, err = np.empty(n), np.empty(n)
    kept = np.empty((n, 15)) if nodes else None
    for i in range(0, n, _PANEL_BLOCK):
        j = i + _PANEL_BLOCK
        a, b = lo[i:j], hi[i:j]
        # The panel nodes are joined to ``extra`` at once, so that the
        # block holds one array of nodes while ``fn`` runs.
        xs = _pair_nodes(a, b).reshape(-1)
        if j >= n and len(extra):
            xs = np.concatenate([xs, extra])
        fv = _eval_batch(fn, xs)
        m = 15 * a.size
        if not np.isfinite(fv[:m]).all():
            bad = float(xs[:m][~np.isfinite(fv[:m])][0])
            raise NumericsError(f"integrand not finite at x={bad!r}")
        at_nodes = fv[:m].reshape(-1, 15)
        vals[i:j], err[i:j] = _pair_rule(a, b, at_nodes)
        if nodes:
            kept[i:j] = at_nodes
    tol_vec = np.maximum(tol, 2e-14 * np.abs(vals))
    for i in np.flatnonzero(err > tol_vec):
        res = integrate(fn, float(lo[i]), float(hi[i]), abs_tol=float(tol_vec[i]))
        vals[i], err[i] = res.value, res.error_bound
    return (vals, err, fv[m:], kept) if nodes else (vals, err, fv[m:])


# Barycentric weights of _NODES: 1 / prod over j != i of (x_i - x_j).
_BARY = 1.0 / np.prod(np.where(np.eye(15, dtype=bool), 1.0, _NODES[:, None] - _NODES), axis=1)


def _lagrange(y: np.ndarray) -> np.ndarray:
    """The 15 Lagrange basis polynomials of ``_NODES`` at the points ``y``,
    one row per point, in barycentric form (a point on a node gets that
    node's unit row)."""
    q = y[:, None] - _NODES
    hit = q == 0.0
    q[hit] = 1.0
    np.divide(_BARY, q, out=q)
    q /= q.sum(axis=1, keepdims=True)
    on = hit.any(axis=1)
    q[on] = hit[on]
    return q


# The degree-14 interpolant p of a panel's 15 node values, on the
# sub-grid of 64 equal steps of [-1, 1]: the node values times
# _SUB_INTEGRAL give the integral of p from -1 to each sub-grid point (the
# K15 rule on [-1, x], exact for p), and row j of _SUB_VALUE times them
# gives p at sub-grid point j.  Built without BLAS, as they are applied.
_SUB_GRID = np.linspace(-1.0, 1.0, 65)


def _sub_grid_matrices() -> tuple[np.ndarray, np.ndarray]:
    # One K15 node of [-1, x] at a time, for every sub-grid point x, keeps
    # the import's temporaries at 65 x 15 floats.
    half = 0.5 * (_SUB_GRID + 1.0)
    integral = np.zeros((65, 15))
    for node, weight in zip(_NODES, _WKF):
        integral += weight * _lagrange(0.5 * (_SUB_GRID - 1.0) + half * node)
    return np.ascontiguousarray((half[:, None] * integral).T), _lagrange(_SUB_GRID)


_SUB_INTEGRAL, _SUB_VALUE = _sub_grid_matrices()


def _interpolant_root(fv: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per row, the x in [-1, 1] where the integral from -1 of the
    interpolant of the node values ``fv[i]`` (a GK15 panel mapped to
    [-1, 1]) reaches ``y[i]``, with no call of the integrand.

    The sub-grid step that holds y is found from the integrals at all 65
    sub-grid points, and x from one inverse cubic Hermite step on it: the
    inverse of the integral, from its values and slopes 1 / p at the two
    ends.  Its error goes like the fourth power of the step, 1 / 32: for a
    smooth positive integrand x is good to ~1e-10 or better.  The
    products are taken row by row with no BLAS call, so a row's x does
    not depend on the batch.  A row whose interpolant does not increase
    there gets some x in [-1, 1].
    """
    g = np.einsum("ij,jk->ik", fv, _SUB_INTEGRAL)
    step = np.minimum((g[:, 1:-1] <= y[:, None]).sum(axis=1), 63)
    at = np.stack([step, step + 1], axis=1)
    g0, g1 = np.take_along_axis(g, at, 1).T
    p0, p1 = np.einsum("ij,ikj->ki", fv, _SUB_VALUE[at])
    width = g1 - g0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # In units of the sub-grid step: u in [0, 1] along the integral, and
        # the slopes of x(u) at the two ends less the mean slope 1.
        u = (y - g0) / width
        d0, d1 = 32.0 * width / p0 - 1.0, 32.0 * width / p1 - 1.0
        x = _SUB_GRID[step] + (u + u * (1.0 - u) * ((1.0 - u) * d0 - u * d1)) / 32.0
    # fmin and fmax take a NaN to the bound.
    return np.fmax(np.fmin(x, 1.0), -1.0)


# A row of solve_increasing takes at most this many Newton rounds, and
# each of its panels is held to this fraction of the tolerance, so the
# panel errors along a row sum to at most the tolerance (or their
# relative floors).
_NEWTON_ROUNDS = 64
# A row stops once its raw Newton step is at most this fraction of the
# iterate; the step is then applied, which leaves an error of the order
# of its square.  A step of at most four ulp of the iterate also stops
# it: that floor, four ulp of a subnormal (2e-323), lies below the
# relative test at every normal iterate, and it lets a subnormal one stop.
_NEWTON_RTOL = 1e-10
_NEWTON_FLOOR = 4.0 * float(np.spacing(0.0))


def solve_increasing(
    density: Callable,
    target,
    t,
    value,
    slope,
    lo,
    hi,
    tol: float,
) -> np.ndarray:
    """Roots of F(t) = target, row by row, for increasing F with F' = density.

    Row i starts at ``t[i]``, where F is known to be ``value[i]`` and F'
    to be ``slope[i]`` (``density`` at ``t[i]``, as the caller has it),
    and its bracket ``[lo[i], hi[i]]`` holds the root (``hi`` may be inf;
    the start is then ``lo``).  Every round, all rows still active take one
    Newton step (target - F) / density together.  A row whose raw step is
    at most 1e-10 of its iterate, or four ulp of it, stops there and
    returns the iterate plus that step; the test comes before the
    safeguard, so a rounding-level step that would land on a bracket end
    does not bisect.  Otherwise a step that leaves the open bracket goes
    to the bracket midpoint instead, F at the new iterate is F at the old
    one plus one GK15 panel of ``density`` between them (the panel rule
    of :func:`_panels`, each panel held to ``tol / 64``), and the new
    iterate replaces the bracket end on its side of the root.  One
    call of ``density`` per round gives every row's panel nodes and its
    new iterate, whose value is the next round's slope, so a solve makes
    one call per round that takes a step and none at the starts.  A
    volume inversion takes its first slopes and first iterates from the
    sweep's panels (the root of each row's rung panel interpolant, see
    :func:`_interpolant_root`), which put every row within the test on
    the grids tried, so it returns before any round.  Only ``tol`` is
    checked.

    ``density`` must accept arrays and be positive where the rows go.

    Raises
    ------
    NumericsError
        If a row is still active after 64 rounds, if its bracket closes
        without its step falling below the tolerance, or if a step leaves
        a bracket that has no upper end.
    """
    _check_tol("tol", tol)
    target = np.array(target, dtype=float)
    t = np.array(t, dtype=float)
    value = np.array(value, dtype=float)
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    slope = np.array(slope, dtype=float)
    out = np.empty_like(t)
    rows = np.arange(t.size)
    for _ in range(_NEWTON_ROUNDS):
        step = (target - value) / slope
        done = np.abs(step) <= np.maximum(_NEWTON_RTOL * np.abs(t), _NEWTON_FLOOR)
        if done.any():
            out[rows[done]] = t[done] + step[done]
            if done.all():
                return out
            keep = ~done
            rows, t, step, value, target, lo, hi = (
                x[keep] for x in (rows, t, step, value, target, lo, hi)
            )
        new = t + step
        outside = ~((lo < new) & (new < hi))
        # A step inside its open bracket exceeds the rounding of t, so only
        # one that leaves it can close a bracket.
        if outside.any():
            if (outside & np.isinf(hi)).any():
                i = int(np.flatnonzero(outside & np.isinf(hi))[0])
                raise NumericsError(
                    f"solve_increasing: step from t={float(t[i])!r} leaves "
                    f"[{float(lo[i])!r}, inf) for target {float(target[i])!r}"
                )
            new = np.where(outside, 0.5 * (lo + hi), new)
            if (new == t).any():
                i = int(np.flatnonzero(new == t)[0])
                raise NumericsError(
                    f"solve_increasing: bracket [{float(lo[i])!r}, {float(hi[i])!r}] "
                    f"closed with a step of {float(step[i])!r} left for target "
                    f"{float(target[i])!r}"
                )
        up = new > t
        vals, _, slope = _panels(
            density, np.where(up, t, new), np.where(up, new, t), tol / _NEWTON_ROUNDS, new
        )
        value = value + np.where(up, vals, -vals)
        below = value < target
        lo = np.where(below, new, lo)
        hi = np.where(below, hi, new)
        t = new
    i = int(rows[0])
    raise NumericsError(
        f"solve_increasing: row {i} (target {float(target[0])!r}) still "
        f"active after {_NEWTON_ROUNDS} rounds in [{float(lo[0])!r}, {float(hi[0])!r}]"
    )


def _reciprocal(fn: Callable) -> Callable:
    """The integrand fn(s) ds in u = 1/s: fn(1/u) / u^2, so that the range
    [a, inf) in s is [0, 1/a] in u (QUADPACK's DQAGI map)."""

    def transformed(u):
        s = 1.0 / np.asarray(u, dtype=float)
        return _eval_batch(fn, s) * s * s

    return transformed


# integrate's relative floor and evaluation budget (see its docstring).
_REL_TOL = 1e-13
_MAX_EVALS = 400_000


def integrate(fn: Callable, a: float, b: float, abs_tol: float = 1e-10) -> QuadResult:
    """Adaptive Gauss-Kronrod integration of ``fn`` over [a, b].

    Parameters
    ----------
    fn : callable
        Integrand.  Takes a 1-d array of nodes and returns an array of
        the same shape; any other shape raises ``ValueError``.
    a, b : float
        Integration limits.  ``b = math.inf`` is handled by the u = 1/s
        substitution, which requires ``a > 0``.
    abs_tol : float
        Requested absolute tolerance on the total error bound.  Refinement
        stops once the bound is below it or below the relative floor
        ``1e-13 * |value|``, which keeps large-magnitude integrals from
        demanding impossible absolute accuracy.  More than 400,000
        evaluations raise :class:`NumericsError`.

    Returns
    -------
    QuadResult
        ``value`` with ``error_bound`` such that the true integral lies
        within ``value +/- error_bound`` up to estimator reliability.

    The first GK15 panel takes one call of ``fn``; while the bound is
    above the tolerance the worst panel is halved, and both halves take
    one call together, so a result of ``evaluations`` nodes took
    ``1 + (evaluations - 15) / 30`` calls.
    """
    if not math.isfinite(a):
        raise ValueError("lower limit must be finite")
    if b < a:
        raise ValueError(f"integration limits must satisfy a <= b, got [{a!r}, {b!r}]")
    _check_tol("abs_tol", abs_tol)
    if math.isinf(b):
        if a <= 0.0:
            raise ValueError("infinite upper limit requires a > 0")
        return integrate(_reciprocal(fn), 0.0, 1.0 / a, abs_tol)
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    xs = 0.5 * (a + b) + 0.5 * (b - a) * _NODES
    val, err = _gk15_rule(a, b, xs, _eval_batch(fn, xs))
    # Interval records: (error, left, right, value).  Worst-first refinement;
    # ties are broken by insertion order, which is deterministic.  The
    # totals are sums from 0, as the loop forms them, so a first panel of
    # -0.0 gives +0.0 whether or not it is split.  A nan bound is refined.
    intervals = [(err, a, b, val)]
    evals = 15
    total, total_err = 0 + val, 0 + err
    while not total_err <= max(abs_tol, _REL_TOL * abs(total)):
        if evals + 30 > _MAX_EVALS:
            target = max(abs_tol, _REL_TOL * abs(total))
            raise NumericsError(
                f"quadrature budget exhausted: error bound {total_err:.3e} "
                f"after {evals} evaluations (target {target:.3e}, the larger "
                f"of abs_tol and {_REL_TOL:g} |value|)"
            )
        worst = max(range(len(intervals)), key=lambda i: intervals[i][0])
        _, lo, hi, _ = intervals.pop(worst)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise NumericsError(
                f"interval [{lo!r}, {hi!r}] cannot be subdivided further"
            )
        # Both halves from one call: the left half's nodes come first, so
        # a non-finite value there is still the one named.
        xs = _pair_nodes(np.array([lo, mid]), np.array([mid, hi]))
        fv = _eval_batch(fn, xs.reshape(-1)).reshape(xs.shape)
        v1, e1 = _gk15_rule(lo, mid, xs[0], fv[0])
        v2, e2 = _gk15_rule(mid, hi, xs[1], fv[1])
        intervals.append((e1, lo, mid, v1))
        intervals.append((e2, mid, hi, v2))
        evals += 30
        total = sum(iv[3] for iv in intervals)
        total_err = sum(iv[0] for iv in intervals)
    return QuadResult(total, total_err, evals)


# Dormand-Prince 5(4) tableau (Dormand & Prince 1980).  The fifth-order
# solution is propagated and its difference from the embedded fourth-order
# one drives step control, so observed global error shrinks faster than
# the tolerance (roughly tol^{5/4} on smooth problems).  The seventh stage
# is evaluated at the step end with the propagated solution, so it is also
# the first stage of the next step (FSAL: six RHS calls per attempted
# step).  _D* are Shampine's coefficients for the fourth-order continuous
# extension (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.6) that
# fills output points inside an accepted step.
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (
    19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0,
)
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
    -5103.0 / 18656.0,
)
# Fifth-order weights; they are also the seventh stage's row.  B2 = 0.
_B1, _B3, _B4, _B5, _B6 = (
    35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0,
)
# Fifth- minus fourth-order weights: the error estimator.  E2 = 0.
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0,
    22.0 / 525.0, -1.0 / 40.0,
)
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075.0 / 11282082432.0, 87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0,
)


# solve_ode's relative tolerance, absolute floor and step budget.
_ODE_REL_TOL = 1e-9
_ODE_ABS_TOL = 1e-12
_ODE_MAX_STEPS = 1_000_000


def solve_ode(
    rhs: Callable[[float, float], float],
    y0: float,
    x_eval: Sequence[float],
) -> OdeSolution:
    """Integrate the scalar IVP y' = rhs(x, y), y(x_eval[0]) = y0.

    Uses the Dormand-Prince 5(4) pair with FSAL and proportional step
    control at relative tolerance 1e-9 with an absolute floor of 1e-12.
    Step sizes are chosen by the error controller alone; only the last
    step is shortened so that it ends on ``x_eval[-1]``.  The solution is
    recorded at each point of ``x_eval`` (the returned ``xs`` equals it
    bit for bit): each accepted step that holds a point records its
    fourth-order continuous extension, and after the loop one vectorized
    pass fills every point from its step's, so a dense ``x_eval`` costs
    no extra steps or RHS calls, and a point on a step end takes the
    step's value exactly.  ``rhs`` may return NaN where it is undefined;
    a step with such a stage is rejected and retried 5x shorter.

    Raises
    ------
    NumericsError
        On step-size underflow, after 1,000,000 attempted steps, or when
        the solution or a stage of a step is infinite (it overflowed).
    ValueError
        If ``x_eval`` is not a finite, strictly increasing 1-d sequence
        of at least two points.
    """
    xe = _increasing(x_eval, "x_eval")
    x0, x1 = float(xe[0]), float(xe[-1])
    # Only a step that holds a point records its extension; next_x is the
    # first point past the last recorded step (inf past x1).
    grid = memoryview(xe)
    next_x = grid[1]
    records = []
    span = x1 - x0
    x = x0
    y = float(y0)
    h = span / 100.0
    n_steps = 0
    n_rejected = 0
    k1 = float(rhs(x, y))
    n_rhs = 1
    while x < x1:
        if h >= x1 - x:
            h = x1 - x
            x_new = x1
        else:
            x_new = x + h
        if h <= 1e-14 * max(1.0, abs(x)):
            raise NumericsError(f"step size underflow at x={x!r}")
        k2 = float(rhs(x + _C2 * h, y + h * _A21 * k1))
        k3 = float(rhs(x + _C3 * h, y + h * (_A31 * k1 + _A32 * k2)))
        k4 = float(rhs(x + _C4 * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3)))
        k5 = float(rhs(
            x + _C5 * h,
            y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4),
        ))
        k6 = float(rhs(
            x_new,
            y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5),
        ))
        y5 = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = float(rhs(x_new, y5))
        n_rhs += 6
        terms = (_E1 * k1, _E3 * k3, _E4 * k4, _E5 * k5, _E6 * k6, _E7 * k7)
        try:
            est = math.fsum(terms)
        except ValueError:  # infinite stages of both signs
            est = math.inf
        if math.isinf(est) or math.isinf(y5):
            raise NumericsError(f"solve_ode: the step from x={x!r} with h={h!r} overflows")
        err = abs(h * est)
        # An estimate within the rounding noise of the stages it combines
        # (a few ulps of each term) says nothing about the step, so it
        # counts as zero.  Otherwise a budget scaled by h / span can sit
        # below that noise at every h and drive the step to underflow.
        if err <= 4.0 * _EPS * h * math.fsum(map(abs, terms)):
            err = 0.0
        elif math.isnan(err):
            # A stage left the domain of rhs, which signals that by
            # returning NaN: reject the step and retry it 5x shorter.
            err = math.inf
        # Error budget per unit step; the global error then tracks the
        # relative tolerance.
        scale = _ODE_REL_TOL * max(abs(y), abs(y5)) + _ODE_ABS_TOL
        budget = scale * (h / span)
        if err <= budget or h <= 16.0 * _EPS * max(1.0, abs(x)):
            n_steps += 1
            if next_x <= x_new:
                # Continuous extension y + sum_j q_j theta^j, by Horner.
                r2 = y5 - y
                r3 = h * k1 - r2
                r4 = r2 - h * k7 - r3
                r5 = h * (
                    _D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6
                    + _D7 * k7
                )
                q1, q2, q3 = r2 + r3, r4 + r5 - r3, -r4 - 2.0 * r5
                records.append((x, h, y, q1, q2, q3, r5, x_new, y5))
                k = bisect.bisect_right(grid, x_new)
                next_x = grid[k] if k < len(grid) else math.inf
            x = x_new
            y = y5
            k1 = k7
        else:
            n_rejected += 1
        if n_steps + n_rejected > _ODE_MAX_STEPS:
            raise NumericsError("step budget exhausted")
        ratio = budget / err if err > 0.0 else 10.0
        h = h * min(5.0, max(0.2, 0.9 * ratio ** 0.2))
    starts, hs, y_starts, q1s, q2s, q3s, r5s, ends, y_ends = np.array(records).T
    pts = xe[1:]
    step = np.searchsorted(ends, pts)
    ye = np.empty_like(xe)
    ye[0] = y0
    # y + th (q1 + th (q2 + th (q3 + th r5))) by Horner, in place in ye[1:],
    # each coefficient gathered into the one scratch array c.
    out, c = ye[1:], np.empty_like(pts)
    th = np.subtract(pts, np.take(starts, step, out=c))
    th /= np.take(hs, step, out=c)
    np.take(r5s, step, out=out)
    for coef in (q3s, q2s, q1s, y_starts):
        out *= th
        out += np.take(coef, step, out=c)
    at_end = pts == np.take(ends, step, out=c)
    out[at_end] = y_ends[step[at_end]]
    return OdeSolution(
        xs=xe,
        ys=ye,
        n_steps=n_steps,
        n_rejected=n_rejected,
        rhs_evaluations=n_rhs,
    )


def find_root(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of fn on [lo, hi] by bisection plus one secant polish.

    Requires a sign change on the bracket; an exact zero at an endpoint or
    at a probe is returned at once.  Each probe is the bracket midpoint and
    replaces the end of its sign, until no float lies strictly between the
    ends (at most about 2,100 probes over the whole float range, so no
    budget is needed).  A single secant step between the ends, kept inside
    the bracket, then picks the end nearer the root.  A NaN value at an
    endpoint or a probe raises :class:`NumericsError`.
    """
    if not (hi > lo):
        raise ValueError("need hi > lo")
    fa = float(fn(lo))
    fb = float(fn(hi))
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    # Signs are compared directly: a product of two tiny values underflows
    # to zero and would hide a same-sign bracket.
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise NumericsError(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo)={fa!r}, f(hi)={fb!r}"
        )
    a, b = lo, hi
    while True:
        # Halved before the sum, which cannot then overflow.
        x = 0.5 * a + 0.5 * b
        if not (a < x < b):
            break
        fx = float(fn(x))
        if fx == 0.0:
            return x
        if math.isnan(fx):
            raise NumericsError(
                f"find_root: f({x!r}) is NaN inside the bracket [{a!r}, {b!r}]"
            )
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
    # When f at one end is already at rounding level the secant step rounds
    # onto that end, which is then the answer.
    x = a - fa * (b - a) / (fb - fa)
    return x if a <= x <= b else 0.5 * a + 0.5 * b
