"""Deterministic numeric kernels: adaptive quadrature, an embedded
Runge-Kutta integrator, bracketed root finding, and a safeguarded Newton
inversion of integrals, vectorized over rows.

All routines are reproducible bit for bit across runs: there is no
randomness, no thread-order dependence, and refinement always proceeds in
a fixed order.  Convergence failures raise :class:`NumericsError` rather
than returning a degraded result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NumericsError",
    "QuadResult",
    "OdeSolution",
    "integrate",
    "integrate_panels",
    "integrate_intervals",
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


def _gk15(fn: Callable, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7-15 panel on [a, b].

    Returns (kronrod value, error estimate).  The estimate follows the
    usual rescaled |K15 - G7| rule, which is sharp on smooth integrands
    and conservative near integrable singularities.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid + half * _NODES
    fv = _eval_batch(fn, xs)
    if not np.all(np.isfinite(fv)):
        bad = float(xs[~np.isfinite(fv)][0])
        raise NumericsError(f"integrand not finite at x={bad!r}")
    resk = half * float(_WKF @ fv)
    resg = half * float(_WGF @ fv)
    resabs = abs(half) * float(_WKF @ np.abs(fv))
    mean = resk / (b - a) if b != a else 0.0
    resasc = abs(half) * float(_WKF @ np.abs(fv - mean))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    # Guard against an error estimate below attainable rounding.
    err = max(err, 50.0 * np.finfo(float).eps * resabs)
    return resk, err


def _check_tol(name: str, tol: float, zero_ok: bool = False) -> None:
    """ValueError unless ``tol`` is finite and > 0 (or 0 if ``zero_ok``)."""
    if not (math.isfinite(tol) and (tol > 0.0 or zero_ok and tol == 0.0)):
        sign = ">=" if zero_ok else ">"
        raise ValueError(f"{name} must be finite and {sign} 0, got {tol!r}")


def _edges(edges) -> np.ndarray:
    e = np.asarray(edges, dtype=float)
    if e.ndim != 1 or e.size < 2:
        raise ValueError("edges must be a 1-d sequence of at least two points")
    if not np.all(np.isfinite(e)) or np.any(np.diff(e) <= 0.0):
        raise ValueError("edges must be finite and strictly increasing")
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
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc > 0.0) & (err > 0.0), scaled, err)
    return resk, np.maximum(err, 50.0 * _EPS * resabs)


def integrate_panels(
    fn: Callable, a, b, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Integral of ``fn`` over each interval [a[i], b[i]], with bounds.

    Every interval gets one GK15 panel from a single vectorized call of
    ``fn``.  An interval whose error estimate exceeds ``tol``, or 2e-14
    of its own value when that is larger (the panel rule's rounding floor
    is 50 eps of it), is redone by adaptive :func:`integrate` to that
    tolerance.  The intervals may overlap and come in any order.

    Raises
    ------
    ValueError
        If ``a`` and ``b`` are not finite 1-d arrays of one length with
        ``a < b`` elementwise, or ``fn`` does not give one value per node.
    NumericsError
        If ``fn`` is not finite at a node, or a fallback fails.
    """
    _check_tol("tol", tol)
    lo = np.asarray(a, dtype=float)
    hi = np.asarray(b, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("a and b must be 1-d arrays of one length")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo < hi)):
        raise ValueError("intervals must be finite with a < b")
    xs = _pair_nodes(lo, hi)
    fv = _eval_batch(fn, xs.reshape(-1)).reshape(xs.shape)
    if not np.all(np.isfinite(fv)):
        bad = float(xs[~np.isfinite(fv)][0])
        raise NumericsError(f"integrand not finite at x={bad!r}")
    vals, err = _pair_rule(lo, hi, fv)
    tol_vec = np.maximum(tol, 2e-14 * np.abs(vals))
    for i in np.flatnonzero(err > tol_vec):
        res = integrate(fn, float(lo[i]), float(hi[i]), abs_tol=float(tol_vec[i]))
        vals[i], err[i] = res.value, res.error_bound
    return vals, err


def integrate_intervals(
    fn: Callable, edges, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Integral of ``fn`` over each interval between ``edges``, with bounds.

    :func:`integrate_panels` on consecutive edges, each interval held to
    its share ``tol / len(edges)`` of the tolerance.  Returns the values
    and error bounds per interval; their cumulative sums are the integral
    from ``edges[0]`` to each edge.
    """
    e = _edges(edges)
    return integrate_panels(fn, e[:-1], e[1:], tol / e.size)


# A row of solve_increasing takes at most this many Newton rounds, and
# each of its panels is held to this fraction of the tolerance, so the
# panel errors along a row sum to at most the tolerance (or their
# relative floors).
_NEWTON_ROUNDS = 64
# A row stops once its raw Newton step is at most this fraction of the
# iterate; the step is then applied, which leaves an error of the order
# of its square.
_NEWTON_RTOL = 1e-10


def solve_increasing(
    density: Callable,
    target,
    t,
    value,
    lo,
    hi,
    tol: float,
) -> np.ndarray:
    """Roots of F(t) = target, row by row, for increasing F with F' = density.

    Row i starts at ``t[i]``, where F is known to be ``value[i]``, and
    its bracket ``[lo[i], hi[i]]`` holds the root (``hi`` may be inf; the
    start is then ``lo``).  Every round, all rows still active take one
    Newton step (target - F) / density together.  A row whose raw step is
    at most 1e-10 of its iterate stops there and returns the iterate plus
    that step; the test comes before the safeguard, so a rounding-level
    step that would land on a bracket end does not bisect.  Otherwise a
    step that leaves the open bracket goes to the bracket midpoint
    instead, F at the new iterate is F at the old one plus one GK15 panel
    of ``density`` between them (:func:`integrate_panels`, all rows in one
    call, each panel held to ``tol / 64``), and the new iterate replaces
    the bracket end on its side of the root.

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
    out = np.empty_like(t)
    rows = np.arange(t.size)
    for _ in range(_NEWTON_ROUNDS):
        step = (target - value) / density(t)
        done = np.abs(step) <= _NEWTON_RTOL * np.abs(t)
        out[rows[done]] = t[done] + step[done]
        if done.all():
            return out
        keep = ~done
        rows, t, step, value, target, lo, hi = (
            x[keep] for x in (rows, t, step, value, target, lo, hi)
        )
        new = t + step
        outside = ~((lo < new) & (new < hi))
        if np.any(outside & np.isinf(hi)):
            i = int(np.flatnonzero(outside & np.isinf(hi))[0])
            raise NumericsError(
                f"solve_increasing: step from t={float(t[i])!r} leaves "
                f"[{float(lo[i])!r}, inf) for target {float(target[i])!r}"
            )
        new = np.where(outside, 0.5 * (lo + hi), new)
        if np.any(new == t):
            i = int(np.flatnonzero(new == t)[0])
            raise NumericsError(
                f"solve_increasing: bracket [{float(lo[i])!r}, {float(hi[i])!r}] "
                f"closed with a step of {float(step[i])!r} left for target "
                f"{float(target[i])!r}"
            )
        up = new > t
        vals, _ = integrate_panels(
            density, np.where(up, t, new), np.where(up, new, t), tol / _NEWTON_ROUNDS
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


def integrate(
    fn: Callable,
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-13,
    max_evals: int = 400_000,
) -> QuadResult:
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
        Requested absolute tolerance on the total error bound.
    rel_tol : float
        Relative floor: refinement stops once the error bound is below
        ``max(abs_tol, rel_tol * |value|)``.  Keeps large-magnitude
        integrals from demanding impossible absolute accuracy.
    max_evals : int
        Evaluation budget; exceeding it raises :class:`NumericsError`.

    Returns
    -------
    QuadResult
        ``value`` with ``error_bound`` such that the true integral lies
        within ``value +/- error_bound`` up to estimator reliability.
    """
    if not math.isfinite(a):
        raise ValueError("lower limit must be finite")
    if b < a:
        raise ValueError(f"integration limits must satisfy a <= b, got [{a!r}, {b!r}]")
    _check_tol("abs_tol", abs_tol)
    _check_tol("rel_tol", rel_tol, zero_ok=True)
    if math.isinf(b):
        if b < 0:
            raise ValueError("lower-infinite limits are not supported")
        if a <= 0.0:
            raise ValueError("infinite upper limit requires a > 0")
        inner = fn

        def transformed(u):
            u = np.asarray(u, dtype=float)
            s = 1.0 / u
            return _eval_batch(inner, s) * s * s

        return integrate(transformed, 0.0, 1.0 / a, abs_tol, rel_tol, max_evals)
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    val, err = _gk15(fn, a, b)
    # Interval records: (error, left, right, value).  Worst-first refinement;
    # ties are broken by insertion order, which is deterministic.
    intervals = [(err, a, b, val)]
    evals = 15
    while True:
        total = sum(iv[3] for iv in intervals)
        total_err = sum(iv[0] for iv in intervals)
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            return QuadResult(total, total_err, evals)
        if evals + 30 > max_evals:
            raise NumericsError(
                f"quadrature budget exhausted: error bound {total_err:.3e} "
                f"after {evals} evaluations (target {abs_tol:.3e})"
            )
        worst = max(range(len(intervals)), key=lambda i: intervals[i][0])
        _, lo, hi, _ = intervals.pop(worst)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise NumericsError(
                f"interval [{lo!r}, {hi!r}] cannot be subdivided further"
            )
        v1, e1 = _gk15(fn, lo, mid)
        v2, e2 = _gk15(fn, mid, hi)
        intervals.append((e1, lo, mid, v1))
        intervals.append((e2, mid, hi, v2))
        evals += 30


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


def solve_ode(
    rhs: Callable[[float, float], float],
    y0: float,
    x0: float,
    x1: float,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    x_eval: Sequence[float] | None = None,
    max_steps: int = 1_000_000,
) -> OdeSolution:
    """Integrate the scalar IVP y' = rhs(x, y), y(x0) = y0, up to x1.

    Uses the Dormand-Prince 5(4) pair with FSAL and proportional step
    control.  Step sizes are chosen by the error controller alone; only
    the last step is shortened so that it ends on x1.  Output abscissae
    that fall inside an accepted step are filled from that step's
    fourth-order continuous extension, so a dense ``x_eval`` costs no
    extra steps or RHS calls.  A point on a step end takes the step's
    value exactly.  ``rhs`` may return NaN where it is undefined; a step
    with such a stage is rejected and retried 5x shorter.

    Parameters
    ----------
    x_eval : sequence of float, optional
        Strictly increasing abscissae in [x0, x1] at which the solution is
        recorded; the returned ``xs`` equals them bit for bit.  When
        omitted every accepted step is recorded.

    Raises
    ------
    NumericsError
        On step-size underflow or step-budget exhaustion.
    ValueError
        If x1 <= x0 or x_eval leaves [x0, x1] or is not increasing.
    """
    if not (x1 > x0):
        raise ValueError("x1 must exceed x0")
    _check_tol("rel_tol", rel_tol)
    _check_tol("abs_tol", abs_tol, zero_ok=True)
    if x_eval is not None:
        xe = np.array(x_eval, dtype=float)
        if xe.ndim != 1 or xe.size == 0:
            raise ValueError("x_eval must be a nonempty 1-d sequence")
        if np.any(np.diff(xe) <= 0.0):
            raise ValueError("x_eval must be strictly increasing")
        if xe[0] < x0 or xe[-1] > x1:
            raise ValueError("x_eval must lie within [x0, x1]")
        ye = np.empty_like(xe)
        eval_idx = 0
        if xe[0] == x0:
            ye[0] = y0
            eval_idx = 1
        next_x = float(xe[eval_idx]) if eval_idx < xe.size else math.inf
    else:
        xe = None
        out_x: list[float] = [x0]
        out_y: list[float] = [float(y0)]

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
        err = abs(h * math.fsum(terms))
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
        # Error budget per unit step; the global error then tracks rel_tol.
        scale = rel_tol * max(abs(y), abs(y5)) + abs_tol
        budget = scale * (h / span)
        if err <= budget or h <= 16.0 * _EPS * max(1.0, abs(x)):
            n_steps += 1
            if xe is None:
                out_x.append(x_new)
                out_y.append(y5)
            elif next_x <= x_new:
                # Continuous extension y + sum_j q_j theta^j, by Horner.
                r2 = y5 - y
                r3 = h * k1 - r2
                r4 = r2 - h * k7 - r3
                r5 = h * (
                    _D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6
                    + _D7 * k7
                )
                q1, q2, q3 = r2 + r3, r4 + r5 - r3, -r4 - 2.0 * r5
                stop = int(np.searchsorted(xe, x_new, side="right"))
                th = (xe[eval_idx:stop] - x) / h
                ye[eval_idx:stop] = y + th * (q1 + th * (q2 + th * (q3 + th * r5)))
                if xe[stop - 1] == x_new:
                    ye[stop - 1] = y5
                eval_idx = stop
                next_x = float(xe[stop]) if stop < xe.size else math.inf
            x = x_new
            y = y5
            k1 = k7
        else:
            n_rejected += 1
        if n_steps + n_rejected > max_steps:
            raise NumericsError("step budget exhausted")
        ratio = budget / err if err > 0.0 else 10.0
        h = h * min(5.0, max(0.2, 0.9 * ratio ** 0.2))
    if xe is None:
        xe, ye = np.array(out_x), np.array(out_y)
    return OdeSolution(
        xs=xe,
        ys=ye,
        n_steps=n_steps,
        n_rejected=n_rejected,
        rhs_evaluations=n_rhs,
    )


def find_root(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Root of fn on [lo, hi] by Brent's method plus one secant polish.

    Requires a sign change on the bracket; an exact zero at an endpoint or
    at a probe is returned at once.  Each probe is an inverse quadratic or
    secant step through the last three iterates, taken only when it lands
    well inside the bracket and shrinks fast enough, and a bisection
    otherwise (Brent, *Algorithms for Minimization without Derivatives*,
    1973, ch. 4).  A step shorter than ``tol / 2`` is lengthened to
    ``tol / 2`` so the bracket closes around a converged iterate.  Stall
    safeguard: whenever two probes have not halved the bracket the next
    one bisects, so a flat root such as (x - r)^15 costs at most three
    probes per halving.

    The loop ends when the bracket is at most ``tol`` wide or its ends are
    adjacent floats; a single secant step between its ends, kept inside
    it, then polishes the estimate.  Running out of ``max_iter`` probes
    before that, or a NaN value at an endpoint or a probe, raises
    :class:`NumericsError`.
    """
    if not (hi > lo):
        raise ValueError("need hi > lo")
    _check_tol("tol", tol)
    flo = float(fn(lo))
    fhi = float(fn(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    # Signs are compared directly: a product of two tiny values underflows
    # to zero and would hide a same-sign bracket.
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        raise NumericsError(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo)={flo!r}, f(hi)={fhi!r}"
        )
    # b is the best iterate, c the other end of the bracket (f(c) has the
    # opposite sign) and a the previous b.  d is the last step, e the one
    # before it; w1 and w2 are the bracket widths one and two probes ago.
    a, fa = lo, flo
    b, fb, c, fc = hi, fhi, lo, flo
    d = e = b - a
    step_min = 0.5 * tol
    w1 = w2 = math.inf
    for probes in range(max_iter + 1):
        if abs(fc) < abs(fb):
            a, fa = b, fb
            b, fb, c, fc = c, fc, b, fb
        half = 0.5 * (c - b)
        m = b + half
        width = abs(c - b)
        if width <= tol or not (min(b, c) < m < max(b, c)):
            break
        if probes == max_iter:
            raise NumericsError(
                f"find_root: bracket [{min(b, c)!r}, {max(b, c)!r}] is still "
                f"wider than tol={tol!r} after {max_iter} probes"
            )
        stalled = width > 0.5 * w2
        w2, w1 = w1, width
        if not stalled and abs(e) >= step_min and abs(fa) > abs(fb):
            # Interpolate in ratios of f values, so tiny or huge values of
            # f cannot underflow or overflow; q == 0 falls through to
            # bisection.
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * half * q - abs(step_min * q), abs(e * q)):
                e, d = d, p / q
            else:
                e = d = half
        else:
            e = d = half
        a, fa = b, fb
        x = b + (d if abs(d) > step_min else math.copysign(step_min, half))
        if not (min(b, c) < x < max(b, c)):
            x = m
        fx = float(fn(x))
        if fx == 0.0:
            return x
        if math.isnan(fx):
            raise NumericsError(
                f"find_root: f({x!r}) is NaN inside the bracket "
                f"[{min(b, c)!r}, {max(b, c)!r}]"
            )
        b, fb = x, fx
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            e = d = b - a
    # Secant polish between the final bracket ends, kept inside it.  When f
    # at one end is already at rounding level the step rounds onto that
    # end, which is then the answer (not the midpoint).
    a, b, fa, fb = (b, c, fb, fc) if b < c else (c, b, fc, fb)
    if fb != fa:
        x = a - fa * (b - a) / (fb - fa)
        if a <= x <= b:
            return x
    return 0.5 * (a + b)
