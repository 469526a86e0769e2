"""Checks against an independent high-precision oracle (mpmath)."""

import mpmath
import numpy as np

from ahiso.profiles import hyperbolic_profile


def _hyperbolic_profile_oracle(v):
    """4 pi sinh^2 rho with pi (sinh 2 rho - 2 rho) = v, at 40 digits."""
    with mpmath.workdps(40):
        v = mpmath.mpf(v)
        hi = mpmath.mpf(1)
        while mpmath.pi * (mpmath.sinh(2 * hi) - 2 * hi) < v:
            hi *= 2
        rho = mpmath.findroot(
            lambda r: mpmath.pi * (mpmath.sinh(2 * r) - 2 * r) - v,
            (mpmath.mpf(0), hi),
            solver="illinois",
        )
        return 4 * mpmath.pi * mpmath.sinh(rho) ** 2


def _relative_error(v):
    want = _hyperbolic_profile_oracle(v)
    return float(abs(hyperbolic_profile(v) - want) / want)


def test_hyperbolic_profile_matches_oracle_over_volume_range():
    errors = {v: _relative_error(v) for v in np.geomspace(0.1, 1e7, 200).tolist()}
    worst = max(errors, key=errors.get)
    assert errors[worst] <= 1e-14, f"relative error {errors[worst]:.3g} at v={worst!r}"


def test_hyperbolic_profile_matches_oracle_at_pinned_volume():
    # Bisection plus a secant polish between tol-wide bracket ends gave a
    # 3.7e-12 relative error here.
    assert _relative_error(389.36723631191836) <= 1e-14
