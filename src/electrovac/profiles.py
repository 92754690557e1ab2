"""Radial profiles: scalar functions of the area radius with two derivatives.

A profile evaluates its value and first two derivatives at radii inside an
open interval. Derivatives are either supplied in closed form or produced by
central finite differences on the value; the ``mode`` attribute records which,
so callers can pick tolerances accordingly.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericsError, ParameterError

_EPS = float(np.finfo(float).eps)

MODE_CLOSED_FORM = "closed-form"
MODE_FINITE_DIFFERENCE = "finite-difference"


def _fd_step(r):
    # Cube-root-of-eps step, floored so tiny radii do not starve the stencil.
    return np.maximum(_EPS ** (1.0 / 3.0) * (1.0 + np.abs(r)), 1e-6)


class RadialProfile:
    """A scalar function of r on an open interval with two derivatives.

    Parameters
    ----------
    value : callable
        Vectorized map r -> f(r).
    d1, d2 : callable, optional
        Closed-form first and second derivatives. Both must be given for the
        profile to be in closed-form mode; otherwise central differences on
        ``value`` are used and ``mode`` reports "finite-difference".
    domain : pair of floats
        Open interval of validity.
    mode : str, optional
        MODE_CLOSED_FORM or MODE_FINITE_DIFFERENCE. Defaults to closed-form
        exactly when both derivatives are given, and may only be closed-form
        then. A profile whose supplied derivatives are only as accurate as a
        difference scheme passes MODE_FINITE_DIFFERENCE, so callers pick the
        loose tolerance.
    """

    def __init__(
        self,
        value: Callable,
        d1: Optional[Callable] = None,
        d2: Optional[Callable] = None,
        domain: tuple[float, float] = (0.0, np.inf),
        mode: Optional[str] = None,
    ):
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise DomainError(f"empty profile domain ({lo}, {hi})")
        self._value = value
        self._d1 = d1
        self._d2 = d2
        self.domain = (lo, hi)
        # Closed-form mode needs both derivatives; the first allowed mode is the default.
        allowed = ((MODE_CLOSED_FORM, MODE_FINITE_DIFFERENCE) if (d1 is not None and d2 is not None)
                   else (MODE_FINITE_DIFFERENCE,))
        if mode is None:
            mode = allowed[0]
        elif mode not in allowed:
            raise ParameterError(f"profile mode {mode!r} is not one of {allowed}")
        self.mode = mode

    def require_inside(self, r):
        r = np.asarray(r, dtype=float)
        lo, hi = self.domain
        if np.any(r <= lo) or np.any(r >= hi):
            bad = r if r.ndim == 0 else r[(r <= lo) | (r >= hi)][0]
            raise DomainError(f"radius {float(bad)} outside open domain ({lo}, {hi})")

    def _check_finite(self, out, what):
        if not np.all(np.isfinite(out)):
            raise NumericsError(f"profile {what} is non-finite inside the domain")
        return out

    def value(self, r):
        self.require_inside(r)
        out = np.asarray(self._value(np.asarray(r, dtype=float)), dtype=float)
        return self._check_finite(out, "value")[()]

    __call__ = value

    def d1(self, r):
        self.require_inside(r)
        r = np.asarray(r, dtype=float)
        if self._d1 is not None:
            out = np.asarray(self._d1(r), dtype=float)
        else:
            h = self._fd_safe_step(r)
            out = (self._value(r + h) - self._value(r - h)) / (2.0 * h)
        return self._check_finite(out, "first derivative")[()]

    def d2(self, r):
        self.require_inside(r)
        r = np.asarray(r, dtype=float)
        if self._d2 is not None:
            out = np.asarray(self._d2(r), dtype=float)
        else:
            h = self._fd_safe_step(r)
            out = (self._value(r + h) - 2.0 * self._value(r) + self._value(r - h)) / (h * h)
        return self._check_finite(out, "second derivative")[()]

    def _fd_safe_step(self, r):
        # Shrink the stencil near the domain edges so r +/- h stays inside.
        lo, hi = self.domain
        h = _fd_step(r)
        gap = np.minimum(r - lo, hi - r) * 0.5
        h = np.where(gap < h, gap, h)
        if np.any(h <= 0):
            raise DomainError("radius too close to the domain edge for a difference stencil")
        return h


def constant_profile(c: float, domain=(0.0, np.inf)) -> RadialProfile:
    return RadialProfile(
        lambda r: np.full_like(np.asarray(r, dtype=float), float(c)),
        d1=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        d2=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        domain=domain,
    )


def _not_a_knot_slopes(x, y):
    """Knot slopes of the not-a-knot cubic spline through (x, y), x.size >= 4.

    This is the tridiagonal system of scipy's ``CubicSpline`` with its default
    boundary condition: continuity of the second derivative at every interior
    knot, and of the third derivative at the second and second-to-last knots.
    It is solved by elimination on the three bands, O(n) with no dense matrix.
    No pivoting is needed: the pivots are dx[1] on row 0, dx[0] + dx[1] on
    row 1, more than 2 dx[i-1] on each row i from 2 to n - 2, and positive on
    the last row.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    n = x.size
    lower, diag, upper, rhs = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    # row i: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1]
    lower[1:-1], diag[1:-1], upper[1:-1] = dx[1:], 2.0 * (dx[:-1] + dx[1:]), dx[:-1]
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    lower[-1], diag[-1] = d, dx[-2]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    # Python floats: a scalar loop over lists beats numpy element access.
    lower, diag, upper, rhs = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    s = [0.0] * n
    s[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
    return np.array(s), slope


def tabulated_profile(radii, values) -> RadialProfile:
    """Not-a-knot cubic-spline profile through strictly increasing sample radii.

    The spline is the one scipy's ``CubicSpline`` builds by default: the first
    two and the last two cubic pieces join with a continuous third derivative.
    Its own derivatives back d1/d2, but interpolation error scales like a
    difference scheme, so the profile reports finite-difference mode and
    callers should use the loose tolerance.
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.ndim != 1 or radii.size < 4:
        raise DomainError("need at least 4 samples for a cubic table profile")
    if np.any(np.diff(radii) <= 0):
        raise DomainError("table radii must be strictly increasing")
    if not (np.all(np.isfinite(radii)) and np.all(np.isfinite(values))):
        raise NumericsError("non-finite entries in table")
    s, slope = _not_a_knot_slopes(radii, values)
    # Horner coefficients per interval: f = ((c3 h + c2) h + c1) h + c0, h = r - radii[i].
    dx = np.diff(radii)
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    c3, c2, c1, c0 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], values[:-1]

    def locate(r):
        # RadialProfile admits only radii inside the open table interval,
        # so the piece index lies in [0, radii.size - 2]; a knot takes its right piece.
        i = np.searchsorted(radii, r, side="right") - 1
        return i, r - radii[i]

    def value(r):
        i, h = locate(r)
        return ((c3[i] * h + c2[i]) * h + c1[i]) * h + c0[i]

    def d1(r):
        i, h = locate(r)
        return (3.0 * c3[i] * h + 2.0 * c2[i]) * h + c1[i]

    def d2(r):
        i, h = locate(r)
        return 6.0 * c3[i] * h + 2.0 * c2[i]

    # Spline derivatives are exact derivatives of the interpolant; keep them,
    # but report finite-difference mode: accuracy is set by the table.
    return RadialProfile(value, d1, d2, domain=(radii[0], radii[-1]),
                         mode=MODE_FINITE_DIFFERENCE)
