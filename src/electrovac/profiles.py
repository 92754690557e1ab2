"""Radial profiles: scalar functions of the area radius with two derivatives.

A profile is its jet: a map from radii inside an open interval to the value
and its first two derivatives at once, in closed form or from an
interpolant. Its value is the jet's first part. The ``mode`` attribute
records how accurate the derivatives are, so callers can pick tolerances
accordingly.

A radius of type float is evaluated in Python floats, by the same expressions
that evaluate arrays, and numpy is imported only on first array use, so a
command that reads only scalar radii never loads it (``float_pass``).
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from types import ModuleType
from typing import Callable

from .errors import DomainError, NumericsError, ParameterError, as_float


class _LazyNumpy(ModuleType):
    """numpy, imported on the first read of an attribute this module lacks,
    whose namespace is then copied here, so later reads are plain lookups.
    The import is a plain import statement, under the import system's lock,
    so threads that read first at once each get the whole module, and
    nothing stands in for numpy in sys.modules."""

    def __getattr__(self, name):
        import numpy

        self.__dict__.update(numpy.__dict__)
        return getattr(numpy, name)


# The modules that read scalar radii take numpy from here; an ``import numpy``
# would load it at once.
np = sys.modules.get("numpy") or _LazyNumpy("numpy")

MODE_CLOSED_FORM = "closed-form"
MODE_FINITE_DIFFERENCE = "finite-difference"

_JET_PARTS = ("value", "first derivative", "second derivative")


def quiet():
    """numpy's floating-point warnings off, as np.errstate(all="ignore"), once
    numpy is imported. Before that no numpy arithmetic has run, and the
    context changes nothing, so a float pass that meets no numpy loads none."""
    return np.errstate(all="ignore") if "numpy" in sys.modules else contextlib.nullcontext()


def sqrt(x):
    """math.sqrt of a float, np.sqrt of anything else."""
    return math.sqrt(x) if type(x) is float else np.sqrt(x)


def float_pass(fn):
    """fn, computed in Python floats when its argument ``r``, given by
    position or by keyword, is a float.

    Python float arithmetic raises where numpy's returns inf or nan: a
    ZeroDivisionError, an OverflowError from ``**`` or a math-domain
    ValueError. When the float pass raises one of these, fn runs again on r
    as a 0-d array, passed as r was, so it returns or raises what the array
    path does.
    Otherwise the results agree bit for bit, as long as the Python
    operations fn applies are ones that Python and numpy round alike (+ - *
    /, abs, sqrt); a numpy function runs on a float as on a 0-d array.
    """
    at = fn.__code__.co_varnames.index("r")

    @functools.wraps(fn)
    def call(*args, **kwargs):
        positional = len(args) > at
        r = args[at] if positional else kwargs.get("r")
        if type(r) is float:
            try:
                return fn(*args, **kwargs)
            except (ZeroDivisionError, OverflowError, ValueError):
                if positional:
                    args = (*args[:at], np.asarray(r), *args[at + 1:])
                else:
                    kwargs = {**kwargs, "r": np.asarray(r)}
        return fn(*args, **kwargs)

    return call


def float_array(value, what: str, error: type = DomainError):
    """value as a float array; error (DomainError by default) where the
    conversion overflows, as for an int beyond the float range, which numpy
    rejects with a bare OverflowError: errors.as_float for arrays."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise error(f"{what} is too large for a float") from None


def require_open(r, domain, what: str):
    """r as a float array, or unchanged if it is a float; DomainError naming
    the first radius not strictly inside the open interval domain, NaN
    included, "radius ... outside <what> (lo, hi)", or for an int radius,
    alone or in a sequence, beyond the float range."""
    lo, hi = domain
    if type(r) is float:
        if not lo < r < hi:
            raise DomainError(f"radius {r} outside {what} ({lo}, {hi})")
        return r
    r = float_array(r, "radius")
    inside = (r > lo) & (r < hi)
    if not inside.all():
        bad = r if r.ndim == 0 else r[~inside][0]
        raise DomainError(f"radius {float(bad)} outside {what} ({lo}, {hi})")
    return r


def _finite(out, what: str):
    if type(out) is float:
        if not math.isfinite(out):
            raise NumericsError(f"profile {what} is non-finite inside the domain")
        return out
    out = np.asarray(out, dtype=float)
    if not np.isfinite(out).all():
        raise NumericsError(f"profile {what} is non-finite inside the domain")
    return out[()]


def finite_jet(parts):
    """The three parts (f, f', f'') of a jet, each checked finite, in order."""
    return tuple(_finite(out, what) for out, what in zip(parts, _JET_PARTS))


class RadialProfile:
    """A scalar function of r on an open interval with two derivatives.

    Parameters
    ----------
    jet : callable
        Vectorized map r -> (f, f', f''), which may share work between the
        three, such as one table lookup or one pass over a common
        subexpression.
    domain : pair of floats
        Open interval of validity.
    mode : str
        MODE_CLOSED_FORM (the default) or MODE_FINITE_DIFFERENCE. A profile
        whose jet is only as accurate as a difference scheme, such as a table
        spline, passes MODE_FINITE_DIFFERENCE, so callers pick the loose
        tolerance.

    ``jet(r)`` checks the domain once, computes the three parts with numpy's
    warnings off and checks their finiteness once, in order, so a part that
    overflows raises NumericsError without a RuntimeWarning. It returns a
    scalar part for a scalar radius; ``d1`` and ``d2`` are its second and
    third parts. ``value(r)`` is the jet's first part, checked alone, so a
    non-finite derivative never makes a value read warn or raise. A float
    radius is passed to the jet as a float (``float_pass``); a jet that
    returns numpy scalars or 0-d arrays for it gives numpy scalars.
    """

    def __init__(self, jet: Callable, *, domain: tuple[float, float] = (0.0, math.inf),
                 mode: str = MODE_CLOSED_FORM):
        lo, hi = (as_float(edge, "profile domain edge", DomainError)
                  for edge in (domain[0], domain[1]))
        if not lo < hi:
            raise DomainError(f"empty profile domain ({lo}, {hi})")
        modes = (MODE_CLOSED_FORM, MODE_FINITE_DIFFERENCE)
        if mode not in modes:
            raise ParameterError(f"profile mode {mode!r} is not one of {modes}")
        self._jet = jet
        self.domain = (lo, hi)
        self.mode = mode

    def require_inside(self, r):
        return require_open(r, self.domain, "open domain")

    @float_pass
    def value(self, r):
        r = self.require_inside(r)
        with quiet():
            return _finite(self._jet(r)[0], "value")

    __call__ = value

    def d1(self, r):
        return self.jet(r)[1]

    def d2(self, r):
        return self.jet(r)[2]

    @float_pass
    def jet(self, r):
        """(f, f', f'') at r."""
        r = self.require_inside(r)
        with quiet():
            return finite_jet(self._jet(r))


def constant_profile(c: float, domain=(0.0, math.inf)) -> RadialProfile:
    def jet(r):
        return np.full_like(r, float(c)), np.zeros_like(r), np.zeros_like(r)

    return RadialProfile(jet=jet, domain=domain)


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
    Its own derivatives make the jet, but interpolation error scales like a
    difference scheme, so the profile reports finite-difference mode and
    callers should use the loose tolerance.
    """
    radii, values = (float_array(x, "table entry", NumericsError) for x in (radii, values))
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

    def jet(r):
        # RadialProfile admits only radii inside the open table interval,
        # so the piece index lies in [0, radii.size - 2]; a knot takes its right piece.
        i = np.searchsorted(radii, r, side="right") - 1
        h = r - radii[i]
        a3, a2, a1 = c3[i], c2[i], c1[i]
        return (((a3 * h + a2) * h + a1) * h + c0[i],
                (3.0 * a3 * h + 2.0 * a2) * h + a1,
                6.0 * a3 * h + 2.0 * a2)

    # Spline derivatives are exact derivatives of the interpolant; keep them,
    # but report finite-difference mode: accuracy is set by the table.
    return RadialProfile(jet=jet, domain=(radii[0], radii[-1]), mode=MODE_FINITE_DIFFERENCE)
