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

import bisect
import contextlib
import functools
import itertools
import math
import sys
from types import ModuleType
from typing import Callable, Optional

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
    """value as a float array; error (DomainError by default) for a str,
    bytes or bytearray, or strings in an array or sequence, which numpy would
    parse, and where the conversion overflows, as for an int beyond the float
    range, which numpy rejects with a bare OverflowError: errors.as_float for
    arrays."""
    if isinstance(value, (str, bytes, bytearray)) or np.asarray(value).dtype.kind in "US":
        raise error(f"{what} must be a number, got {value!r}")
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise error(f"{what} is too large for a float") from None


def one_radius(r) -> float:
    """r as a float, for a call that takes one radius: a float, an int or a
    0-d array, say. DomainError naming r for anything float() refuses, such
    as a sequence or an array of one or more dimensions, where it raises a
    bare TypeError."""
    try:
        return as_float(r, "radius", DomainError)
    except (TypeError, ValueError):
        raise DomainError(f"expected one radius, got {r!r}") from None


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
    f, f1, f2 = parts
    return _finite(f, "value"), _finite(f1, "first derivative"), _finite(f2, "second derivative")


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


def _not_a_knot_slopes(x: list, y: list) -> tuple[list, list, list]:
    """Knot slopes of the not-a-knot cubic spline through (x, y), len(x) >= 4,
    with the knot spacings and the secant slopes, in Python floats.

    This is the tridiagonal system of scipy's ``CubicSpline`` with its default
    boundary condition: continuity of the second derivative at every interior
    knot, and of the third derivative at the second and second-to-last knots.
    It is solved by elimination on the three bands, O(n) with no dense matrix.
    No pivoting is needed: the pivots are dx[1] on row 0, dx[0] + dx[1] on
    row 1, more than 2 dx[i-1] on each row i from 2 to n - 2, and positive on
    the last row. The squares are ``**`` powers, which round as numpy's do.
    """
    n = len(x)
    dx = [b - a for a, b in zip(x, x[1:])]
    slope = [(b - a) / h for a, b, h in zip(y, y[1:], dx)]
    # row i: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1]
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lower = [0.0, *dx[1:], d1]
    diag = [dx[1], *(2.0 * (a + b) for a, b in zip(dx, dx[1:])), dx[-2]]
    upper = [d0, *dx[:-1], 0.0]
    rhs = [((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0,
           *(3.0 * (b * p + a * q) for a, b, p, q in zip(dx, dx[1:], slope, slope[1:])),
           (dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1]
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    s = [0.0] * n
    s[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
    return s, dx, slope


def _pieces(x: list, y: list) -> list:
    """Horner coefficients (c3, c2, c1, c0) of each piece of the spline through
    (x, y): f = ((c3 h + c2) h + c1) h + c0 with h = r - x[i] on piece i."""
    s, dx, slope = _not_a_knot_slopes(x, y)
    out = []
    for i, (h, m) in enumerate(zip(dx, slope)):
        t = (s[i] + s[i + 1] - 2.0 * m) / h
        out.append((t / h, (m - s[i]) / h - t, s[i], y[i]))
    return out


def _horner(a3, a2, a1, a0, h):
    return (((a3 * h + a2) * h + a1) * h + a0,
            (3.0 * a3 * h + 2.0 * a2) * h + a1,
            6.0 * a3 * h + 2.0 * a2)


def _float_list(x, what: str) -> list:
    """x as a list of floats: a list or tuple of floats as it is, anything
    else through a 1-D float array; DomainError naming what otherwise."""
    if type(x) in (list, tuple) and all(type(v) is float for v in x):
        return list(x)
    x = float_array(x, "table entry", NumericsError)
    if x.ndim != 1:
        raise DomainError(f"table {what} must be one-dimensional")
    return x.tolist()


class _Spline:
    """Not-a-knot cubic splines of one or more columns through shared knots.

    They are built and read at a float radius in Python floats, a piece found
    by bisect; the read-only arrays that radius arrays read, with the same
    Horner expressions, are a functools.cached_property: built on the first
    array read and stored by one assignment, so first reads from many threads
    each see a whole set.
    """

    def __init__(self, knots: list, columns: list):
        self.knots = knots
        self.pieces = [_pieces(knots, col) for col in columns]

    @functools.cached_property
    def _arrays(self):
        knots = np.array(self.knots)
        pieces = [np.array(list(zip(*col))) for col in self.pieces]
        for a in (knots, *pieces):
            a.flags.writeable = False
        return knots, pieces

    def jets(self, r, columns) -> list:
        """The jets (f, f', f'') at r, inside the knots' open interval, of the
        columns numbered in columns; a knot takes its right piece."""
        if type(r) is float:
            i = bisect.bisect_right(self.knots, r) - 1
            h = r - self.knots[i]
            return [_horner(*self.pieces[j][i], h) for j in columns]
        knots, pieces = self._arrays
        i = np.searchsorted(knots, r, side="right") - 1
        h = r - knots[i]
        return [_horner(*pieces[j][:, i], h) for j in columns]


def _table_profiles(radii, columns) -> tuple[list, Optional[Callable]]:
    """One finite-difference profile per column of samples at strictly
    increasing radii, and their joint jet: r -> every column's jet from one
    piece lookup (SphericalStaticData's ``joint``), or None."""
    radii = _float_list(radii, "radii")
    columns = [_float_list(col, "values") for col in columns]
    if len(radii) < 4:
        raise DomainError("need at least 4 samples for a cubic table profile")
    if any(b - a <= 0 for a, b in zip(radii, radii[1:])):
        raise DomainError("table radii must be strictly increasing")
    if any(len(col) != len(radii) for col in columns):
        raise DomainError("table values must be one per radius")
    if not all(map(math.isfinite, itertools.chain(radii, *columns))):
        raise NumericsError("non-finite entries in table")
    spline, every = _Spline(radii, columns), range(len(columns))
    # Spline derivatives are exact derivatives of the interpolant; keep them,
    # but report finite-difference mode: accuracy is set by the table.
    profiles = [RadialProfile(jet=lambda r, j=j: spline.jets(r, (j,))[0],
                              domain=(radii[0], radii[-1]), mode=MODE_FINITE_DIFFERENCE)
                for j in every]
    # A joint pass is trusted finite unless numpy flags an error, which holds
    # for finite coefficients only; a finite sum shows them finite. Samples
    # that overflow a slope get none, and each profile's jet checks its parts.
    finite = math.isfinite(sum(map(sum, itertools.chain(*spline.pieces))))
    return profiles, (lambda r: spline.jets(r, every)) if finite else None


def tabulated_profile(radii, values) -> RadialProfile:
    """Not-a-knot cubic-spline profile through strictly increasing sample radii.

    The spline is the one scipy's ``CubicSpline`` builds by default: the first
    two and the last two cubic pieces join with a continuous third derivative.
    Its own derivatives make the jet, but interpolation error scales like a
    difference scheme, so the profile reports finite-difference mode and
    callers should use the loose tolerance.

    The spline is built in Python floats and read at a float radius in them,
    so a table given as lists of floats and read at float radii loads no
    numpy; a radius array reads arrays built on its first use, bit for bit
    as the float reads. So a verify on a table, as on closed-form data, on
    at most 1000 radii loads no numpy, unless cli.load_table hands the file
    to numpy.loadtxt.
    """
    return _table_profiles(radii, [values])[0][0]
