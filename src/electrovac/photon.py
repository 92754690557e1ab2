"""Photon spheres of the charged static family: closed-form roots, regime
classification, a bracketed-scan oracle, and quasi-local slice checks.

A photon sphere is a radius where the boundary residual

    (n-1) dV/dnu - V H

vanishes. For the charged family this reduces, with u = r^{n-2}, to

    u^2 - n m u + (n-1) q^2 = 0,

so candidate radii come from u = (n m ± sqrt(n^2 m^2 - 4(n-1) q^2)) / 2.
A candidate is admissible when it lies more than V_ZERO_MARGIN above the
domain edge r0 and V there exceeds DEGENERATE_V, both 1e-9 (slices sitting on
a horizon are rejected).

The scan oracle never uses that quadratic: it brackets the sign changes of
the boundary residual on a geometric grid and refines every bracket at once
with numpy (Illinois false position) until |b - a| <= 4 eps |b| or the
residual is exactly 0.
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import Optional

from .errors import DomainError, NumericsError, ParameterError, as_float
from .geometry import (DEGENERATE_V, MAX_GRID_COUNT, TOL_CLOSED_FORM, V_ZERO_MARGIN, Record,
                       SphericalStaticData, level_set_geometry, require_tolerance)
from .models import RNParameters, rn_data, rn_r0
from .profiles import np, one_radius

DOUBLE_ROOT_REL = 1e-12
_EPS = sys.float_info.epsilon


def boundary_residual(data: SphericalStaticData, r):
    """(n-1) dV/dnu - V H at radius r; zero exactly at photon spheres.

    Well defined at small V too: no division by the potential occurs.
    """
    geo = level_set_geometry(data, r)
    return (data.n - 1) * geo.nuV - geo.V * geo.H


class PhotonRoot(Record):
    __slots__ = ("r", "u", "multiplicity")


class RejectedRoot(Record):
    __slots__ = ("reason", "u", "r")


class PhotonSphereResult(Record):
    """Admissible photon-sphere radii with multiplicity, plus bookkeeping.

    count is the number of distinct admissible radii (a double root counts
    once, carried with multiplicity 2); discriminant is n^2 m^2 - 4(n-1) q^2.
    """

    __slots__ = ("roots", "rejected", "discriminant", "count")


def photon_sphere_radii(p: RNParameters) -> PhotonSphereResult:
    """Closed-form admissible photon-sphere radii for the charged family."""
    n, m, q = p.n, p.m, p.q
    k = n - 2
    data = rn_data(p)
    r0 = rn_r0(p)
    disc = n * n * m * m - 4.0 * (n - 1) * q * q

    candidates: list[tuple[float, int]] = []
    rejected: list[RejectedRoot] = []
    if abs(disc) <= DOUBLE_ROOT_REL * (n * m) ** 2:
        candidates.append((n * m / 2.0, 2))
    elif disc < 0.0:
        rejected.append(RejectedRoot(
            reason="negative discriminant: complex root pair", u=None, r=None))
    else:
        s = math.sqrt(disc)
        candidates.append(((n * m - s) / 2.0, 1))
        candidates.append(((n * m + s) / 2.0, 1))

    roots: list[PhotonRoot] = []
    for u, mult in candidates:
        if u < 0.0:
            rejected.append(RejectedRoot(reason="negative root in u", u=u, r=None))
            continue
        r = u ** (1.0 / k)
        if r <= r0 + V_ZERO_MARGIN:
            rejected.append(RejectedRoot(
                reason=f"radius not above the domain edge r0 = {r0:.12g}", u=u, r=r))
            continue
        v = float(data.V(r))
        if v <= DEGENERATE_V:
            rejected.append(RejectedRoot(
                reason=f"V(r) = {v:.3e} at or below the degeneracy threshold", u=u, r=r))
            continue
        roots.append(PhotonRoot(r=float(r), u=float(u), multiplicity=mult))

    roots.sort(key=lambda root: root.r)
    return PhotonSphereResult(
        roots=tuple(roots),
        rejected=tuple(rejected),
        discriminant=float(disc),
        count=len(roots),
    )


class Classification(Record):
    """Regime and photon-sphere count predicted from (n, m, q) alone."""

    __slots__ = ("regime", "count", "description")


def classify_configuration(p: RNParameters) -> Classification:
    """Case analysis in the parameters, independent of the root solver.

    m >= |q| always yields exactly one admissible photon sphere (the inner
    root falls at or inside the horizon). For m < |q| the discriminant
    decides: two distinct spheres above the threshold
    m > 2 sqrt(n-1)/n |q|, one double sphere on it, none below.
    """
    n, m, q = p.n, p.m, p.q
    if m > abs(q):
        return Classification("sub-extremal", 1, "unique photon sphere")
    if m == abs(q):
        return Classification(
            "extremal", 1,
            "unique photon sphere; inner root coincides with the horizon and is rejected")
    disc = n * n * m * m - 4.0 * (n - 1) * q * q
    if abs(disc) <= DOUBLE_ROOT_REL * (n * m) ** 2:
        return Classification("super-extremal", 1, "unique photon sphere (double root)")
    if disc > 0.0:
        return Classification("super-extremal", 2, "two photon spheres")
    return Classification("super-extremal", 0, "no photon spheres")


def scan_photon_spheres(data: SphericalStaticData, lo: Optional[float] = None,
                        hi: float = 1e3, samples: int = 4096) -> list[float]:
    """Oracle root finder: bracketed sign-change scan of boundary_residual.

    Samples the residual at `samples` geometrically spaced radii on [lo, hi],
    an integer from 2 to MAX_GRID_COUNT, the bound of a residual grid's count.
    A sample where it is exactly 0 is a root; every sign change between
    neighbours is a bracket [a, b]. All brackets are refined together by
    Illinois false position: each step evaluates the residual once, as one
    array, at the secant point of every open bracket, keeps the sign change
    inside [a, b], and halves the residual of an end kept twice in a row. A
    bracket closes when |b - a| <= 4 eps |b| (its midpoint is the root) or
    the residual is exactly 0; NumericsError if any is still open after 100
    steps. Tangential (double) roots do not change sign and are invisible to
    this scan by design.
    """
    if not (isinstance(samples, numbers.Integral) and 2 <= samples <= MAX_GRID_COUNT):
        raise ParameterError(
            f"samples must be an integer from 2 to {MAX_GRID_COUNT}, got {samples!r}")
    r0 = data.domain[0]
    if lo is None:
        lo = r0 * (1.0 + 1e-6) if r0 > 0 else 0.05 * data.r_scale
    lo, hi = (as_float(x, "scan bound", DomainError) for x in (lo, hi))
    if not (data.domain[0] <= lo < hi < math.inf):
        raise DomainError(
            f"scan interval [{lo}, {hi}] is not a finite, non-empty interval of the data domain")

    rs = np.geomspace(lo, hi, samples)
    vals = np.asarray(boundary_residual(data, rs), dtype=float)
    roots = rs[vals == 0.0].tolist()

    i = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    a, b, fa, fb = rs[i], rs[i + 1], vals[i], vals[i + 1]
    kept_a = kept_b = np.zeros(i.size, dtype=bool)
    for _ in range(100):
        open_ = np.abs(b - a) > 4.0 * _EPS * np.abs(b)
        roots += (a + 0.5 * (b - a))[~open_].tolist()
        a, b, fa, fb, kept_a, kept_b = (x[open_] for x in (a, b, fa, fb, kept_a, kept_b))
        if a.size == 0:
            break
        c = b - fb / (fb - fa) * (b - a)
        fc = np.asarray(boundary_residual(data, c), dtype=float)
        # c replaces the end whose residual has its sign; an exact 0 replaces both
        to_a = (np.sign(fc) == np.sign(fa)) | (fc == 0.0)
        to_b = (np.sign(fc) == np.sign(fb)) | (fc == 0.0)
        fa = np.where(to_a, fc, np.where(kept_a & to_b, 0.5 * fa, fa))
        fb = np.where(to_b, fc, np.where(kept_b & to_a, 0.5 * fb, fb))
        a, b = np.where(to_a, c, a), np.where(to_b, c, b)
        kept_a, kept_b = to_b, to_a
    else:
        raise NumericsError("photon-sphere brackets still open after 100 refinement steps")
    # Merge near-duplicates from a root sitting on a sample point.
    merged: list[float] = []
    for r in sorted(roots):
        if not merged or abs(r - merged[-1]) > 1e-9 * max(1.0, r):
            merged.append(r)
    return merged


class QuasilocalReport(Record):
    """Slice checks at radius r against the quasi-local characterization:

      Q1   R_S = n/(n-1) H^2 + 2 |E|^2          (lam = 0 form)
      Q2   dV/dnu = H/(n-1) V
      ric  Ric(nu, nu) = -H^2/(n-1)

    extremality compares H^2 with (n-2)/(n-1) R_S: larger means sub-extremal.
    When |V(r)| < DEGENERATE_V the Q2 residual is undefined; the report flags the
    degeneracy and still carries Q1 and the Ricci check.
    """

    __slots__ = ("r", "q1_residual", "q2_residual", "ric_nn_residual", "extremality",
                 "degenerate", "tol")

    @property
    def passed(self) -> bool:
        ok = self.q1_residual <= self.tol and self.ric_nn_residual <= self.tol
        if not self.degenerate:
            ok = ok and self.q2_residual <= self.tol
        return bool(ok)


def quasilocal_check(data: SphericalStaticData, r: float,
                     tol: float = TOL_CLOSED_FORM) -> QuasilocalReport:
    """Evaluate the quasi-local photon-sphere conditions on the slice at r."""
    require_tolerance(tol)
    r = one_radius(r)
    geo = level_set_geometry(data, r)
    n = data.n
    h2 = float(geo.H) ** 2
    rs_intr = float(geo.R_S)
    e2 = float(data.Emag(r)) ** 2
    q1 = abs(rs_intr - n / (n - 1) * h2 - 2.0 * e2)
    ric = abs(float(geo.ric_nn) + h2 / (n - 1))

    v = float(geo.V)
    degenerate = abs(v) < DEGENERATE_V
    q2 = None if degenerate else abs(float(geo.nuV) - geo.H / (n - 1) * v)

    threshold = (n - 2) / (n - 1) * rs_intr
    band = 1e-12 * max(h2, abs(threshold))
    if abs(h2 - threshold) <= band:
        extremality = "extremal"
    elif h2 > threshold:
        extremality = "sub-extremal"
    else:
        extremality = "super-extremal"

    return QuasilocalReport(
        r=r, q1_residual=float(q1), q2_residual=q2,
        ric_nn_residual=float(ric), extremality=extremality,
        degenerate=degenerate, tol=tol,
    )
