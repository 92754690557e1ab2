"""Photon spheres of the charged static family: closed-form roots, regime
classification, a bracketed-scan oracle, and quasi-local slice checks.

A photon sphere is a radius where the boundary residual

    (n-1) dV/dnu - V H

vanishes. For the charged family this reduces, with u = r^{n-2}, to

    u^2 - n m u + (n-1) q^2 = 0,

so candidate radii come from u = (n m ± sqrt(n^2 m^2 - 4(n-1) q^2)) / 2.
A candidate is admissible when it lies strictly above the domain edge r0 and
V there exceeds 1e-9 (slices sitting on a horizon are rejected).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .geometry import SphericalStaticData, level_set_geometry
from .models import RNParameters, rn_data, rn_r0

ADMISSIBLE_V = 1e-9
DOUBLE_ROOT_REL = 1e-12


def boundary_residual(data: SphericalStaticData, r):
    """(n-1) dV/dnu - V H at radius r; zero exactly at photon spheres.

    Well defined at small V too: no division by the potential occurs.
    """
    rs = data.require_interior(r)
    geo = level_set_geometry(data, rs)
    return (data.n - 1) * geo.nuV - data.V(rs) * geo.H


@dataclass(frozen=True)
class PhotonRoot:
    r: float
    u: float
    multiplicity: int


@dataclass(frozen=True)
class RejectedRoot:
    reason: str
    u: Optional[float] = None
    r: Optional[float] = None


@dataclass(frozen=True)
class PhotonSphereResult:
    """Admissible photon-sphere radii with multiplicity, plus bookkeeping.

    count is the number of distinct admissible radii (a double root counts
    once, carried with multiplicity 2); discriminant is n^2 m^2 - 4(n-1) q^2.
    """

    roots: tuple[PhotonRoot, ...]
    rejected: tuple[RejectedRoot, ...]
    discriminant: float
    count: int


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
        rejected.append(RejectedRoot(reason="negative discriminant: complex root pair"))
    else:
        s = math.sqrt(disc)
        candidates.append(((n * m - s) / 2.0, 1))
        candidates.append(((n * m + s) / 2.0, 1))

    roots: list[PhotonRoot] = []
    for u, mult in candidates:
        if u < 0.0:
            rejected.append(RejectedRoot(reason="negative root in u", u=u))
            continue
        r = u ** (1.0 / k)
        if r <= r0 + 1e-9:
            rejected.append(RejectedRoot(
                reason=f"radius not above the domain edge r0 = {r0:.12g}", u=u, r=r))
            continue
        v = float(data.V(r))
        if v <= ADMISSIBLE_V:
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


@dataclass(frozen=True)
class Classification:
    """Regime and photon-sphere count predicted from (n, m, q) alone."""

    regime: str
    count: int
    description: str


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

    Finds simple roots on (lo, hi); tangential (double) roots do not change
    sign and are invisible to this scan by design.
    """
    r0 = data.domain[0]
    if lo is None:
        lo = r0 * (1.0 + 1e-6) if r0 > 0 else 0.05 * data.r_scale
    if not (data.domain[0] <= lo < hi):
        raise DomainError(f"scan interval [{lo}, {hi}] outside the data domain")
    from scipy.optimize import brentq  # on first use: closed-form paths never load scipy

    rs = np.geomspace(lo, hi, samples)
    vals = np.asarray(boundary_residual(data, rs), dtype=float)

    roots: list[float] = []

    def f(r):
        return float(boundary_residual(data, r))

    for i in range(samples - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(rs[i]))
        elif a * b < 0.0:
            roots.append(float(brentq(f, float(rs[i]), float(rs[i + 1]),
                                      xtol=1e-14, rtol=8.9e-16, maxiter=200)))
    if vals[-1] == 0.0:
        roots.append(float(rs[-1]))
    # Merge near-duplicates from a root sitting on a sample point.
    merged: list[float] = []
    for r in sorted(roots):
        if not merged or abs(r - merged[-1]) > 1e-9 * max(1.0, r):
            merged.append(r)
    return merged


@dataclass(frozen=True)
class QuasilocalReport:
    """Slice checks at radius r against the quasi-local characterization:

      Q1   R_S = n/(n-1) H^2 + 2 |E|^2          (lam = 0 form)
      Q2   dV/dnu = H/(n-1) V
      ric  Ric(nu, nu) = -H^2/(n-1)

    extremality compares H^2 with (n-2)/(n-1) R_S: larger means sub-extremal.
    When |V(r)| < 1e-9 the Q2 residual is undefined; the report flags the
    degeneracy and still carries Q1 and the Ricci check.
    """

    r: float
    q1_residual: float
    q2_residual: Optional[float]
    ric_nn_residual: float
    extremality: str
    degenerate: bool
    tol: float

    @property
    def passed(self) -> bool:
        ok = self.q1_residual <= self.tol and self.ric_nn_residual <= self.tol
        if not self.degenerate:
            ok = ok and self.q2_residual <= self.tol
        return bool(ok)


def quasilocal_check(data: SphericalStaticData, r: float,
                     tol: float = 1e-9) -> QuasilocalReport:
    """Evaluate the quasi-local photon-sphere conditions on the slice at r."""
    geo = level_set_geometry(data, r)
    n = data.n
    h2 = float(geo.H) ** 2
    rs_intr = float(geo.R_S)
    e2 = float(data.Emag(r)) ** 2
    q1 = abs(rs_intr - n / (n - 1) * h2 - 2.0 * e2)
    ric = abs(float(geo.ric_nn) + h2 / (n - 1))

    v = float(data.V(r))
    degenerate = abs(v) < ADMISSIBLE_V
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
        r=float(r), q1_residual=float(q1), q2_residual=q2,
        ric_nn_residual=float(ric), extremality=extremality,
        degenerate=degenerate, tol=tol,
    )
