"""Model data sets: the charged static family, its isotropic chart, and the
flat-ball example with linear potential.

The charged family in dimension n >= 3 with mass m > 0 and charge q has

    V(r)^2 = 1 - 2 m / r^{n-2} + q^2 / r^{2(n-2)},   A = V^{-2},
    |E|(r) = (n-2) |q| / (c_n r^{n-1}),   Psi(r) = q / (c_n r^{n-2}),

with coupling constant c_n = sqrt(2(n-2)/(n-1)). The data domain is (r0, oo)
where r0 is the outermost zero of V^2 (the horizon radius when m >= |q|) or 0
when V^2 > 0 on the whole half-line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DomainError, ParameterError
from .geometry import SphericalStaticData
from .profiles import RadialProfile, constant_profile


def coupling_constant(n: int) -> float:
    """c_n = sqrt(2(n-2)/(n-1)); equals 1 in dimension 3."""
    return math.sqrt(2.0 * (n - 2) / (n - 1))


@dataclass(frozen=True)
class RNParameters:
    """Mass/charge parameters of the charged static family. lam is fixed 0."""

    n: int
    m: float
    q: float
    lam: float = field(default=0.0)

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise ParameterError(f"dimension must be an integer >= 3, got {self.n}")
        if not (math.isfinite(self.m) and self.m > 0):
            raise ParameterError(f"mass must be positive and finite, got {self.m}")
        if not math.isfinite(self.q):
            raise ParameterError(f"charge must be finite, got {self.q}")
        # rn_horizon and the closed forms square both; an overflow there empties the domain.
        for name, value in (("mass", self.m), ("charge", self.q)):
            if not math.isfinite(value * value):
                raise ParameterError(f"{name} squared overflows a float, got {value}")
        if self.lam != 0.0:
            raise ParameterError("this family is constructed with lam = 0")

    @property
    def regime(self) -> str:
        if self.m > abs(self.q):
            return "sub-extremal"
        if self.m == abs(self.q):
            return "extremal"
        return "super-extremal"


def rn_horizon(p: RNParameters) -> Optional[float]:
    """Horizon radius (m + sqrt(m^2 - q^2))^{1/(n-2)}, or None if m < |q|."""
    if p.m < abs(p.q):
        return None
    u = p.m + math.sqrt(p.m * p.m - p.q * p.q)
    return u ** (1.0 / (p.n - 2))


def rn_r0(p: RNParameters) -> float:
    """Lower domain endpoint: outermost zero of V^2, or 0 if V^2 > 0."""
    h = rn_horizon(p)
    return h if h is not None else 0.0


def rn_data(p: RNParameters) -> SphericalStaticData:
    """Closed-form data for the charged family on (r0, oo)."""
    n, m, q = p.n, p.m, p.q
    k = n - 2
    cn = coupling_constant(n)

    def W(r):
        u = r ** k
        return 1.0 - 2.0 * m / u + (q * q) / (u * u)

    def Wp(r):
        return 2.0 * k * (m / r ** (k + 1) - q * q / r ** (2 * k + 1))

    def Wpp(r):
        return 2.0 * k * (-(k + 1) * m / r ** (k + 2) + (2 * k + 1) * q * q / r ** (2 * k + 2))

    def V(r):
        return np.sqrt(W(r))

    def Vp(r):
        return Wp(r) / (2.0 * np.sqrt(W(r)))

    def Vpp(r):
        w = W(r)
        return Wpp(r) / (2.0 * np.sqrt(w)) - Wp(r) ** 2 / (4.0 * w ** 1.5)

    def A(r):
        return 1.0 / W(r)

    def Ap(r):
        w = W(r)
        return -Wp(r) / (w * w)

    def App(r):
        w = W(r)
        return -Wpp(r) / (w * w) + 2.0 * Wp(r) ** 2 / w ** 3

    ce = k * abs(q) / cn
    cp = q / cn

    r0 = rn_r0(p)
    dom = (r0, np.inf)
    h = rn_horizon(p)
    return SphericalStaticData(
        n=n,
        lam=0.0,
        A=RadialProfile(A, Ap, App, domain=dom),
        V=RadialProfile(V, Vp, Vpp, domain=dom),
        Emag=RadialProfile(
            lambda r: ce / r ** (n - 1),
            lambda r: -(n - 1) * ce / r ** n,
            lambda r: n * (n - 1) * ce / r ** (n + 1),
            domain=dom,
        ),
        Psi=RadialProfile(
            lambda r: cp / r ** k,
            lambda r: -k * cp / r ** (k + 1),
            lambda r: k * (k + 1) * cp / r ** (k + 2),
            domain=dom,
        ),
        v_zeros=(h,) if h is not None else (),
        r_scale=max(m, abs(q)) ** (1.0 / k),
    )


def flat_data(n: int = 3) -> SphericalStaticData:
    """Flat metric with unit potential and no field, on (0, oo)."""
    return SphericalStaticData(
        n=n,
        lam=0.0,
        A=constant_profile(1.0),
        V=constant_profile(1.0),
        Emag=constant_profile(0.0),
        Psi=constant_profile(0.0),
    )


def perturbed_potential_data(base: SphericalStaticData, amplitude: float,
                             center: float, width: float) -> SphericalStaticData:
    """Copy of base with V -> V + amplitude * exp(-((r-center)/width)^2).

    Deliberately breaks the field equations while keeping smooth closed-form
    derivatives; used to exercise failure paths.
    """
    V = base.V

    def bump(r):
        t = (r - center) / width
        return amplitude * np.exp(-t * t)

    def bump1(r):
        t = (r - center) / width
        return amplitude * np.exp(-t * t) * (-2.0 * t / width)

    def bump2(r):
        t = (r - center) / width
        return amplitude * np.exp(-t * t) * (4.0 * t * t - 2.0) / (width * width)

    newV = RadialProfile(
        lambda r: V.value(r) + bump(r),
        lambda r: V.d1(r) + bump1(r),
        lambda r: V.d2(r) + bump2(r),
        domain=V.domain,
    )
    return replace(base, V=newV)


# ---------------------------------------------------------------------------
# Isotropic chart


@dataclass(frozen=True)
class IsotropicPoint:
    """Chart values at isotropic radius s: area radius r, conformal factor
    phi with r = s*phi, and the fields expressed in the chart."""

    s: float
    r: float
    phi: float
    V: float
    Emag: float
    Psi: float


class IsotropicChart:
    """Isotropic presentation of the charged family on its outer branch.

    With u = s^{n-2} and a_pm = 1 + (m ± q)/(2u),

        r(s)^{n-2} = u * a_plus * a_minus,   phi = (a_plus a_minus)^{1/(n-2)},
        V(s) = (1 - (m^2-q^2)/(4u^2)) / (a_plus a_minus),
        Psi(s) = q / (c_n u a_plus a_minus),

    and the field magnitude comes from the chart's coefficient formula times
    the length |d/ds|_g = phi, a genuinely different expression from the
    area-radius form, which makes cross-chart agreement a real check.
    The outer branch starts at s_h = (sqrt(m^2-q^2)/2)^{1/(n-2)} when
    m >= |q| (where r attains the horizon radius) and at the zero of a_minus
    otherwise; r(s) is strictly increasing on it.
    """

    def __init__(self, p: RNParameters):
        self.p = p
        n, m, q = p.n, p.m, p.q
        self.k = n - 2
        self.cn = coupling_constant(n)
        if m >= abs(q):
            self.s_branch = (math.sqrt(m * m - q * q) / 2.0) ** (1.0 / self.k)
            # r attains the horizon radius at the branch start (strictly
            # sub-extremal), so that endpoint is queryable.
            self.closed_start = m > abs(q)
        else:
            self.s_branch = ((abs(q) - m) / 2.0) ** (1.0 / self.k)
            self.closed_start = False

    def _factors(self, s):
        s = np.asarray(s, dtype=float)
        bad = (s < self.s_branch) if self.closed_start else (s <= self.s_branch)
        if np.any(bad):
            raise DomainError(f"isotropic radius below the branch start {self.s_branch}")
        u = s ** self.k
        ap = 1.0 + (self.p.m + self.p.q) / (2.0 * u)
        am = 1.0 + (self.p.m - self.p.q) / (2.0 * u)
        return s, u, ap, am

    def phi(self, s):
        _, _, ap, am = self._factors(s)
        return (ap * am) ** (1.0 / self.k)

    def r_of_s(self, s):
        s, _, ap, am = self._factors(s)
        return s * (ap * am) ** (1.0 / self.k)

    def r_of_s_d1(self, s):
        s, u, ap, am = self._factors(s)
        d = (self.p.m ** 2 - self.p.q ** 2) / (4.0 * u * u)
        return (1.0 - d) / (ap * am) ** ((self.k - 1.0) / self.k)

    def v(self, s):
        _, u, ap, am = self._factors(s)
        d = (self.p.m ** 2 - self.p.q ** 2) / (4.0 * u * u)
        return (1.0 - d) / (ap * am)

    def psi(self, s):
        _, u, ap, am = self._factors(s)
        return self.p.q / (self.cn * u * ap * am)

    def emag(self, s):
        s, u, ap, am = self._factors(s)
        m, q, k = self.p.m, self.p.q, self.k
        if q == 0.0:
            return np.zeros_like(s)[()]
        phi = (ap * am) ** (1.0 / k)
        # d(phi)/ds via logarithmic derivative of the two factors
        dap = -k * (m + q) / (2.0 * u * s)
        dam = -k * (m - q) / (2.0 * u * s)
        dphi = phi * (dap / ap + dam / am) / k
        d = (m * m - q * q) / (4.0 * u * u)
        rprime = phi + s * dphi
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = (k / self.cn) * q * (1.0 - d) / (s ** (self.p.n - 1) * phi ** (2 * self.p.n - 3) * rprime)
            val = np.abs(coef) * phi
        # r'(s) = 0 at a closed branch start; the chart expression degenerates
        # there, so fall back to the area-radius form at that single point.
        direct = k * abs(q) / (self.cn * (s * phi) ** (self.p.n - 1))
        return np.where(rprime > 0.0, val, direct)[()]

    def point(self, s: float) -> IsotropicPoint:
        return IsotropicPoint(
            s=float(s), r=float(self.r_of_s(s)), phi=float(self.phi(s)),
            V=float(self.v(s)), Emag=float(self.emag(s)), Psi=float(self.psi(s)),
        )


def isotropic_map(p: RNParameters, s: float) -> IsotropicPoint:
    """Chart point at isotropic radius s on the outer branch."""
    return IsotropicChart(p).point(s)


def isotropic_inverse(p: RNParameters, r: float) -> float:
    """Isotropic radius with r(s) = r, by bracketed root finding.

    Accepts any r at or above the branch minimum radius; the result satisfies
    |r(s) - r| <= 1e-12 * r.
    """
    chart = IsotropicChart(p)
    if not (math.isfinite(r) and r > 0):
        raise DomainError(f"area radius must be positive and finite, got {r}")

    def f(s):
        return float(chart.r_of_s(s) - r)

    if chart.closed_start:
        r_min = rn_horizon(p)
        if r < r_min * (1.0 - 1e-14):
            raise DomainError(f"radius {r} below the branch minimum {r_min}")
        lo = chart.s_branch
        if f(lo) >= 0.0:
            # The branch minimum already attains r (up to rounding).
            if abs(f(lo)) <= 1e-12 * r:
                return float(lo)
            raise DomainError(f"radius {r} below the branch minimum radius")
    else:
        # Open branch start (extremal or super-extremal): r(s) decreases to
        # its infimum there, so walk the endpoint down until it brackets.
        lo = chart.s_branch + max(chart.s_branch, r, 1.0)
        while f(lo) >= 0.0:
            lo = chart.s_branch + (lo - chart.s_branch) / 4.0
            if lo - chart.s_branch < 1e-300:
                raise DomainError(f"radius {r} at or below the branch infimum")
    hi = max(2.0 * lo, r)
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise DomainError("failed to bracket the isotropic radius")
    from scipy.optimize import brentq  # on first use: closed-form paths never load scipy

    s = brentq(f, lo, hi, xtol=1e-15 * max(1.0, lo), rtol=8.9e-16, maxiter=200)
    # Newton polish; r'(s) > 0 away from the branch start.
    for _ in range(3):
        err = float(chart.r_of_s(s) - r)
        if abs(err) <= 1e-13 * r:
            break
        slope = float(chart.r_of_s_d1(s))
        if slope <= 0:
            break
        s -= err / slope
    return float(s)


def phi_identity_residual(p: RNParameters, s: float) -> float:
    """Defect of phi = (((V+1)^2 - c_n^2 Psi^2)/4)^{-1/(n-2)} at s."""
    chart = IsotropicChart(p)
    v = chart.v(s)
    psi = chart.psi(s)
    rhs = (((v + 1.0) ** 2 - (chart.cn * psi) ** 2) / 4.0) ** (-1.0 / chart.k)
    return float(abs(chart.phi(s) - rhs))


# ---------------------------------------------------------------------------
# Flat ball with linear potential


@dataclass(frozen=True)
class BallStaticExample:
    """Unit ball in flat R^3 with V(x) = x . v and vanishing field.

    Solves the static system with lam = 0 and E = 0; its zero set
    Sigma = {x . v = 0} meets the ball in a unit disk of area pi. Sample
    points are deterministic: a Halton sequence filtered to the open ball for
    the interior, a golden-angle spiral for the boundary sphere.
    """

    v: tuple[float, float, float]
    interior: np.ndarray
    boundary: np.ndarray

    @classmethod
    def default(cls, v=(0.0, 0.0, 1.0), n_interior: int = 200, n_boundary: int = 200):
        vv = np.asarray(v, dtype=float)
        if vv.shape != (3,) or not np.any(vv != 0):
            raise ParameterError("v must be a nonzero 3-vector")
        interior = _halton_ball(n_interior)
        boundary = _sphere_spiral(n_boundary)
        return cls(v=tuple(map(float, vv)), interior=interior, boundary=boundary)


def euclidean_ball_residuals(example: BallStaticExample):
    """Verify the flat-ball data pointwise, in closed form.

    V is linear, so grad V is the constant vector v, Hess V vanishes
    identically, the flat metric has Ric = 0, and with E = 0 the master
    equation's right side vanishes: the interior residuals are exact zeros,
    not small numbers. On the unit sphere the outward normal is x, H = 2 and
    n = 3 give H/(n-1) = 1, so the Robin defect dV/dnu - V H/(n-1) is an
    exact floating-point cancellation at every sample. The slice {x . v = 0}
    meets the ball in a unit disk whose area pi is reported analytically.
    """
    from .residuals import ResidualReport, TagResult, _tag_from_values

    v = np.asarray(example.v, dtype=float)
    pts_in = example.interior
    pts_bd = example.boundary
    n_dim = 3
    tol = 0.0  # exact-arithmetic-friendly checks: demand literal zero

    vals_in = pts_in @ v
    hess = np.zeros_like(vals_in)          # second derivatives of a linear map
    lap = np.zeros_like(vals_in)
    ric = np.zeros_like(vals_in)           # flat metric
    # Master equation residual: Hess V - (Lap V) g - V Ric - 2V(0 - 0) = 0.
    master = hess - lap - vals_in * ric

    vals_bd = pts_bd @ v
    dnu = pts_bd @ v                        # grad V = v, nu = x on the sphere
    H_over = 2.0 / (n_dim - 1)
    robin = dnu - vals_bd * H_over

    radii_in = np.sqrt(np.sum(pts_in * pts_in, axis=1))
    radii_bd = np.sqrt(np.sum(pts_bd * pts_bd, axis=1))
    entries = {
        "BALL_HESS": _tag_from_values("BALL_HESS", radii_in, hess, tol,
                                      note="Hessian of a linear potential"),
        "BALL_LAP": _tag_from_values("BALL_LAP", radii_in, lap, tol,
                                     note="Laplacian of a linear potential"),
        "BALL_RIC": _tag_from_values("BALL_RIC", radii_in, ric, tol,
                                     note="flat metric"),
        "BALL_AE1": _tag_from_values("BALL_AE1", radii_in, master, tol,
                                     note="master equation with E = 0"),
        "BALL_ROBIN": _tag_from_values("BALL_ROBIN", radii_bd, robin, tol,
                                       note="dV/dnu - V H/(n-1) on the unit sphere"),
    }
    grid = (f"{pts_in.shape[0]} quasi-random interior points, "
            f"{pts_bd.shape[0]} spiral boundary points")
    return ResidualReport(entries=entries, grid=grid, tolerance=tol,
                          extras={"sigma_area": math.pi})


def _halton_1d(count, base, skip=20):
    out = np.empty(count)
    for i in range(count):
        x, f, k = 0.0, 1.0, i + skip
        while k > 0:
            f /= base
            x += f * (k % base)
            k //= base
        out[i] = x
    return out


def _halton_ball(count):
    pts = []
    block = 0
    while len(pts) < count:
        need = 4 * (count - len(pts)) + 16
        cube = np.column_stack([
            _halton_1d(need, b, skip=20 + block) for b in (2, 3, 5)
        ]) * 2.0 - 1.0
        inside = cube[np.sum(cube * cube, axis=1) < 0.98]
        pts.extend(inside.tolist())
        block += need
    return np.asarray(pts[:count])


def _sphere_spiral(count):
    i = np.arange(count, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / count
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
