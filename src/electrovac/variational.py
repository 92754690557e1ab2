"""Integral functional on annuli, its critical-point test, and the
divergence-identity check used to cross-validate the curvature operators.

The functional on an annulus Omega = [r1, r2] is

    F[g] = int_Omega V (R_g - 6 |E|_g^2) dv_o + 4 int_Omega V |E|_g^2 dv_g
           + 2 int_dOmega V H_g ds_o,

where dv_o/ds_o are the measures of the unperturbed data (frozen under
variation), dv_g is the perturbed volume measure, the contravariant electric
field is held fixed (so |E|_g^2 scales with the radial metric coefficient),
and the coefficients 6 and 4 do not depend on n. For metric variations h
supported in the open annulus the first variation is int <T, h> dv_o with

    T = -(Lap V) g + Hess V - V Ric - 2 V (E-flat x E-flat - |E|^2 g),

whose frame components coincide with the master-equation residual; data
solving the static system is therefore critical.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DomainError, NumericsError, ParameterError
from .geometry import (
    SphericalStaticData,
    hessian_radial,
    laplacian_radial,
    ricci_radial,
    scalar_curvature,
    scalar_curvature_d1,
    warped_scalar,
)
from .models import RNParameters, rn_horizon


def sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@functools.lru_cache(maxsize=16)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per node count
    and read-only, so no caller can corrupt the cache."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre rule: `panels` equal panels, `nodes` points
    each; `tol` bounds the panel-doubling change accepted as converged."""

    panels: int = 16
    nodes: int = 12
    tol: float = 1e-9

    def __post_init__(self):
        if self.panels < 1 or self.nodes < 2:
            raise ParameterError("need at least 1 panel and 2 nodes")
        if not (self.tol > 0):
            raise ParameterError("quadrature tolerance must be positive")

    def points(self, lo: float, hi: float, panels: Optional[int] = None):
        panels = self.panels if panels is None else panels
        x, w = _gauss_legendre(self.nodes)
        edges = np.linspace(lo, hi, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        xs = (mids[:, None] + half[:, None] * x[None, :]).ravel()
        ws = (half[:, None] * w[None, :]).ravel()
        return xs, ws


def radial_integral(fn, lo: float, hi: float, quad: QuadratureConfig,
                    panels: Optional[int] = None) -> float:
    xs, ws = quad.points(lo, hi, panels)
    vals = np.asarray(fn(xs), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericsError("non-finite integrand")
    return float(np.dot(ws, vals))


def _integral_with_breaks(fn, breaks, quad: QuadratureConfig, panels: int) -> float:
    """Composite rule whose segment edges sit on the integrand's kink radii.

    The bump profile is only C^2 at its support edges; putting those on
    segment boundaries keeps every Gauss panel on a smooth piece.
    """
    breaks = sorted(set(float(b) for b in breaks))
    total = breaks[-1] - breaks[0]
    out = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        seg_panels = max(2, math.ceil(panels * (b - a) / total))
        out += radial_integral(fn, a, b, quad, panels=seg_panels)
    return out


@dataclass(frozen=True)
class Perturbation:
    """Compactly supported radial bump applied to the metric.

    The profile is b(t) = (1 - t^2)^3 on |t| < 1 with t = (r - center)/halfwidth,
    which is C^2 with vanishing first and second derivatives at the support
    edge. Mode selects which metric components scale:

      "radial"      g -> A (1 + eps b) dr^2 + r^2 g_S
      "tangential"  g -> A dr^2 + r^2 (1 + eps b) g_S
      "both"        both factors

    amplitude is eps; |eps| <= 0.5 keeps the metric positive definite.
    """

    center: float
    halfwidth: float
    mode: str = "both"
    amplitude: float = 1e-3

    def __post_init__(self):
        if not (self.halfwidth > 0 and math.isfinite(self.center)):
            raise ParameterError("bump needs finite center and positive halfwidth")
        if self.mode not in ("radial", "tangential", "both"):
            raise ParameterError(f"unknown perturbation mode {self.mode!r}")
        if not (abs(self.amplitude) <= 0.5):
            raise ParameterError("|amplitude| must be <= 0.5 for a positive metric")

    def support(self) -> tuple[float, float]:
        return (self.center - self.halfwidth, self.center + self.halfwidth)

    def bump(self, r):
        t = (np.asarray(r, dtype=float) - self.center) / self.halfwidth
        return np.where(np.abs(t) < 1.0, (1.0 - t * t) ** 3, 0.0)

    def bump_d1(self, r):
        t = (np.asarray(r, dtype=float) - self.center) / self.halfwidth
        return np.where(np.abs(t) < 1.0,
                        -6.0 * t * (1.0 - t * t) ** 2 / self.halfwidth, 0.0)

    def bump_d2(self, r):
        t = (np.asarray(r, dtype=float) - self.center) / self.halfwidth
        val = (-6.0 * (1.0 - t * t) ** 2 + 24.0 * t * t * (1.0 - t * t)) / self.halfwidth ** 2
        return np.where(np.abs(t) < 1.0, val, 0.0)

    @property
    def radial_on(self) -> float:
        return 1.0 if self.mode in ("radial", "both") else 0.0

    @property
    def tangential_on(self) -> float:
        return 1.0 if self.mode in ("tangential", "both") else 0.0


def _require_annulus(data: SphericalStaticData, annulus) -> tuple[float, float]:
    r1, r2 = float(annulus[0]), float(annulus[1])
    if not r1 < r2:
        raise DomainError(f"annulus endpoints out of order: [{r1}, {r2}]")
    data.require_interior(np.array([r1, r2]))
    return r1, r2


def _require_supported_inside(pert: Perturbation, r1: float, r2: float):
    lo, hi = pert.support()
    if not (r1 < lo and hi < r2):
        raise DomainError(
            f"perturbation support [{lo}, {hi}] must lie in the open annulus ({r1}, {r2})")


def _functional_once(data: SphericalStaticData, r1: float, r2: float,
                     pert: Optional[Perturbation], quad: QuadratureConfig,
                     panels: int) -> float:
    n = data.n
    omega = sphere_area(n)

    def bulk(r):
        a0 = data.a_positive(r)
        sa0 = np.sqrt(a0)
        v = data.V(r)
        e2 = data.Emag(r) ** 2
        if pert is None:
            R = scalar_curvature(data, r)
            return v * (R - 6.0 * e2) * sa0 * r ** (n - 1) + 4.0 * v * e2 * sa0 * r ** (n - 1)
        eps = pert.amplitude
        ba = pert.radial_on * pert.bump(r)
        ba1 = pert.radial_on * pert.bump_d1(r)
        bc = pert.tangential_on * pert.bump(r)
        bc1 = pert.tangential_on * pert.bump_d1(r)
        bc2 = pert.tangential_on * pert.bump_d2(r)
        pa = 1.0 + eps * ba
        A = a0 * pa
        Ap = data.A.d1(r) * pa + a0 * eps * ba1
        s = np.sqrt(1.0 + eps * bc)
        sp = eps * bc1 / (2.0 * s)
        spp = eps * bc2 / (2.0 * s) - (eps * bc1) ** 2 / (4.0 * s ** 3)
        C = r * s
        Cp = s + r * sp
        Cpp = 2.0 * sp + r * spp
        R = warped_scalar(n, A, Ap, C, Cp, Cpp)
        e2p = e2 * pa
        return (v * (R - 6.0 * e2p) * sa0 * r ** (n - 1)
                + 4.0 * v * e2p * np.sqrt(A) * C ** (n - 1))

    breaks = [r1, r2]
    if pert is not None:
        breaks.extend(pert.support())
    val = _integral_with_breaks(bulk, breaks, quad, panels)

    # Boundary term 2 int V H ds_o with outward normals; the perturbation
    # vanishes on a neighborhood of the boundary, so base quantities apply.
    def H_of(r):
        return (n - 1) / (r * math.sqrt(float(data.a_positive(r))))

    term = 2.0 * omega * (float(data.V(r2)) * H_of(r2) * r2 ** (n - 1)
                          - float(data.V(r1)) * H_of(r1) * r1 ** (n - 1))
    return omega * val + term


def evaluate_functional(data: SphericalStaticData, annulus,
                        pert: Optional[Perturbation] = None,
                        quad: QuadratureConfig = QuadratureConfig()) -> float:
    """F[g] over the annulus, with panel-doubling convergence control."""
    r1, r2 = _require_annulus(data, annulus)
    if pert is not None:
        _require_supported_inside(pert, r1, r2)
    coarse = _functional_once(data, r1, r2, pert, quad, quad.panels)
    fine = _functional_once(data, r1, r2, pert, quad, 2 * quad.panels)
    if abs(fine - coarse) > quad.tol * (1.0 + abs(fine)):
        raise NumericsError(
            f"quadrature did not converge: panel doubling moved the value by {fine - coarse:.3e}")
    return fine


@dataclass(frozen=True)
class CriticalityResult:
    """Central-difference derivative of F along a perturbation family.

    derivatives[i] estimates dF/deps at eps = 0 from +/- epsilons[i]; slope is
    the log-log decay rate of |derivative| vs eps (2 for a critical point with
    smooth third variation); refined is the Richardson improvement from the
    smallest epsilon pair. Criticality passes when the refined derivative is
    below tol = 1e-5 * pert_norm and the slope sits in [1.8, 2.2].
    """

    epsilons: tuple[float, ...]
    derivatives: tuple[float, ...]
    slope: float
    refined: float
    pert_norm: float
    tol: float
    slope_ok: bool
    final_ok: bool

    @property
    def passed(self) -> bool:
        return self.slope_ok and self.final_ok


def perturbation_norm(data: SphericalStaticData, annulus, pert: Perturbation,
                      quad: QuadratureConfig = QuadratureConfig()) -> float:
    """L^2(dv_o) norm of the unit-amplitude metric direction of pert."""
    r1, r2 = _require_annulus(data, annulus)
    n = data.n
    omega = sphere_area(n)

    def fn(r):
        a = pert.radial_on * pert.bump(r)
        c = pert.tangential_on * pert.bump(r)
        sa = np.sqrt(data.a_positive(r))
        return (a * a + (n - 1) * c * c) * sa * r ** (n - 1)

    breaks = [r1, *pert.support(), r2]
    return math.sqrt(omega * _integral_with_breaks(fn, breaks, quad, quad.panels))


DEFAULT_EPSILONS = (1e-2, 1e-3, 2e-4, 1e-4)


def criticality_test(data: SphericalStaticData, annulus, pert: Perturbation,
                     quad: QuadratureConfig = QuadratureConfig(),
                     epsilons: tuple[float, ...] = DEFAULT_EPSILONS) -> CriticalityResult:
    """Estimate dF/deps at eps = 0 by central differences over an eps ladder."""
    if len(epsilons) < 2:
        raise ParameterError("need at least two epsilon values")
    r1, r2 = _require_annulus(data, annulus)
    _require_supported_inside(pert, r1, r2)

    derivs = []
    for eps in epsilons:
        fp = evaluate_functional(data, annulus, replace(pert, amplitude=+eps), quad)
        fm = evaluate_functional(data, annulus, replace(pert, amplitude=-eps), quad)
        derivs.append((fp - fm) / (2.0 * eps))

    norm = perturbation_norm(data, annulus, pert, quad)
    tol = 1e-5 * norm

    mags = np.abs(np.asarray(derivs))
    usable = mags > 0
    if np.count_nonzero(usable) >= 2:
        slope = float(np.polyfit(np.log(np.asarray(epsilons)[usable]),
                                 np.log(mags[usable]), 1)[0])
    else:
        slope = float("nan")

    # Richardson on the smallest pair with ratio 2 removes the eps^2 term.
    eps_sorted = sorted(range(len(epsilons)), key=lambda i: epsilons[i])
    i0 = eps_sorted[0]
    refined = derivs[i0]
    for i1 in eps_sorted[1:]:
        ratio = epsilons[i1] / epsilons[i0]
        if abs(ratio - 2.0) < 1e-12:
            refined = (4.0 * derivs[i0] - derivs[i1]) / 3.0
            break

    return CriticalityResult(
        epsilons=tuple(float(e) for e in epsilons),
        derivatives=tuple(float(d) for d in derivs),
        slope=slope,
        refined=float(refined),
        pert_norm=norm,
        tol=tol,
        slope_ok=bool(1.8 <= slope <= 2.2) if math.isfinite(slope) else False,
        final_ok=bool(abs(refined) <= tol),
    )


def euler_lagrange_density(data: SphericalStaticData, pert: Perturbation, r):
    """Pointwise <T, h> for the unit-amplitude direction h of pert."""
    rs = data.require_interior(r)
    n = data.n
    hess = hessian_radial(data, data.V, rs)
    lap = laplacian_radial(data, data.V, rs)
    ric = ricci_radial(data, rs)
    v = data.V(rs)
    e2 = data.Emag(rs) ** 2
    T_rad = -lap + hess.radial - v * ric.radial
    T_tan = -lap + hess.tangential - v * ric.tangential + 2.0 * v * e2
    a = pert.radial_on * pert.bump(rs)
    c = pert.tangential_on * pert.bump(rs)
    return T_rad * a + (n - 1) * T_tan * c


def euler_lagrange_integral(data: SphericalStaticData, annulus, pert: Perturbation,
                            quad: QuadratureConfig = QuadratureConfig()) -> float:
    """int <T, h> dv_o: the first variation of F along pert's direction."""
    r1, r2 = _require_annulus(data, annulus)
    _require_supported_inside(pert, r1, r2)
    n = data.n
    omega = sphere_area(n)

    def fn(r):
        sa = np.sqrt(data.a_positive(r))
        return euler_lagrange_density(data, pert, r) * sa * r ** (n - 1)

    breaks = [r1, *pert.support(), r2]
    coarse = _integral_with_breaks(fn, breaks, quad, quad.panels)
    fine = _integral_with_breaks(fn, breaks, quad, 2 * quad.panels)
    if abs(fine - coarse) > quad.tol * (1.0 + abs(fine)):
        raise NumericsError("quadrature did not converge for the variation integral")
    return omega * fine


def pohozaev_residual(data: SphericalStaticData, annulus,
                      quad: QuadratureConfig = QuadratureConfig()) -> float:
    """Defect of the divergence identity with X = grad V:

        (n-2)/(2n) int X(R) dv = -1/2 int <L_X g, Ric0> dv + int_d Ric0(X, N) ds,

    where Ric0 is the trace-free Ricci tensor and L_X g = 2 Hess V. Holds for
    any metric by the contracted second Bianchi identity, so the residual
    measures numerical consistency of the curvature operators, not a property
    of the data.
    """
    r1, r2 = _require_annulus(data, annulus)
    n = data.n
    omega = sphere_area(n)

    def lhs_fn(r):
        sa = np.sqrt(data.a_positive(r))
        vp = data.V.d1(r)
        Rp = scalar_curvature_d1(data, r)
        return vp * Rp / sa * r ** (n - 1)

    def rhs_fn(r):
        sa = np.sqrt(data.a_positive(r))
        hess = hessian_radial(data, data.V, r)
        ric = ricci_radial(data, r)
        R = ric.trace(n)
        t_rad = ric.radial - R / n
        t_tan = ric.tangential - R / n
        inner = hess.radial * t_rad + (n - 1) * hess.tangential * t_tan
        return inner * sa * r ** (n - 1)

    def converged(fn):
        coarse = radial_integral(fn, r1, r2, quad)
        fine = radial_integral(fn, r1, r2, quad, panels=2 * quad.panels)
        if abs(fine - coarse) > quad.tol * (1.0 + abs(fine)):
            raise NumericsError("quadrature did not converge in the identity check")
        return fine

    lhs = (n - 2) / (2.0 * n) * omega * converged(lhs_fn)

    def bterm(r, sign):
        sa = math.sqrt(float(data.a_positive(r)))
        ric = ricci_radial(data, r)
        R = float(ric.trace(n))
        t_rad = float(ric.radial) - R / n
        x_frame = float(data.V.d1(r)) / sa
        return sign * omega * r ** (n - 1) * x_frame * t_rad

    rhs = -omega * converged(rhs_fn) + bterm(r2, +1.0) + bterm(r1, -1.0)
    return abs(lhs - rhs)


def surface_gravity(p: RNParameters) -> float:
    """kappa = (n-2)(m / r_h^{n-1} - q^2 / r_h^{2n-3}), the limit of |grad V|
    at the horizon. DomainError when no horizon exists (m < |q|)."""
    r_h = rn_horizon(p)
    if r_h is None:
        raise DomainError("no horizon: surface gravity undefined for m < |q|")
    n = p.n
    return (n - 2) * (p.m / r_h ** (n - 1) - p.q * p.q / r_h ** (2 * n - 3))
