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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NumericsError, ParameterError
from .geometry import (
    SphericalStaticData,
    hessian_kernel,
    laplacian_kernel,
    ricci_kernel,
    scalar_curvature_d1_kernel,
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
    return float(_weighted_sums(ws, fn(xs))[0])


def _weighted_sums(ws, vals) -> np.ndarray:
    """np.dot(ws, row) for each row of vals (one row when vals is 1-D): the
    sum radial_integral takes, bit for bit, whatever else is in the batch."""
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericsError("non-finite integrand")
    return np.array([np.dot(ws, row) for row in np.atleast_2d(vals)])


def _integral_with_breaks(fn, breaks, quad: QuadratureConfig, panels: int) -> np.ndarray:
    """Composite rule whose segment edges sit on the integrand's kink radii,
    applied to each row of fn: per row, one radial_integral sum per segment,
    added in segment order.

    The bump profile is only C^2 at its support edges; putting those on
    segment boundaries keeps every Gauss panel on a smooth piece.
    """
    breaks = sorted(set(float(b) for b in breaks))
    total = breaks[-1] - breaks[0]
    out = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        xs, ws = quad.points(a, b, max(2, math.ceil(panels * (b - a) / total)))
        out = out + _weighted_sums(ws, fn(xs))
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

    def bump_jet(self, r):
        """(b, b', b'') at r."""
        t = (np.asarray(r, dtype=float) - self.center) / self.halfwidth
        inside, u, hw = np.abs(t) < 1.0, 1.0 - t * t, self.halfwidth
        return (np.where(inside, u ** 3, 0.0),
                np.where(inside, -6.0 * t * u ** 2 / hw, 0.0),
                np.where(inside, (-6.0 * u ** 2 + 24.0 * t * t * u) / hw ** 2, 0.0))

    def bump(self, r):
        return self.bump_jet(r)[0]

    def bump_d1(self, r):
        return self.bump_jet(r)[1]

    def bump_d2(self, r):
        return self.bump_jet(r)[2]

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


def _functional_values(data: SphericalStaticData, r1: float, r2: float,
                       pert: Optional[Perturbation], amplitudes,
                       quad: QuadratureConfig) -> list[float]:
    """F at each amplitude of pert's direction (pert None: the one unperturbed
    value), each with its own panel-doubling convergence check, in order."""
    n = data.n
    omega = sphere_area(n)
    eps = None if pert is None else np.asarray(amplitudes, dtype=float)[:, None]
    breaks = [r1, r2] if pert is None else [r1, r2, *pert.support()]

    def bulk(r):
        # One row per amplitude of the column eps (one row when pert is None).
        # The base fields and the bump are evaluated once for all rows; each
        # row's arithmetic is the single-amplitude expression, elementwise, so
        # a row is bit-identical to the integrand of that amplitude alone.
        a0, ap0, _ = data.a_jet(r)
        sa0 = np.sqrt(a0)
        v = data.V(r)
        e2 = data.Emag(r) ** 2
        if pert is None:
            data.require_interior(r)
            R = ricci_kernel(n, a0, ap0, r).trace(n)
            return v * (R - 6.0 * e2) * sa0 * r ** (n - 1) + 4.0 * v * e2 * sa0 * r ** (n - 1)
        b, b1, b2 = pert.bump_jet(r)
        ba, ba1 = pert.radial_on * b, pert.radial_on * b1
        bc, bc1, bc2 = pert.tangential_on * b, pert.tangential_on * b1, pert.tangential_on * b2
        pa = 1.0 + eps * ba
        A = a0 * pa
        Ap = ap0 * pa + a0 * eps * ba1
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

    coarse = omega * _integral_with_breaks(bulk, breaks, quad, quad.panels)
    fine = omega * _integral_with_breaks(bulk, breaks, quad, 2 * quad.panels)

    # Boundary term 2 int V H ds_o with outward normals; the perturbation
    # vanishes on a neighborhood of the boundary, so base quantities apply.
    def H_of(r):
        return (n - 1) / (r * math.sqrt(float(data.a_positive(r))))

    term = 2.0 * omega * (float(data.V(r2)) * H_of(r2) * r2 ** (n - 1)
                          - float(data.V(r1)) * H_of(r1) * r1 ** (n - 1))
    values = []
    for c, f in zip(coarse + term, fine + term):
        if abs(f - c) > quad.tol * (1.0 + abs(f)):
            raise NumericsError(
                f"quadrature did not converge: panel doubling moved the value by {f - c:.3e}")
        values.append(float(f))
    return values


def evaluate_functional(data: SphericalStaticData, annulus,
                        pert: Optional[Perturbation] = None,
                        quad: QuadratureConfig = QuadratureConfig()) -> float:
    """F[g] over the annulus, with panel-doubling convergence control."""
    r1, r2 = _require_annulus(data, annulus)
    if pert is not None:
        _require_supported_inside(pert, r1, r2)
    amplitudes = () if pert is None else (pert.amplitude,)
    return _functional_values(data, r1, r2, pert, amplitudes, quad)[0]


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
        b = pert.bump(r)
        a = pert.radial_on * b
        c = pert.tangential_on * b
        sa = np.sqrt(data.a_positive(r))
        return (a * a + (n - 1) * c * c) * sa * r ** (n - 1)

    breaks = [r1, *pert.support(), r2]
    return math.sqrt(omega * _integral_with_breaks(fn, breaks, quad, quad.panels)[0])


DEFAULT_EPSILONS = (1e-2, 1e-3, 2e-4, 1e-4)


def criticality_test(data: SphericalStaticData, annulus, pert: Perturbation,
                     quad: QuadratureConfig = QuadratureConfig(),
                     epsilons: tuple[float, ...] = DEFAULT_EPSILONS) -> CriticalityResult:
    """Estimate dF/deps at eps = 0 by central differences over an eps ladder.

    Every epsilon must be finite, in (0, 0.5] (so each bumped metric stays
    positive definite) and distinct from the others; ParameterError otherwise.
    The 2 len(epsilons) bumped functionals share one evaluation of the base
    fields and of the bump per quadrature node set, and each is summed and
    convergence-checked on its own, so derivatives[i] equals

        (evaluate_functional(+eps_i) - evaluate_functional(-eps_i)) / (2 eps_i)

    bit for bit, and a ladder whose quadrature does not converge raises the
    NumericsError that amplitude raises alone.
    """
    if len(epsilons) < 2:
        raise ParameterError("need at least two epsilon values")
    r1, r2 = _require_annulus(data, annulus)
    _require_supported_inside(pert, r1, r2)
    # Zero divides by zero, a negative epsilon has no logarithm for the slope
    # fit, and a repeated one leaves the fit rank-deficient.
    epsilons = tuple(float(e) for e in epsilons)
    if not all(0.0 < e <= 0.5 for e in epsilons):
        raise ParameterError(f"each epsilon must be finite and in (0, 0.5], got {epsilons}")
    if len(set(epsilons)) != len(epsilons):
        raise ParameterError(f"epsilons must be distinct, got {epsilons}")

    values = _functional_values(data, r1, r2, pert,
                                [a for eps in epsilons for a in (+eps, -eps)], quad)
    derivs = [(fp - fm) / (2.0 * eps)
              for eps, fp, fm in zip(epsilons, values[0::2], values[1::2])]

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
        epsilons=epsilons,
        derivatives=tuple(float(d) for d in derivs),
        slope=slope,
        refined=float(refined),
        pert_norm=norm,
        tol=tol,
        slope_ok=bool(1.8 <= slope <= 2.2) if math.isfinite(slope) else False,
        final_ok=bool(abs(refined) <= tol),
    )


def _el_fields(data: SphericalStaticData, pert: Perturbation, r):
    """<T, h> for the unit-amplitude direction h of pert, and A, at r: one
    domain check and one jet of A and of V."""
    rs = data.require_interior(r)
    n = data.n
    a, ap, _ = data.a_jet(rs)
    v, vp, vpp = data.V.jet(rs)
    hess = hessian_kernel(a, ap, vp, vpp, rs)
    lap = laplacian_kernel(n, a, ap, vp, vpp, rs)
    ric = ricci_kernel(n, a, ap, rs)
    e2 = data.Emag(rs) ** 2
    T_rad = -lap + hess.radial - v * ric.radial
    T_tan = -lap + hess.tangential - v * ric.tangential + 2.0 * v * e2
    b = pert.bump(rs)
    return T_rad * (pert.radial_on * b) + (n - 1) * T_tan * (pert.tangential_on * b), a


def euler_lagrange_density(data: SphericalStaticData, pert: Perturbation, r):
    """Pointwise <T, h> for the unit-amplitude direction h of pert."""
    return _el_fields(data, pert, r)[0]


def euler_lagrange_integral(data: SphericalStaticData, annulus, pert: Perturbation,
                            quad: QuadratureConfig = QuadratureConfig()) -> float:
    """int <T, h> dv_o: the first variation of F along pert's direction."""
    r1, r2 = _require_annulus(data, annulus)
    _require_supported_inside(pert, r1, r2)
    n = data.n
    omega = sphere_area(n)

    def fn(r):
        density, a = _el_fields(data, pert, r)
        return density * np.sqrt(a) * r ** (n - 1)

    breaks = [r1, *pert.support(), r2]
    coarse = _integral_with_breaks(fn, breaks, quad, quad.panels)[0]
    fine = _integral_with_breaks(fn, breaks, quad, 2 * quad.panels)[0]
    if abs(fine - coarse) > quad.tol * (1.0 + abs(fine)):
        raise NumericsError("quadrature did not converge for the variation integral")
    return float(omega * fine)


def pohozaev_residual(data: SphericalStaticData, annulus,
                      quad: QuadratureConfig = QuadratureConfig()) -> float:
    """Defect of the divergence identity with X = grad V:

        (n-2)/(2n) int X(R) dv = -1/2 int <L_X g, Ric0> dv + int_d Ric0(X, N) ds,

    where Ric0 is the trace-free Ricci tensor and L_X g = 2 Hess V. Holds for
    any metric by the contracted second Bianchi identity, so the residual
    measures numerical consistency of the curvature operators, not a property
    of the data. Both integrands come from one jet of A and of V per node set.
    """
    r1, r2 = _require_annulus(data, annulus)
    n = data.n
    omega = sphere_area(n)

    def integrands(r):
        # Rows: the left side's X(R) and the right side's <Hess V, Ric0>, times dv.
        a, ap, app = data.a_jet(r)
        sa = np.sqrt(a)
        _, vp, vpp = data.V.jet(r)
        data.require_interior(r)
        Rp = scalar_curvature_d1_kernel(n, a, ap, app, r)
        hess = hessian_kernel(a, ap, vp, vpp, r)
        ric = ricci_kernel(n, a, ap, r)
        R = ric.trace(n)
        t_rad = ric.radial - R / n
        t_tan = ric.tangential - R / n
        inner = hess.radial * t_rad + (n - 1) * hess.tangential * t_tan
        return vp * Rp / sa * r ** (n - 1), inner * sa * r ** (n - 1)

    def sums(panels):
        xs, ws = quad.points(r1, r2, panels)
        return [float(_weighted_sums(ws, rows)[0]) for rows in integrands(xs)]

    coarse, fine = sums(quad.panels), sums(2 * quad.panels)
    for c, f in zip(coarse, fine):
        if abs(f - c) > quad.tol * (1.0 + abs(f)):
            raise NumericsError("quadrature did not converge in the identity check")
    lhs = (n - 2) / (2.0 * n) * omega * fine[0]

    def bterm(r, sign):
        rr = data.require_interior(r)
        a, ap, _ = data.a_jet(rr)
        ric = ricci_kernel(n, a, ap, rr)
        R = float(ric.trace(n))
        t_rad = float(ric.radial) - R / n
        x_frame = float(data.V.d1(r)) / math.sqrt(float(a))
        return sign * omega * r ** (n - 1) * x_frame * t_rad

    rhs = -omega * fine[1] + bterm(r2, +1.0) + bterm(r1, -1.0)
    return abs(lhs - rhs)


def surface_gravity(p: RNParameters) -> float:
    """kappa = (n-2)(m / r_h^{n-1} - q^2 / r_h^{2n-3}), the limit of |grad V|
    at the horizon. DomainError when no horizon exists (m < |q|)."""
    r_h = rn_horizon(p)
    if r_h is None:
        raise DomainError("no horizon: surface gravity undefined for m < |q|")
    n = p.n
    return (n - 2) * (p.m / r_h ** (n - 1) - p.q * p.q / r_h ** (2 * n - 3))
