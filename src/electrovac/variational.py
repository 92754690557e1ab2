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

whose frame components are the master-equation residual AE1: the first
variation and AE1 take T from the same kernel, geometry.master_kernel, so
data solving the static system is critical.

The calls on one data set share their reads, and every cache is a functools
one. A quadrature's node array is built once per pair of rules and kept
read-only, and the jets of A, V and |E| on it are read once per data object
across calls: the last three (data, node array) pairs keep their jets, and a
call that needs fewer profiles takes a prefix. The annulus edges are checked
and read as Python floats, the sphere geometry at each once per data object.
So the four calls of one set read the data on two node arrays and at the two
edges. This assumes a data set's profiles are pure functions of r, as
verify_all does within a report; a read that raises keeps nothing.

The criticality ladder's rows, one per amplitude, differ only on the bump's
support: off it b = b' = b'' = 0 and each row equals the first amplitude's,
bit for bit. The first row is evaluated on every node and the others only on
the support, so the work and scratch of the other rows scale with the bump,
not with the annulus. The bump's parts are likewise evaluated only at the
nodes inside its support, and the first variation evaluates b alone.

The numpy call count, not the arithmetic, dominates a call on a few hundred
nodes, so each segment of a rule is summed for all rows of a batch with one
np.vecdot, which keeps each row's per-row dot bits.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Optional

import numpy as np

from .errors import DomainError, NumericsError, ParameterError, as_float, require_dimension
from .geometry import (
    Record,
    SphericalStaticData,
    ValueRecord,
    hessian_kernel,
    laplacian_kernel,
    level_set_geometry,
    master_kernel,
    ricci_kernel,
    scalar_curvature_d1_kernel,
    warped_scalar,
)
from .models import RNParameters, rn_horizon
from .profiles import float_array, require_open


def sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere in R^n: 2 pi^{n/2} / Gamma(n/2); n is
    checked as require_dimension checks it."""
    require_dimension(n)
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@functools.lru_cache(maxsize=16)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per node count
    and read-only, so no caller can corrupt the cache."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


MAX_NODES = 100
MAX_PANEL_NODES = 2 ** 16


class QuadratureConfig(ValueRecord):
    """Composite Gauss-Legendre rule: `panels` equal panels, `nodes` points
    each; `tol` bounds the panel-doubling change accepted as converged.
    Equal configurations hash alike: the node arrays are cached by them."""

    __slots__ = ("panels", "nodes", "tol")

    def __init__(self, panels: int = 16, nodes: int = 12, tol: float = 1e-9):
        for name, count in (("panels", panels), ("nodes", nodes)):
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise ParameterError(f"quadrature {name} must be an integer, got {count!r}")
        if panels < 1 or nodes < 2:
            raise ParameterError("need at least 1 panel and 2 nodes")
        # leggauss builds a nodes x nodes companion matrix, and every call
        # evaluates its integrand on about 3 panels x nodes points per row.
        if nodes > MAX_NODES:
            raise ParameterError(f"at most {MAX_NODES} nodes per panel, got {nodes}")
        if panels * nodes > MAX_PANEL_NODES:
            raise ParameterError(
                f"panels x nodes must be at most {MAX_PANEL_NODES}, got {panels * nodes}")
        tol = as_float(tol, "quadrature tolerance")
        if not 0 < tol < math.inf:
            raise ParameterError(f"quadrature tolerance must be finite and positive, got {tol}")
        self.panels, self.nodes, self.tol = panels, nodes, tol


def _break_segments(breaks, panels: int) -> tuple[tuple[float, float, int], ...]:
    """Segments (lo, hi, panels) of a composite rule whose segment edges sit
    on the integrand's kink radii, panels shared out by length.

    The bump profile is only C^2 at its support edges; putting those on
    segment boundaries keeps every Gauss panel on a smooth piece.
    NumericsError where a piece's share, panels (hi - lo) / (r2 - r1),
    overflows: the annulus is too wide for the quadrature.
    """
    breaks = sorted(set(float(b) for b in breaks))
    total = breaks[-1] - breaks[0]
    shares = [panels * (b - a) / total for a, b in zip(breaks[:-1], breaks[1:])]
    if not math.isfinite(sum(shares)):
        raise NumericsError(f"annulus [{breaks[0]}, {breaks[-1]}] too wide for the quadrature")
    return tuple((a, b, max(2, math.ceil(share)))
                 for a, b, share in zip(breaks[:-1], breaks[1:], shares))


@functools.lru_cache(maxsize=4)
def _rule_nodes(quad: QuadratureConfig, rules):
    """One node array holding every segment of every rule, in order.

    rules holds each rule's segments as tuples (lo, hi, panels). Returns the
    nodes and, per rule, its segments as (slice into the nodes, weights), so
    one integrand evaluation serves the coarse and the doubled rule alike.
    A segment's panel edges are np.linspace(lo, hi, panels + 1); the panels
    of all segments are built from them in one pass, with numpy's warnings
    off; NumericsError where a node overflows, on an annulus too wide for
    the quadrature. The arrays are read-only and built once per quad and
    rules, so calls on the same rules get the same node array and share its
    field reads.
    """
    x, w = _gauss_legendre(quad.nodes)
    with np.errstate(all="ignore"):
        edges = [np.linspace(lo, hi, panels + 1) for rule in rules for lo, hi, panels in rule]
        left = np.concatenate([e[:-1] for e in edges])
        right = np.concatenate([e[1:] for e in edges])
        mids = 0.5 * (left + right)
        half = 0.5 * (right - left)
        ws = (half[:, None] * w[None, :]).ravel()
        xs = (mids[:, None] + half[:, None] * x[None, :]).ravel()
    if not np.isfinite(xs).all():
        raise NumericsError("annulus too wide for the quadrature: a node overflows")
    xs.flags.writeable = ws.flags.writeable = False
    cuts = itertools.accumulate((quad.nodes * (len(e) - 1) for e in edges), initial=0)
    segments = (slice(a, b) for a, b in itertools.pairwise(cuts))
    # zip draws from segments only after rule yields a segment of its own.
    return xs, tuple(tuple((seg, ws[seg]) for _, seg in zip(rule, segments)) for rule in rules)


# level_set_geometry(data, r) at an annulus edge r, a float: the boundary terms
# of a set's calls read each edge once per data object.
_edge_geometry = functools.lru_cache(maxsize=4)(level_set_geometry)


# (data, id(r)) -> a one-item holder of (r, jets), the last three pairs kept.
# A holder's item pins r, so its id is not reused while the item is kept; the
# jets' arrays are shared by every call that takes them, and only read.
@functools.lru_cache(maxsize=3)
def _holder(data: SphericalStaticData, r_id: int) -> list:
    return [(None, ())]


def _jets(data: SphericalStaticData, r, count: int) -> list:
    """data.jets(r, count), read once per data object and radius array: a
    call whose kept read covers count profiles takes its prefix, and a read
    that raises keeps nothing."""
    holder = _holder(data, id(r))
    item = holder[0]
    if item[0] is not r or len(item[1]) < count:
        item = holder[0] = (r, data.jets(r, count))
    return item[1][:count]


def _finite_rows(vals) -> np.ndarray:
    """vals as rows of a 2-D float array; NumericsError unless all finite."""
    vals = np.atleast_2d(np.asarray(vals, dtype=float))
    if not np.isfinite(vals).all():
        raise NumericsError("non-finite integrand")
    return vals


def _rule_sums(rows, rule) -> np.ndarray:
    """Per row, the sums over the segments of rule, added in segment order.

    Each segment takes one np.vecdot over all rows, whose float64 loop calls
    per row the same BLAS ddot that np.dot(ws, row[segment]) calls on a
    contiguous view or a copy alike, so a row's sum does not depend on what
    else is in the batch or the node array; one matrix-vector product would
    round differently."""
    return sum(np.vecdot(rows[:, seg], ws) for seg, ws in rule)


def _rule_integrals(fn, quad: QuadratureConfig, rules) -> list[np.ndarray]:
    """Each rule's per-row sums of fn, evaluated once on one node array.

    fn runs with numpy's floating-point warnings off: _finite_rows reports a
    non-finite integrand as NumericsError. The rows are then finite, so a
    sum is non-finite only where it overflows, which raises NumericsError
    too."""
    xs, rules = _rule_nodes(quad, rules)
    with np.errstate(all="ignore"):
        rows = _finite_rows(fn(xs))
    try:
        with np.errstate(over="raise"):
            return [_rule_sums(rows, rule) for rule in rules]
    except FloatingPointError:
        raise NumericsError("non-finite integral") from None


class Perturbation(Record):
    """Compactly supported radial bump applied to the metric.

    The profile is b(t) = (1 - t^2)^3 on |t| < 1 with t = (r - center)/halfwidth,
    which is C^2 with vanishing first and second derivatives at the support
    edge. Mode selects which metric components scale:

      "radial"      g -> A (1 + eps b) dr^2 + r^2 g_S
      "tangential"  g -> A dr^2 + r^2 (1 + eps b) g_S
      "both"        both factors

    amplitude is eps; |eps| <= 0.5 keeps the metric positive definite.
    """

    __slots__ = ("center", "halfwidth", "mode", "amplitude")

    def __init__(self, center: float, halfwidth: float, mode: str = "both",
                 amplitude: float = 1e-3):
        center = as_float(center, "bump center")
        halfwidth = as_float(halfwidth, "bump halfwidth")
        amplitude = as_float(amplitude, "bump amplitude")
        if not (halfwidth > 0 and math.isfinite(center)):
            raise ParameterError("bump needs finite center and positive halfwidth")
        if mode not in ("radial", "tangential", "both"):
            raise ParameterError(f"unknown perturbation mode {mode!r}")
        if not (abs(amplitude) <= 0.5):
            raise ParameterError("|amplitude| must be <= 0.5 for a positive metric")
        self.center, self.halfwidth, self.mode, self.amplitude = center, halfwidth, mode, amplitude
        lo, hi = self.support()
        if not lo < center < hi:
            raise ParameterError(
                f"bump halfwidth {halfwidth} is below the resolution of its center "
                f"{center}: the support edges round onto the center")
        # halfwidth ** 2 overflows above about 1.34e154, and b'' = -6 / halfwidth ** 2
        # at the center overflows below about 1.83e-154.
        hw2 = halfwidth * halfwidth
        if not math.isfinite(hw2):
            raise ParameterError(f"bump halfwidth {halfwidth} too large: halfwidth^2 overflows")
        if not (hw2 > 0.0 and math.isfinite(6.0 / hw2)):
            raise ParameterError(f"bump halfwidth {halfwidth} too small: 6/halfwidth^2 overflows")

    def support(self) -> tuple[float, float]:
        return (self.center - self.halfwidth, self.center + self.halfwidth)

    def _inside(self, r):
        """The mask of the radii r inside the open support, and t = (r -
        center) / halfwidth and u = 1 - t^2 at those radii.

        The offset from the center is clipped to the support before it is
        scaled: inside the support that changes no bit, and far from a narrow
        support the scaled offset does not overflow. DomainError for an int
        radius beyond the float range."""
        hw = self.halfwidth
        t = np.clip(float_array(r, "radius") - self.center, -hw, hw) / hw
        inside = np.abs(t) < 1.0
        t = t[inside]
        return inside, t, 1.0 - t * t

    def bump_jet(self, r):
        """(b, b', b'') at r, float arrays of r's shape.

        Each part is evaluated only at the radii inside the support and
        written into an array of zeros, so off the support every part is
        +0.0 and its cost scales with the support, not with r."""
        inside, t, u = self._inside(r)
        hw = self.halfwidth
        return tuple(_on_support(inside, part) for part in (
            u ** 3, -6.0 * t * u ** 2 / hw, (-6.0 * u ** 2 + 24.0 * t * t * u) / hw ** 2))

    def bump(self, r):
        """b at r: bump_jet(r)[0], bit for bit, without b' and b''."""
        inside, _, u = self._inside(r)
        return _on_support(inside, u ** 3)

    @property
    def radial_on(self) -> float:
        return 1.0 if self.mode in ("radial", "both") else 0.0

    @property
    def tangential_on(self) -> float:
        return 1.0 if self.mode in ("tangential", "both") else 0.0


def _on_support(inside, values) -> np.ndarray:
    """An array of zeros shaped as the mask inside, with values where it is set."""
    out = np.zeros(inside.shape)
    out[inside] = values
    return out


def _require_annulus(data: SphericalStaticData, annulus,
                     pert: Optional[Perturbation] = None) -> tuple[float, float]:
    """r1 < r2 inside the data domain, with pert's support inside (r1, r2).

    The edges are checked as Python floats in the order require_interior
    checks the array [r1, r2], both against the open domain and then both
    against the V-zero margin, so a bad edge raises the error and message
    that require_interior raises on that array."""
    r1, r2 = (as_float(r, "annulus edge", DomainError) for r in (annulus[0], annulus[1]))
    if not r1 < r2:
        raise DomainError(f"annulus endpoints out of order: [{r1}, {r2}]")
    domain = data.domain
    for r in (r1, r2):
        require_open(r, domain, "data domain")
    for r in (r1, r2):
        data.require_off_v_zeros(r)
    if pert is not None:
        lo, hi = pert.support()
        if not (r1 < lo and hi < r2):
            raise DomainError(
                f"perturbation support [{lo}, {hi}] must lie in the open annulus ({r1}, {r2})")
    return r1, r2


def _converged(quad: QuadratureConfig, coarse, fine, what: str = "") -> list[float]:
    """The fine rule's values, each moved by panel doubling <= quad.tol (1 + |fine|)."""
    for c, f in zip(coarse, fine):
        if abs(f - c) > quad.tol * (1.0 + abs(f)):
            raise NumericsError(f"quadrature did not converge{what}: "
                                f"panel doubling moved the value by {f - c:.3e}")
    return [float(f) for f in fine]


def _functional_integrand(data: SphericalStaticData, pert: Optional[Perturbation],
                          amplitudes, r, norm: bool = False):
    """F's bulk integrand at r: with pert None, its one unperturbed row;
    else one row per amplitude of pert's direction and, last with norm, the
    density |h|^2 dv_o of its unit-amplitude direction h.

    The base fields and the bump are evaluated once for all rows; each row's
    arithmetic is the single-amplitude expression, elementwise, so a row is
    bit-identical to the integrand of that amplitude alone, at any radii.

    Where b = b' = b'' = 0, A, C, C' and |E|^2 keep their base values, and
    the terms that carry eps are zeros whose signs leave R's bits unchanged,
    so every amplitude's row equals the first one's there, bit for bit. The
    first row is evaluated on every node, the others only on the nodes where
    the bump's jet is nonzero.
    """
    n = data.n
    (a0, ap0, _), (v, _, _), (e, _, _) = _jets(data, r, 3)
    sa0 = np.sqrt(a0)
    e2 = e ** 2
    rn = r ** (n - 1)
    if pert is None:
        ric_rad, ric_tan = ricci_kernel(n, a0, ap0, r)
        R = ric_rad + (n - 1) * ric_tan
        return v * (R - 6.0 * e2) * sa0 * rn + 4.0 * v * e2 * sa0 * rn
    eps = np.asarray(amplitudes, dtype=float)[:, None]
    b, b1, b2 = pert.bump_jet(r)
    fields = (a0, ap0, sa0, v, e2, r, rn, pert.radial_on * b, pert.radial_on * b1,
              pert.tangential_on * b, pert.tangential_on * b1, pert.tangential_on * b2)

    def bulk(eps, a0, ap0, sa0, v, e2, r, rn, ba, ba1, bc, bc1, bc2):
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
        return (v * (R - 6.0 * e2p) * sa0 * rn
                + 4.0 * v * e2p * np.sqrt(A) * C ** (n - 1))

    rows = np.empty((len(eps) + norm, len(r)))
    # A float amplitude keeps the first row's arithmetic 1-D, where a
    # (1, 1) array would broadcast it.
    rows[:len(eps)] = bulk(float(eps[0, 0]), *fields)
    if len(eps) > 1:
        # b' and b'' vanish where b does: b = u^3 with u >= 2^-53 on the open
        # support, so b is positive there, and every part is 0 off it.
        at = np.flatnonzero(b)
        rows[1:len(eps), at] = bulk(eps[1:], *(f[at] for f in fields))
    if norm:
        rows[-1] = _norm_density(n, pert, b, sa0, r)
    return rows


def _norm_density(n: int, pert: Perturbation, b, sa, r):
    """|h|^2 dv_o of pert's unit-amplitude direction, from its bump b and
    sqrt(A) at r."""
    a = pert.radial_on * b
    c = pert.tangential_on * b
    return (a * a + (n - 1) * c * c) * sa * r ** (n - 1)


def _functional_boundary(data: SphericalStaticData, r1: float, r2: float) -> float:
    """Boundary term 2 int V H ds_o with outward normals; the perturbation
    vanishes on a neighborhood of the boundary, so base quantities apply.
    Each edge's V and H come from its cached sphere geometry, and the term
    is taken in Python floats."""
    n = data.n
    g1, g2 = _edge_geometry(data, r1), _edge_geometry(data, r2)
    return 2.0 * sphere_area(n) * (g2.V * g2.H * r2 ** (n - 1) - g1.V * g1.H * r1 ** (n - 1))


def _functional_values(data: SphericalStaticData, r1: float, r2: float,
                       pert: Optional[Perturbation], amplitudes,
                       quad: QuadratureConfig, norm: bool = False):
    """F at each amplitude of pert's direction (pert None: the one unperturbed
    value), each with its own panel-doubling convergence check, in order.

    Returns (values, pert_norm). With norm, pert_norm is the L^2(dv_o) norm
    of pert's unit-amplitude direction, from the integrand's last row summed
    on the coarse rule; None otherwise.
    """
    omega = sphere_area(data.n)
    breaks = [r1, r2] if pert is None else [r1, r2, *pert.support()]
    coarse, fine = _rule_integrals(
        lambda r: _functional_integrand(data, pert, amplitudes, r, norm), quad,
        (_break_segments(breaks, quad.panels), _break_segments(breaks, 2 * quad.panels)))
    pert_norm = math.sqrt(omega * coarse[-1]) if norm else None
    if norm:
        coarse, fine = coarse[:-1], fine[:-1]
    term = _functional_boundary(data, r1, r2)
    return _converged(quad, omega * coarse + term, omega * fine + term), pert_norm


def evaluate_functional(data: SphericalStaticData, annulus,
                        pert: Optional[Perturbation] = None,
                        quad: QuadratureConfig = QuadratureConfig()) -> float:
    """F[g] over the annulus, with panel-doubling convergence control."""
    r1, r2 = _require_annulus(data, annulus, pert)
    amplitudes = () if pert is None else (pert.amplitude,)
    return _functional_values(data, r1, r2, pert, amplitudes, quad)[0][0]


class CriticalityResult(ValueRecord):
    """Central-difference derivative of F along a perturbation family.

    derivatives[i] estimates dF/deps at eps = 0 from +/- epsilons[i]; slope is
    the log-log decay rate of |derivative| vs eps (2 for a critical point with
    smooth third variation); refined is the Richardson improvement from the
    smallest epsilon pair. Criticality passes when the refined derivative is
    below tol = 1e-5 * pert_norm and the slope sits in [1.8, 2.2].
    """

    __slots__ = ("epsilons", "derivatives", "slope", "refined", "pert_norm", "tol",
                 "slope_ok", "final_ok")

    @property
    def passed(self) -> bool:
        return self.slope_ok and self.final_ok


# criticality_test's central-difference amplitudes, largest first.
EPSILONS = (1e-2, 1e-3, 2e-4, 1e-4)


def criticality_test(data: SphericalStaticData, annulus, pert: Perturbation,
                     quad: QuadratureConfig = QuadratureConfig()) -> CriticalityResult:
    """Estimate dF/deps at eps = 0 by central differences over EPSILONS.

    The 2 len(EPSILONS) bumped functionals share one evaluation of the base
    fields and of the bump on one node array, which holds both rules of the
    panel-doubling check; each is summed and convergence-checked on its own,
    so derivatives[i] equals

        (evaluate_functional(+eps_i) - evaluate_functional(-eps_i)) / (2 eps_i)

    bit for bit, and a ladder whose quadrature does not converge raises the
    NumericsError that amplitude raises alone. The amplitudes' integrands
    differ only on the bump's support, where each is evaluated on its own;
    off it they share the first amplitude's values. pert_norm, the L^2(dv_o)
    norm of pert's unit-amplitude direction, comes from the same evaluation,
    summed on the coarse rule's nodes.
    """
    r1, r2 = _require_annulus(data, annulus, pert)
    values, norm = _functional_values(
        data, r1, r2, pert, [a for eps in EPSILONS for a in (+eps, -eps)], quad, norm=True)
    derivs = [(fp - fm) / (2.0 * eps)
              for eps, fp, fm in zip(EPSILONS, values[0::2], values[1::2])]
    tol = 1e-5 * norm

    mags = np.abs(np.asarray(derivs))
    usable = mags > 0
    if np.count_nonzero(usable) >= 2:
        slope = float(np.polyfit(np.log(np.asarray(EPSILONS)[usable]),
                                 np.log(mags[usable]), 1)[0])
    else:
        slope = float("nan")

    # Richardson on EPSILONS[-1] and EPSILONS[-2] = 2 EPSILONS[-1] removes the eps^2 term.
    refined = (4.0 * derivs[-1] - derivs[-2]) / 3.0

    return CriticalityResult(epsilons=EPSILONS, derivatives=tuple(derivs), slope=slope,
                             refined=refined, pert_norm=norm, tol=tol,
                             slope_ok=1.8 <= slope <= 2.2, final_ok=abs(refined) <= tol)


def _el_integrand(data: SphericalStaticData, pert: Perturbation, r):
    """<T, h> dv_o at r, for the unit-amplitude direction h of pert, from one
    read of the jets of A, V and |E|."""
    n = data.n
    (a, ap, _), (v, vp, vpp), (e, _, _) = _jets(data, r, 3)
    hess = hessian_kernel(a, ap, vp, vpp, r)
    lap = laplacian_kernel(n, a, ap, vp, vpp, r)
    ric_rad, ric_tan = ricci_kernel(n, a, ap, r)
    T_rad, T_tan = master_kernel(v, e ** 2, hess, lap, (v * ric_rad, v * ric_tan))
    b = pert.bump(r)
    density = T_rad * (pert.radial_on * b) + (n - 1) * T_tan * (pert.tangential_on * b)
    return density * np.sqrt(a) * r ** (n - 1)


def euler_lagrange_integral(data: SphericalStaticData, annulus, pert: Perturbation,
                            quad: QuadratureConfig = QuadratureConfig()) -> float:
    """int <T, h> dv_o: the first variation of F along pert's direction."""
    r1, r2 = _require_annulus(data, annulus, pert)
    breaks = [r1, *pert.support(), r2]
    coarse, fine = _rule_integrals(
        lambda r: _el_integrand(data, pert, r), quad,
        (_break_segments(breaks, quad.panels), _break_segments(breaks, 2 * quad.panels)))
    value, = _converged(quad, coarse, fine, " for the variation integral")
    return sphere_area(data.n) * value


def _pohozaev_integrands(data: SphericalStaticData, r):
    """The identity's two bulk integrands at r, times dv: the left side's X(R)
    and the right side's <Hess V, Ric0>, from one read of the jets of A and V."""
    n = data.n
    (a, ap, app), (_, vp, vpp) = _jets(data, r, 2)
    sa = np.sqrt(a)
    Rp = scalar_curvature_d1_kernel(n, a, ap, app, r)
    hess_rad, hess_tan = hessian_kernel(a, ap, vp, vpp, r)
    ric_rad, ric_tan = ricci_kernel(n, a, ap, r)
    R = ric_rad + (n - 1) * ric_tan
    t_rad = ric_rad - R / n
    t_tan = ric_tan - R / n
    inner = hess_rad * t_rad + (n - 1) * hess_tan * t_tan
    return vp * Rp / sa * r ** (n - 1), inner * sa * r ** (n - 1)


def _pohozaev_boundary(data: SphericalStaticData, r1: float, r2: float) -> tuple[float, float]:
    """The boundary integrals of Ric0(X, N) over the spheres at r1 and r2,
    each signed by the orientation of the annulus' outward normal there,
    from the cached sphere geometry _functional_boundary reads, in Python
    floats as there."""
    n = data.n
    return tuple(sign * sphere_area(n) * r ** (n - 1) * geo.nuV * (geo.ric_nn - geo.R / n)
                 for sign, r, geo in zip((-1.0, 1.0), (r1, r2),
                                         (_edge_geometry(data, r1), _edge_geometry(data, r2))))


def pohozaev_residual(data: SphericalStaticData, annulus,
                      quad: QuadratureConfig = QuadratureConfig()) -> float:
    """Defect of the divergence identity with X = grad V:

        (n-2)/(2n) int X(R) dv = -1/2 int <L_X g, Ric0> dv + int_d Ric0(X, N) ds,

    where Ric0 is the trace-free Ricci tensor and L_X g = 2 Hess V. Holds for
    any metric by the contracted second Bianchi identity, so the residual
    measures numerical consistency of the curvature operators, not a property
    of the data. Both integrands, on the coarse and the doubled rule alike,
    come from one read of the jets of A and V on one node array.
    """
    r1, r2 = _require_annulus(data, annulus)
    n = data.n
    omega = sphere_area(n)
    coarse, fine = _rule_integrals(
        lambda r: _pohozaev_integrands(data, r), quad,
        (((r1, r2, quad.panels),), ((r1, r2, 2 * quad.panels),)))
    fine = _converged(quad, coarse, fine, " in the identity check")
    lhs = (n - 2) / (2.0 * n) * omega * fine[0]
    inner, outer = _pohozaev_boundary(data, r1, r2)
    rhs = -omega * fine[1] + outer + inner
    return abs(lhs - rhs)


def surface_gravity(p: RNParameters) -> float:
    """kappa = (n-2)(m / r_h^{n-1} - q^2 / r_h^{2n-3}), the limit of |grad V|
    at the horizon. DomainError when no horizon exists (m < |q|)."""
    r_h = rn_horizon(p)
    if r_h is None:
        raise DomainError("no horizon: surface gravity undefined for m < |q|")
    n = p.n
    return (n - 2) * (p.m / r_h ** (n - 1) - p.q * p.q / r_h ** (2 * n - 3))
