"""Core types and curvature operators for spherically symmetric static data.

The metric is g = A(r) dr^2 + r^2 g_S on an open radial interval, with g_S the
round unit (n-1)-sphere. Every symmetric 2-tensor built from such data is
diagonal in the orthonormal frame {e_0 = A^{-1/2} d/dr, tangential frame}, with
one radial and one (repeated) tangential eigenvalue; FrameTensor2 stores that
pair. All operators work elementwise on scalar or 1-D array radii.

Orientation convention: the unit normal of a coordinate sphere points toward
increasing r. Mean curvature is the trace of the shape operator for that
normal, so round spheres in flat space have H = (n-1)/r > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, NumericsError
from .profiles import RadialProfile

V_ZERO_MARGIN = 1e-9


@dataclass(frozen=True)
class FrameTensor2:
    """Orthonormal-frame components of a radially symmetric 2-tensor."""

    radial: np.ndarray | float
    tangential: np.ndarray | float

    def trace(self, n: int):
        return self.radial + (n - 1) * self.tangential

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.radial)), np.max(np.abs(self.tangential))))


@dataclass(frozen=True)
class HypersurfaceGeometry:
    """Extrinsic/intrinsic data of the coordinate sphere at radius r.

    B_tan is the (repeated) tangential eigenvalue of the second fundamental
    form; round slices are umbilic, so B_tan = H/(n-1) holds exactly by
    construction. R_S is the intrinsic scalar curvature of the slice and
    nuV the normal derivative of the potential.
    """

    r: np.ndarray | float
    H: np.ndarray | float
    B_tan: np.ndarray | float
    R_S: np.ndarray | float
    nuV: np.ndarray | float
    ric_nn: np.ndarray | float


@dataclass(frozen=True)
class SphericalStaticData:
    """Static spherically symmetric data (g, V, |E|) with optional potential.

    Fields
    ------
    n : spatial dimension, at least 3.
    lam : cosmological constant entering the field equations.
    A, V, Emag : radial profiles of the metric coefficient, the static
        potential, and the electric field magnitude.
    Psi : optional electric potential with dV Psi = V E as dictionary.
    v_zeros : radii where V vanishes (domain edges for the standard family);
        operations refuse radii within 1e-9 of any of them.
    r_scale : characteristic radius used when picking default grids on data
        whose domain reaches down to 0.
    """

    n: int
    lam: float
    A: RadialProfile
    V: RadialProfile
    Emag: RadialProfile
    Psi: Optional[RadialProfile] = None
    v_zeros: tuple[float, ...] = field(default=())
    r_scale: float = 1.0

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise DomainError(f"dimension must be an integer >= 3, got {self.n}")

    @property
    def domain(self) -> tuple[float, float]:
        lo = max(self.A.domain[0], self.V.domain[0], self.Emag.domain[0])
        hi = min(self.A.domain[1], self.V.domain[1], self.Emag.domain[1])
        return (lo, hi)

    def require_interior(self, r):
        r = np.asarray(r, dtype=float)
        lo, hi = self.domain
        if np.any(r <= lo) or np.any(r >= hi):
            bad = r if r.ndim == 0 else r[(r <= lo) | (r >= hi)][0]
            raise DomainError(f"radius {float(bad)} outside data domain ({lo}, {hi})")
        for z in self.v_zeros:
            if np.any(np.abs(r - z) < V_ZERO_MARGIN):
                raise DomainError(f"radius within {V_ZERO_MARGIN} of the V-zero at r = {z}")
        return r

    def a_positive(self, r):
        a = self.A(r)
        if np.any(a <= 0):
            raise DomainError("metric coefficient A must be positive")
        return a


def warped_sectional(n, A, Ap, C, Cp, Cpp):
    """Radial and tangential sectional curvatures of A(r)dr^2 + C(r)^2 g_S.

    Returns (K_rad, K_tan): the curvature of planes containing e_0, and of
    planes tangent to the sphere factor. Building blocks for Ricci and R of
    any metric in this warped form, including perturbed ones.
    """
    K_rad = -Cpp / (A * C) + Cp * Ap / (2.0 * A * A * C)
    K_tan = (1.0 - Cp * Cp / A) / (C * C)
    return K_rad, K_tan


def warped_ricci(n, A, Ap, C, Cp, Cpp) -> FrameTensor2:
    K_rad, K_tan = warped_sectional(n, A, Ap, C, Cp, Cpp)
    return FrameTensor2(
        radial=(n - 1) * K_rad,
        tangential=K_rad + (n - 2) * K_tan,
    )


def warped_scalar(n, A, Ap, C, Cp, Cpp):
    K_rad, K_tan = warped_sectional(n, A, Ap, C, Cp, Cpp)
    return 2.0 * (n - 1) * K_rad + (n - 1) * (n - 2) * K_tan


def ricci_radial(data: SphericalStaticData, r) -> FrameTensor2:
    """Ricci tensor of g in frame components at radius r."""
    r = data.require_interior(r)
    a = data.a_positive(r)
    ap = data.A.d1(r)
    ric = warped_ricci(data.n, a, ap, r, np.ones_like(np.asarray(r, dtype=float))[()], 0.0)
    if not (np.all(np.isfinite(ric.radial)) and np.all(np.isfinite(ric.tangential))):
        raise NumericsError("non-finite Ricci components")
    return ric


def scalar_curvature(data: SphericalStaticData, r):
    """Scalar curvature R_g at radius r."""
    ric = ricci_radial(data, r)
    return ric.trace(data.n)


def scalar_curvature_d1(data: SphericalStaticData, r):
    """Radial derivative dR/dr, in closed form from A, A', A''."""
    r = data.require_interior(r)
    n = data.n
    a = data.a_positive(r)
    ap = data.A.d1(r)
    app = data.A.d2(r)
    term1 = app / (a * a * r) - 2.0 * ap * ap / (a ** 3 * r) - ap / (a * a * r * r)
    term2 = ap / (a * a * r * r) - 2.0 * (1.0 - 1.0 / a) / r ** 3
    return (n - 1) * term1 + (n - 1) * (n - 2) * term2


def hessian_radial(data: SphericalStaticData, f: RadialProfile, r) -> FrameTensor2:
    """Hessian of a radial function f in frame components."""
    r = data.require_interior(r)
    a = data.a_positive(r)
    ap = data.A.d1(r)
    fp = f.d1(r)
    fpp = f.d2(r)
    return FrameTensor2(
        radial=(fpp - ap * fp / (2.0 * a)) / a,
        tangential=fp / (r * a),
    )


def laplacian_radial(data: SphericalStaticData, f: RadialProfile, r):
    """Laplace-Beltrami of a radial function, via the divergence form.

    Grouped differently from trace(hessian_radial) on purpose: agreement of
    the two to rounding is a consistency check, not a tautology.
    """
    r = data.require_interior(r)
    a = data.a_positive(r)
    ap = data.A.d1(r)
    fp = f.d1(r)
    fpp = f.d2(r)
    return fpp / a - fp * ap / (2.0 * a * a) + (data.n - 1) * fp / (r * a)


def grad_norm(data: SphericalStaticData, f: RadialProfile, r):
    """|grad f|_g = |f'| / sqrt(A) at radius r."""
    r = data.require_interior(r)
    a = data.a_positive(r)
    return np.abs(f.d1(r)) / np.sqrt(a)


def level_set_geometry(data: SphericalStaticData, r) -> HypersurfaceGeometry:
    """Geometry of the coordinate sphere at r, normal toward increasing r."""
    r = data.require_interior(r)
    n = data.n
    a = data.a_positive(r)
    sa = np.sqrt(a)
    H = (n - 1) / (r * sa)
    return HypersurfaceGeometry(
        r=r[()] if hasattr(r, "ndim") else r,
        H=H,
        B_tan=H / (n - 1),
        R_S=(n - 1) * (n - 2) / (r * r),
        nuV=data.V.d1(r) / sa,
        ric_nn=ricci_radial(data, r).radial,
    )


def contracted_gauss_residual(data: SphericalStaticData, r):
    """Traced Gauss equation defect of the coordinate sphere at r.

    |R - 2 Ric(nu,nu) - R_S + ((n-2)/(n-1)) H^2|; zero for any metric, so
    nonzero values expose inconsistencies between the curvature operators.
    """
    n = data.n
    geo = level_set_geometry(data, r)
    R = scalar_curvature(data, r)
    return np.abs(R - 2.0 * geo.ric_nn - geo.R_S + ((n - 2) / (n - 1)) * geo.H * geo.H)


def richardson_limit(samples, ratio=10.0):
    """Limit h -> 0 of f(h) from samples at h_k = h_0 / ratio^k.

    Assumes a smooth expansion f = L + c_1 h + c_2 h^2 + ...; eliminates one
    power per tableau column.
    """
    t = [list(map(float, samples))]
    k = len(t[0])
    if k < 2:
        raise NumericsError("need at least two samples to extrapolate")
    for j in range(1, k):
        prev = t[-1]
        fac = ratio ** j
        t.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)])
    return t[-1][0]


def horizon_gradient_limit(data: SphericalStaticData, r_h: float) -> float:
    """lim_{r -> r_h^+} |grad V|_g by Richardson extrapolation.

    Samples at r_h + 10^-k, k = 3..8, then extrapolates; the sample closest
    to the horizon stays outside the 1e-9 refusal margin around the V-zero.
    """
    samples = [float(grad_norm(data, data.V, r_h + 10.0 ** (-k))) for k in range(3, 9)]
    return richardson_limit(samples, ratio=10.0)
