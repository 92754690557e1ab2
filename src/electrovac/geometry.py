"""Core types and curvature operators for spherically symmetric static data.

The metric is g = A(r) dr^2 + r^2 g_S on an open radial interval, with g_S the
round unit (n-1)-sphere. Every symmetric 2-tensor built from such data is
diagonal in the orthonormal frame {e_0 = A^{-1/2} d/dr, tangential frame}, with
one radial and one (repeated) tangential eigenvalue; FrameTensor2 stores that
pair. All operators work elementwise on scalar or 1-D array radii; a float
radius is read in Python floats (profiles.float_pass).

Orientation convention: the unit normal of a coordinate sphere points toward
increasing r. Mean curvature is the trace of the shape operator for that
normal, so round spheres in flat space have H = (n-1)/r > 0.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Optional

from .errors import DomainError, NumericsError, ParameterError, as_float, require_dimension
from .profiles import (MODE_CLOSED_FORM, RadialProfile, finite_jet, float_pass, np, quiet,
                       require_open, sqrt)

V_ZERO_MARGIN = 1e-9
# |V| below this counts as zero: a photon sphere there is rejected, a slice
# check is degenerate, and a residual grid point is skipped.
DEGENERATE_V = 1e-9
# Identity tolerances by the accuracy of a data set's derivatives (default_tolerance).
TOL_CLOSED_FORM = 1e-9
TOL_FINITE_DIFFERENCE = 1e-5
# The most radii a residual grid or a photon-sphere scan takes. At this count a
# passing verify_all on rn_data took 0.23 s (2-core x86-64); memory is per block.
MAX_GRID_COUNT = 10 ** 6


def coupling_constant(n: int) -> float:
    """c_n = sqrt(2(n-2)/(n-1)); equals 1 in dimension 3. n is checked as
    require_dimension checks it."""
    require_dimension(n)
    return math.sqrt(2.0 * (n - 2) / (n - 1))


class Record:
    """Base of the package's result and parameter types: plain classes whose
    fields are their ``__slots__``, in order, which the repr lists.

    Its ``__init__`` binds every field, in ``__slots__`` order, by position
    and then by name, with no defaults: a missing, unknown or repeated field
    raises TypeError naming the class and the field. A class that checks or
    converts its input, or gives a field a default, defines its own."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        fields = dict(zip(names, args), **kwargs) if args else kwargs
        # As many distinct fields as given and as declared, each found, is
        # exactly the field set.
        if len(fields) == len(args) + len(kwargs) == len(names):
            try:
                for name in names:
                    setattr(self, name, fields[name])
                return
            except KeyError:
                pass
        wrong = ([f"got field {name!r} twice" for name in names[:len(args)] if name in kwargs]
                 + [f"has no field {name!r}" for name in kwargs if name not in names]
                 + [f"missing field {name!r}" for name in names if name not in fields]
                 + [f"takes {len(names)} fields, got {len(args)} by position"])
        raise TypeError(f"{type(self).__qualname__} {wrong[0]}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class ValueRecord(Record):
    """A Record that compares and hashes by its fields."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # instance -> its fields as a tuple: a lookup key of lru_cache, so kept fast.
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))


class FrameTensor2(Record):
    """Orthonormal-frame components of a radially symmetric 2-tensor."""

    __slots__ = ("radial", "tangential")

    def trace(self, n: int):
        return self.radial + (n - 1) * self.tangential

    def scaled(self, f):
        return FrameTensor2(radial=f * self.radial, tangential=f * self.tangential)


class HypersurfaceGeometry(Record):
    """Extrinsic/intrinsic data of the coordinate sphere at radius r.

    B_tan is the (repeated) tangential eigenvalue of the second fundamental
    form; round slices are umbilic, so B_tan = H/(n-1) holds exactly by
    construction. R_S is the intrinsic scalar curvature of the slice, V and
    nuV the potential and its normal derivative, and ric_nn and R the
    ambient Ricci curvature of the normal and scalar curvature, all from one
    read of the jets of A and V.
    """

    __slots__ = ("r", "H", "B_tan", "R_S", "V", "nuV", "ric_nn", "R")


class SphericalStaticData(Record):
    """Static spherically symmetric data (g, V, |E|) with optional potential.

    Fields
    ------
    n : spatial dimension, an integer from 3 to MAX_DIMENSION;
        ParameterError otherwise.
    lam : cosmological constant entering the field equations, finite;
        ParameterError otherwise.
    A, V, Emag : radial profiles of the metric coefficient, the static
        potential, and the electric field magnitude.
    Psi : optional electric potential with dV Psi = V E as dictionary.
    v_zeros : radii where V vanishes (domain edges for the standard family);
        the pointwise operators, residual grids and boundary radii, and the
        annulus endpoints of the variational functions refuse radii within
        1e-9 of any of them. Quadrature nodes inside an annulus are not
        checked: no integrand divides by V.
    r_scale : characteristic radius used when picking default grids on data
        whose domain reaches down to 0.
    joint : optional r -> the unchecked jets of A, V, Emag and Psi (if
        given), on one domain, from shared subexpressions, which ``jets``
        reads in place of the profiles for every count. ``rn_data`` makes
        each profile's jet a part of it, so the two cannot disagree, and so
        does a table's spline (one knot search per radius). On finite radii
        only a numpy overflow, invalid operation or division by zero may
        make a part non-finite. Kept as ``joint_jet``: a ``replace`` copy has none
        unless one is passed.
    """

    __slots__ = ("n", "lam", "A", "V", "Emag", "Psi", "v_zeros", "r_scale", "joint_jet")

    def __init__(self, n: int, lam: float, A: RadialProfile, V: RadialProfile,
                 Emag: RadialProfile, Psi: Optional[RadialProfile] = None,
                 v_zeros: tuple[float, ...] = (), r_scale: float = 1.0,
                 joint: Optional[Callable] = None):
        require_dimension(n)
        lam = as_float(lam, "cosmological constant lam")
        if not math.isfinite(lam):
            raise ParameterError(f"cosmological constant lam must be finite, got {lam}")
        self.n, self.lam, self.A, self.V, self.Emag, self.Psi = n, lam, A, V, Emag, Psi
        self.v_zeros, self.r_scale, self.joint_jet = v_zeros, r_scale, joint

    def replace(self, **changes) -> SphericalStaticData:
        """A copy with the given fields changed, checked as a new instance;
        it has a joint jet only if one is passed as ``joint``."""
        fields = {name: getattr(self, name) for name in self.__slots__ if name != "joint_jet"}
        return SphericalStaticData(**{**fields, **changes})

    @property
    def domain(self) -> tuple[float, float]:
        lo = max(self.A.domain[0], self.V.domain[0], self.Emag.domain[0])
        hi = min(self.A.domain[1], self.V.domain[1], self.Emag.domain[1])
        return (lo, hi)

    def require_interior(self, r):
        return self.require_off_v_zeros(require_open(r, self.domain, "data domain"))

    def require_off_v_zeros(self, r):
        for z in self.v_zeros:
            near = abs(r - z) < V_ZERO_MARGIN
            if near if type(r) is float else near.any():
                raise DomainError(f"radius within {V_ZERO_MARGIN} of the V-zero at r = {z}")
        return r

    @float_pass
    def jets(self, r, count: int) -> list:
        """The jets (f, f', f'') at r of the first count of A, V, Emag and Psi.

        Each jet is checked as the profile's own ``jet`` checks it, in that
        order, and A > 0 right after A's jet. Data without a joint jet reads
        its profiles; joint data takes one domain check (A's) and one joint
        pass for any count. A pass that meets no numpy overflow, invalid
        operation or division by zero on finite radii has only finite parts
        and skips their checks; one that does runs again with numpy's
        warnings off, and the jets asked for are checked in order, so the
        first non-finite part raises NumericsError. A float pass checks the
        jets asked for in order, as the array path's rerun does.
        """
        if self.joint_jet is not None:
            jets = _joint_jets(self.joint_jet, self.A.require_inside(r))
        else:
            jets = (prof.jet(r) for prof in (self.A, self.V, self.Emag, self.Psi))
        a = next(jets)
        _require_positive(a[0])
        return [a] + [next(jets) for _ in range(count - 1)]


def default_tolerance(data: SphericalStaticData) -> float:
    """TOL_CLOSED_FORM when every profile of data has closed-form
    derivatives, TOL_FINITE_DIFFERENCE otherwise."""
    profs = (data.A, data.V, data.Emag, data.Psi)
    closed = all(p is None or p.mode == MODE_CLOSED_FORM for p in profs)
    return TOL_CLOSED_FORM if closed else TOL_FINITE_DIFFERENCE


def require_tolerance(tol) -> float:
    """tol as a float; ParameterError unless it is finite and >= 0."""
    tol = as_float(tol, "identity tolerance")
    if not (math.isfinite(tol) and tol >= 0):
        raise ParameterError(f"identity tolerance must be finite and >= 0, got {tol}")
    return tol


def _require_positive(a):
    if (a <= 0) if type(a) is float else np.less_equal(a, 0).any():
        raise DomainError("metric coefficient A must be positive")
    return a


def _joint_jets(joint, r):
    """joint(r) at radii inside its domain (so finite) as an iterator of jets,
    checked when drawn unless a pass under raised numpy floating-point errors
    shows them finite. Float arithmetic flags no overflow or invalid
    operation, so a float pass checks each jet drawn."""
    if type(r) is float:
        with quiet():
            return map(finite_jet, joint(r))
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return iter(joint(r))
    except FloatingPointError:
        with np.errstate(all="ignore"):
            return map(finite_jet, joint(r))


def warped_scalar(n, A, Ap, C, Cp, Cpp):
    """Scalar curvature of A(r)dr^2 + C(r)^2 g_S, from the sectional curvatures
    K_rad of planes containing e_0 and K_tan of planes tangent to the sphere
    factor; for any metric in this warped form, including perturbed ones."""
    K_rad = -Cpp / (A * C) + Cp * Ap / (2.0 * A * A * C)
    K_tan = (1.0 - Cp * Cp / A) / (C * C)
    return 2.0 * (n - 1) * K_rad + (n - 1) * (n - 2) * K_tan


def _require_finite(what: str, *parts):
    for part in parts:
        if not (math.isfinite(part) if type(part) is float else np.isfinite(part).all()):
            raise NumericsError(f"non-finite {what}")


# Kernels on values already evaluated at r: a = A, ap = A', fp = f', fpp = f''.
def ricci_kernel(n, a, ap, r) -> FrameTensor2:
    # warped_scalar's K_rad and K_tan at C = r, C' = 1, C'' = 0, bit for bit.
    K_rad, K_tan = ap / (2.0 * a * a * r), (1.0 - 1.0 / a) / (r * r)
    ric = FrameTensor2(radial=(n - 1) * K_rad, tangential=K_rad + (n - 2) * K_tan)
    _require_finite("Ricci components", ric.radial, ric.tangential)
    return ric


def hessian_kernel(a, ap, fp, fpp, r) -> FrameTensor2:
    return FrameTensor2(radial=(fpp - ap * fp / (2.0 * a)) / a, tangential=fp / (r * a))


def laplacian_kernel(n, a, ap, fp, fpp, r):
    """Divergence form, grouped unlike trace(hessian_kernel) on purpose: their
    agreement to rounding is a consistency check, not a tautology."""
    return fpp / a - fp * ap / (2.0 * a * a) + (n - 1) * fp / (r * a)


def master_kernel(v, e2, hess: FrameTensor2, lap, vric: FrameTensor2) -> FrameTensor2:
    """T = Hess V - (Lap V) g - V Ric - 2 V (E-flat x E-flat - |E|^2 g), vric = V Ric:
    AE1 says T = 0, and <T, h> is the annulus functional's first variation."""
    return FrameTensor2(radial=hess.radial - lap - vric.radial,
                        tangential=hess.tangential - lap - vric.tangential + 2.0 * v * e2)


def scalar_curvature_d1_kernel(n, a, ap, app, r):
    """dR/dr from A, A', A'' already evaluated at r."""
    term1 = app / (a * a * r) - 2.0 * ap * ap / (a ** 3 * r) - ap / (a * a * r * r)
    term2 = ap / (a * a * r * r) - 2.0 * (1.0 - 1.0 / a) / r ** 3
    return (n - 1) * term1 + (n - 1) * (n - 2) * term2


# ricci_radial, scalar_curvature_d1 and level_set_geometry run their kernels
# with numpy's warnings off, as a residual block does: an overflow that ends
# non-finite raises NumericsError (in ricci_kernel, or in scalar_curvature_d1
# itself), and one that ends finite passes silently (at r = 1e200, r*r
# overflows and K_tan = x/inf reads 0).
@float_pass
def ricci_radial(data: SphericalStaticData, r) -> FrameTensor2:
    """Ricci tensor of g in frame components at radius r."""
    r = data.require_interior(r)
    (a, ap, _), = data.jets(r, 1)
    with quiet():
        return ricci_kernel(data.n, a, ap, r)


def scalar_curvature(data: SphericalStaticData, r):
    """Scalar curvature R_g at radius r."""
    return ricci_radial(data, r).trace(data.n)


def scalar_curvature_d1(data: SphericalStaticData, r):
    """Radial derivative dR/dr, in closed form from A, A', A''.

    A float radius is read as a 0-d array: numpy's r ** 3 on an array
    rounds unlike Python's pow, in about one radius in twenty."""
    r = np.asarray(data.require_interior(r), dtype=float)
    with quiet():
        dR = scalar_curvature_d1_kernel(data.n, *data.jets(r, 1)[0], r)
    _require_finite("scalar curvature derivative", dR)
    return dR


@float_pass
def hessian_radial(data: SphericalStaticData, f: RadialProfile, r) -> FrameTensor2:
    """Hessian of a radial function f in frame components."""
    r = data.require_interior(r)
    (a, ap, _), = data.jets(r, 1)
    _, fp, fpp = f.jet(r)
    return hessian_kernel(a, ap, fp, fpp, r)


@float_pass
def laplacian_radial(data: SphericalStaticData, f: RadialProfile, r):
    """Laplace-Beltrami of a radial function, via the divergence form."""
    r = data.require_interior(r)
    (a, ap, _), = data.jets(r, 1)
    _, fp, fpp = f.jet(r)
    return laplacian_kernel(data.n, a, ap, fp, fpp, r)


@float_pass
def grad_norm(data: SphericalStaticData, f: RadialProfile, r):
    """|grad f|_g = |f'| / sqrt(A) at radius r."""
    r = data.require_interior(r)
    (a, _, _), = data.jets(r, 1)
    return abs(f.d1(r)) / sqrt(a)


@float_pass
def level_set_geometry(data: SphericalStaticData, r) -> HypersurfaceGeometry:
    """Geometry of the coordinate sphere at r, normal toward increasing r."""
    r = data.require_interior(r)
    n = data.n
    (a, ap, _), (v, vp, _) = data.jets(r, 2)
    with quiet():
        sa = sqrt(a)
        H = (n - 1) / (r * sa)
        ric = ricci_kernel(n, a, ap, r)
        return HypersurfaceGeometry(r=r if type(r) is float else r[()], H=H, B_tan=H / (n - 1),
                                    R_S=(n - 1) * (n - 2) / (r * r), V=v, nuV=vp / sa,
                                    ric_nn=ric.radial, R=ric.trace(n))


def contracted_gauss_residual(data: SphericalStaticData, r):
    """Traced Gauss equation defect of the coordinate sphere at r.

    |R - 2 Ric(nu,nu) - R_S + ((n-2)/(n-1)) H^2|; zero for any metric, so
    nonzero values expose inconsistencies between the curvature operators.
    """
    n = data.n
    geo = level_set_geometry(data, r)
    return abs(geo.R - 2.0 * geo.ric_nn - geo.R_S + ((n - 2) / (n - 1)) * geo.H * geo.H)


def richardson_limit(samples):
    """Limit h -> 0 of f(h) from samples at h_k = h_0 / 10^k.

    Assumes a smooth expansion f = L + c_1 h + c_2 h^2 + ...; eliminates one
    power per tableau column, of which only the latest is kept.
    """
    col = list(map(float, samples))
    if len(col) < 2:
        raise NumericsError("need at least two samples to extrapolate")
    for j in range(1, len(col)):
        fac = 10.0 ** j
        col = [(fac * b - a) / (fac - 1.0) for a, b in zip(col, col[1:])]
    return col[0]


def horizon_gradient_limit(data: SphericalStaticData, r_h: float) -> float:
    """lim_{r -> r_h^+} |grad V|_g by Richardson extrapolation.

    Samples at r_h + 10^-k, k = 3..8, then extrapolates; the sample closest
    to the horizon stays outside the 1e-9 refusal margin around the V-zero.
    DomainError for an int r_h beyond the float range.
    """
    r_h = as_float(r_h, "horizon radius", DomainError)
    samples = [float(grad_norm(data, data.V, r_h + 10.0 ** (-k))) for k in range(3, 9)]
    return richardson_limit(samples)
