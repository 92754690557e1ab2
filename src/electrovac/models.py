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
from typing import Optional

from .errors import DomainError, ParameterError, as_float, require_dimension
from .geometry import MAX_GRID_COUNT, Record, SphericalStaticData, coupling_constant
from .profiles import RadialProfile, constant_profile, float_array, np, sqrt


class RNParameters(Record):
    """Mass/charge parameters of the charged static family. n is an integer
    from 3 to MAX_DIMENSION; the family is built with lam = 0, which
    rn_data sets on its data."""

    __slots__ = ("n", "m", "q")

    def __init__(self, n: int, m: float, q: float):
        require_dimension(n)
        m, q = as_float(m, "mass"), as_float(q, "charge")
        if not (math.isfinite(m) and m > 0):
            raise ParameterError(f"mass must be positive and finite, got {m}")
        if not math.isfinite(q):
            raise ParameterError(f"charge must be finite, got {q}")
        # The two terms of the photon-sphere discriminant (n m)^2 - 4(n-1) q^2;
        # with n >= 3 they bound m^2 and q^2, which rn_horizon and the closed forms take.
        nm = n * m
        for name, term, value in (("mass", nm * nm, m), ("charge", 4.0 * (n - 1) * q * q, q)):
            if not math.isfinite(term):
                raise ParameterError(f"{name} too large: its term of the photon-sphere "
                                     f"discriminant overflows a float, got {value}")
        self.n, self.m, self.q = n, m, q

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
    """Closed-form data for the charged family on (r0, oo).

    The closed forms are written once, in the joint jet, from x = 1/r and
    x^k, k = n - 2, for a float radius and a radius array alike. Each
    profile's jet is the joint's part, so a direct profile read, value or
    derivative, runs the whole joint pass.
    """
    n, m, q = p.n, p.m, p.q
    k = n - 2
    cn = coupling_constant(n)
    ce = k * abs(q) / cn
    cp = q / cn

    def joint(r):
        # x^k by multiplication: no float power to overflow.
        x = 1.0 / r
        xk = x
        for _ in range(k - 1):
            xk = xk * x
        # W = V^2 = 1/A = 1 - 2 u1 + u2, with u1 = m x^k and u2 = (q x^k)^2.
        qx = q * xk
        u1, u2 = m * xk, qx * qx
        w = 1.0 - 2.0 * u1 + u2
        wp = 2.0 * k * x * (u1 - u2)
        wpp = 2.0 * k * x * (x * ((2 * k + 1) * u2 - (k + 1) * u1))
        ww, sw = w * w, sqrt(w)
        # |E| = ce x^(k+1) and Psi = cp x^k; each derivative is one more factor of x.
        e = ce * xk * x
        ex = e * x
        psi = cp * xk
        px = psi * x
        return ((1.0 / w, -wp / ww, -wpp / ww + 2.0 * wp * wp / (ww * w)),
                (sw, wp / (2.0 * sw), wpp / (2.0 * sw) - wp * wp / (4.0 * (w * sw))),
                (e, -(n - 1) * ex, n * (n - 1) * ex * x),
                (psi, -k * px, k * (k + 1) * px * x))

    dom = (rn_r0(p), math.inf)
    A, V, Emag, Psi = (RadialProfile(jet=lambda r, i=i: joint(r)[i], domain=dom) for i in range(4))
    h = rn_horizon(p)
    return SphericalStaticData(n=n, lam=0.0, A=A, V=V, Emag=Emag, Psi=Psi,
                               v_zeros=(h,) if h is not None else (),
                               r_scale=max(m, abs(q)) ** (1.0 / k), joint=joint)


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

    Deliberately breaks the field equations while keeping smooth derivatives
    as accurate as base's, whose mode the new V keeps; used to exercise
    failure paths. ParameterError unless amplitude and center are finite and
    width is finite and positive.
    """
    amplitude, center, width = (as_float(x, "potential bump parameter")
                                for x in (amplitude, center, width))
    if not (all(map(math.isfinite, (amplitude, center, width))) and width > 0):
        raise ParameterError("bump amplitude and center must be finite and its width "
                             f"finite and positive, got {amplitude}, {center}, {width}")
    V = base.V

    def bumped(r, f, f1, f2):
        """The jet (f, f1, f2) of V at r plus the bump's."""
        t = (r - center) / width
        g = amplitude * np.exp(-t * t)
        return f + g, f1 + g * (-2.0 * t / width), f2 + g * (4.0 * t * t - 2.0) / (width * width)

    newV = RadialProfile(jet=lambda r: bumped(r, *V.jet(r)), domain=V.domain, mode=V.mode)

    def joint(r):
        a, v, *rest = base.joint_jet(r)
        return a, bumped(r, *v), *rest

    return base.replace(V=newV, joint=joint if base.joint_jet else None)


# ---------------------------------------------------------------------------
# Isotropic chart


class IsotropicPoint(Record):
    """Chart values at isotropic radius s: area radius r, conformal factor
    phi with r = s*phi, and the fields expressed in the chart."""

    __slots__ = ("s", "r", "phi", "V", "Emag", "Psi")


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
        """s as a float array, u = s^(n-2) and a_pm; DomainError for a NaN or
        infinite s or one below the branch. Callers run it with numpy's
        warnings off, as the rest of the chart: a huge s overflows u to inf,
        where a_pm read 1."""
        s = float_array(s, "isotropic radius")
        if not np.isfinite(s).all():
            raise DomainError("isotropic radius must be finite")
        bad = (s < self.s_branch) if self.closed_start else (s <= self.s_branch)
        if np.any(bad):
            raise DomainError(f"isotropic radius below the branch start {self.s_branch}")
        u = s ** self.k
        ap = 1.0 + (self.p.m + self.p.q) / (2.0 * u)
        am = 1.0 + (self.p.m - self.p.q) / (2.0 * u)
        return s, u, ap, am

    def r_of_s(self, s):
        """r at s; DomainError where it is not a finite float."""
        with np.errstate(all="ignore"):
            s, _, ap, am = self._factors(s)
            return _finite_chart(s * (ap * am) ** (1.0 / self.k))

    def point(self, s: float) -> IsotropicPoint:
        """All chart values at s from one domain check; DomainError where one
        of them is not a finite float."""
        with np.errstate(all="ignore"):
            s, u, ap, am = self._factors(s)
            n, m, q, k = self.p.n, self.p.m, self.p.q, self.k
            phi = (ap * am) ** (1.0 / k)
            v = (1.0 - (m ** 2 - q ** 2) / (4.0 * u * u)) / (ap * am)
            psi = q / (self.cn * u * ap * am)
            emag = 0.0
            if q != 0.0:
                # d(phi)/ds via logarithmic derivative of the two factors
                dap = -k * (m + q) / (2.0 * u * s)
                dam = -k * (m - q) / (2.0 * u * s)
                dphi = phi * (dap / ap + dam / am) / k
                d = (m * m - q * q) / (4.0 * u * u)
                rprime = phi + s * dphi
                coef = (k / self.cn) * q * (1.0 - d) / (s ** (n - 1) * phi ** (2 * n - 3) * rprime)
                # r'(s) = 0 at a closed branch start; the chart expression degenerates
                # there, so fall back to the area-radius form at that single point.
                direct = k * abs(q) / (self.cn * (s * phi) ** (n - 1))
                emag = np.where(rprime > 0.0, np.abs(coef) * phi, direct)[()]
            values = [float(x) for x in (s, s * phi, phi, v, emag, psi)]
        return IsotropicPoint(*_finite_chart(values))


def _finite_chart(values):
    """values, DomainError unless all are finite."""
    if not np.isfinite(values).all():
        raise DomainError("a chart value at this isotropic radius is not a finite float")
    return values


def isotropic_inverse(p: RNParameters, r: float) -> float:
    """Isotropic radius with r(s) = r, in closed form.

    With u = s^{n-2} and R = r^{n-2} the chart reads R = u + m + (m^2-q^2)/(4u),
    a quadratic in u whose larger root u = ((R-m) + sqrt((R-m)^2 - (m^2-q^2)))/2
    is the outer branch. Accepts any r at or above the branch minimum radius.
    The result lies within a few units in the last place of the exact root;
    where r(s) is steep (near an open branch start) one such unit can move
    r(s) by more than that relative to r.
    """
    chart = IsotropicChart(p)
    r = as_float(r, "area radius", DomainError)
    if not (math.isfinite(r) and r > 0):
        raise DomainError(f"area radius must be positive and finite, got {r}")
    m, q, k = p.m, p.q, chart.k
    if chart.closed_start:
        r_min = rn_horizon(p)
        if r < r_min * (1.0 - 1e-14):
            raise DomainError(f"radius {r} below the branch minimum {r_min}")
    try:
        big_r = r ** k
    except OverflowError:
        raise DomainError(f"radius {r} too large for the isotropic chart") from None
    b = big_r - m
    d = (m - q) * (m + q)
    # The discriminant (R-m)^2 - (m^2-q^2), divided by b^2 where b^2 would overflow.
    big = abs(b) >= 1e150
    disc = 1.0 - d / b / b if big else b * b - d
    if chart.closed_start and (b <= 0.0 or disc <= 0.0):
        # At the horizon (up to rounding) the two roots meet at the branch start.
        return float(chart.s_branch)
    root = abs(b) * math.sqrt(disc) if big else math.sqrt(disc)
    # Larger root without cancellation: through the product d/4 when b < 0.
    u = 0.5 * (b + root) if b >= 0.0 else d / (2.0 * (b - root))
    if not u > 0.0:
        raise DomainError(f"radius {r} at or below the branch infimum")
    s = u ** (1.0 / k)
    if chart.closed_start:
        return float(max(s, chart.s_branch))
    if not s > chart.s_branch:
        raise DomainError(f"radius {r} at or below the branch infimum")
    return float(s)


def phi_identity_residual(p: RNParameters, s: float) -> float:
    """Defect of phi = (((V+1)^2 - c_n^2 Psi^2)/4)^{-1/(n-2)} at s."""
    chart = IsotropicChart(p)
    pt = chart.point(s)
    # numpy scalars, as the chart computes them: 0 ** (negative) is inf, not an error.
    v, psi = np.float64(pt.V), np.float64(pt.Psi)
    rhs = (((v + 1.0) ** 2 - (chart.cn * psi) ** 2) / 4.0) ** (-1.0 / chart.k)
    return float(abs(pt.phi - rhs))


# ---------------------------------------------------------------------------
# Flat ball with linear potential


class BallStaticExample(Record):
    """Unit ball in flat R^3 with V(x) = x . v and vanishing field.

    Solves the static system with lam = 0 and E = 0; its zero set
    Sigma = {x . v = 0} meets the ball in a unit disk of area pi. Sample
    points are deterministic: a Halton sequence filtered to the open ball for
    the interior, a golden-angle spiral for the boundary sphere.
    residuals.euclidean_ball_residuals checks it.
    """

    __slots__ = ("v", "interior", "boundary")

    @classmethod
    def default(cls, v=(0.0, 0.0, 1.0), n_interior: int = 200, n_boundary: int = 200):
        try:
            vv = float_array(v, "v", ParameterError)
            ok = vv.shape == (3,) and np.isfinite(vv).all() and np.any(vv != 0)
        except (TypeError, ValueError):  # not numbers, or a ragged sequence
            ok = False
        if not ok:
            raise ParameterError("v must be a finite nonzero 3-vector")
        for name, count in (("n_interior", n_interior), ("n_boundary", n_boundary)):
            # A bool is rejected as GridSpec rejects it for its count.
            if (isinstance(count, bool) or not hasattr(type(count), "__index__")
                    or not 1 <= count <= MAX_GRID_COUNT):
                raise ParameterError(
                    f"{name} must be an integer from 1 to {MAX_GRID_COUNT}, got {count!r}")
        interior = _halton_ball(n_interior)
        boundary = _sphere_spiral(n_boundary)
        return cls(v=tuple(map(float, vv)), interior=interior, boundary=boundary)


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
