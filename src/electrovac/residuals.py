"""Pointwise residuals of the static electro-vacuum equations.

Each defining equation gets a short tag; a report stores, per tag, the max
absolute residual over a radial grid, the radius where it is attained, and a
pass/fail verdict against one identity tolerance. Equations that hold
structurally for radial data (closedness of V E-flat, umbilicity of round
slices) are reported as structural passes with residual 0.

The equations, in orthonormal-frame components (rad/tan), with E = |E|:

  E1   Hess V = V (Ric - 2 lam/(n-1) g + 2 E-flat x E-flat - 2E^2/(n-1) g)
  E2   Lap V  = V (2(n-2)/(n-1) E^2 - 2 lam/(n-1))
  E3a  div E = 0
  E3b  d(V E-flat) = 0                        [structural for radial data]
  E4   (dV/dnu) gamma = V B on the boundary   [tangential Robin form]
  TE1  Lap V = V (R - 2n lam/(n-1) - 2 E^2/(n-1))
  TE2  dV/dnu = H/(n-1) V at the boundary radius
  NE1  R = 2 E^2 + 2 lam
  NE2  B = H/(n-1) gamma                      [structural for round slices]
  AE1  Hess V - (Lap V) g - V Ric = 2V (E-flat x E-flat - E^2 g)
  TRACE_AE  Lap V = (-R/(n-1) + 2 E^2) V
  PEM1 Hess V = V Ric + (2/V) dPsi x dPsi - 2/((n-1)V) |dPsi|^2 g
  PEM2 Lap V = 2(n-2)/((n-1)V) |dPsi|^2
  PEM3 div(grad Psi / V) = 0
  PEM4 boundary Robin form of the Psi system  [same form as E4]
  NPEM1 R = 2 |dPsi|^2 / V^2

The lam terms cancel in AE1, so the system/master equivalence is exercised at
any lam; the Psi-form equations are stated for lam = 0.

A report first evaluates the one Robin defect behind the boundary tags (TE2,
E4, PEM4) when it has a boundary radius, so a bad boundary radius fails before
any grid work. It then walks the grid in runs of radii. A run is a block of
_BLOCK consecutive radii, each built alone, with one set of pointwise fields
from one read of SphericalStaticData.jets (one joint pass when the data has a
joint jet), or, in a process without numpy, the grid's float radii as one
list, with one set of fields per radius. Each residual family maps a set of
fields to its radii and one row of residuals per tag, which a list run
gathers into one list per tag. One reducer keeps, per tag, the maximum
|residual|, the radius where it occurs and the skipped points, reducing each
row or list once; a later run replaces the maximum only when strictly
larger, so the result equals one argmax over the whole grid, bit for bit.
The arithmetic is elementwise, so a report does not depend on the block
length, and a block report's memory does not grow with the grid.

A failing report makes the same one pass. An end of the grid outside the
data domain raises that DomainError before any block. Otherwise the first
block that raises ends the report, so when two errors of different kinds sit
in different blocks, the earlier block's error is raised. A tag left with no
checked radius, |V| < 1e-9 on the whole grid, raises DegeneracyError after
the last block. Each grid TagResult is built once, at the end. The boundary
and flat-ball tags go through the same _worst as the runs, so a non-finite
value raises the same NumericsError; the structural tags (E3b, NE2) come
from a table.

numpy comes from profiles' stand-in, so importing this module loads none.
While numpy is not loaded, a grid of at most 1000 radii is walked as one run
of float radii (a cold verify, on closed-form data or a table); the walk's
report is the blocks' bit for bit, because the fields use only + - * /, abs
and sqrt and GridSpec builds the same radii in Python floats. Where the walk
raises, would skip a radius, or ends with numpy loaded, the blocks run
again, so every error is theirs.

The flat-ball example (models.BallStaticExample) gets a report of the same
shape from its closed forms, euclidean_ball_residuals.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Optional

from .errors import DegeneracyError, DomainError, NumericsError, as_float
from .geometry import (
    DEGENERATE_V,
    MAX_GRID_COUNT,
    Record,
    SphericalStaticData,
    ValueRecord,
    default_tolerance,
    hessian_kernel,
    laplacian_kernel,
    level_set_geometry,
    master_kernel,
    require_tolerance,
    ricci_kernel,
)
from .profiles import np, one_radius, sqrt

# Radii per block of a report: each float64 temporary is then 64 KB, below
# glibc's default 128 KB mmap threshold, so the heap reuses it while it is
# still in cache instead of mapping and faulting in fresh pages.
_BLOCK = 8192
_GRID_COUNT = 1000
# Bits of the index that a log grid's table covers: radii 0 to 2**_TABLE_BITS - 1.
_TABLE_BITS = 13

EQUATION_TAGS = {
    "E1": "Hessian equation for the potential",
    "E2": "Laplace equation for the potential",
    "E3a": "divergence-free electric field",
    "E3b": "closedness of V E-flat",
    "E4": "Robin boundary condition (tensor form)",
    "TE1": "traced Hessian equation",
    "TE2": "Robin boundary condition (traced form)",
    "NE1": "scalar curvature identity R = 2E^2 + 2 lam",
    "NE2": "umbilicity of the boundary",
    "AE1": "master equation (potential-independent form)",
    "TRACE_AE": "trace of the master equation",
    "PEM1": "Hessian equation, electric-potential form",
    "PEM2": "Laplace equation, electric-potential form",
    "PEM3": "conservation div(grad Psi / V) = 0",
    "PEM4": "Robin boundary condition, electric-potential form",
    "NPEM1": "scalar curvature identity R = 2|dPsi|^2/V^2",
}


class TagResult(Record):
    __slots__ = ("tag", "max_residual", "worst_radius", "passed", "note", "skipped")

    def to_dict(self):
        out = {
            "tag": self.tag,
            "max_residual": self.max_residual,
            "worst_radius": self.worst_radius,
            "passed": self.passed,
        }
        if self.note is not None:
            out["note"] = self.note
        if self.skipped:
            out["skipped_points"] = self.skipped
        return out


class GridSpec(ValueRecord):
    """Radial evaluation grid: count points on [lo, hi], log or linear.

    Log radii are r_i = lo q^i with q = (hi/lo)^(1/(count-1)), by
    multiplication alone, and r_(count-1) = hi. lo q^i is lo times q^(2^b)
    for each set bit b of i below _TABLE_BITS, in ascending order, times the
    product of the higher bits' factors, formed alike. lo and each factor are
    kept as a mantissa in [1, 2) and a binary exponent, the mantissas
    multiplied and the exponents added, so nothing overflows or loses bits
    to a subnormal before the radius itself. numpy and Python floats run the
    same operations, so they agree bit for bit, and a grid scaled by 2^j has
    its radii scaled by 2^j exactly. Linear radii are np.linspace's."""

    __slots__ = ("lo", "hi", "count", "spacing")

    def __init__(self, lo: float, hi: float, count: int = _GRID_COUNT, spacing: str = "log"):
        lo, hi = (as_float(x, "grid endpoint", DomainError) for x in (lo, hi))
        if not (0 <= lo < hi and math.isfinite(hi)):
            raise DomainError(f"bad grid interval [{lo}, {hi}]")
        if isinstance(count, bool) or not hasattr(type(count), "__index__"):
            raise DomainError(f"grid count must be an integer, got {count!r}")
        count = int(count)
        if not 2 <= count <= MAX_GRID_COUNT:
            raise DomainError("grid needs at least 2 points" if count < 2 else
                              f"grid count {count} above the limit {MAX_GRID_COUNT}")
        if spacing not in ("log", "linear"):
            raise DomainError(f"unknown grid spacing {spacing!r}")
        if spacing == "log" and lo <= 0:
            raise DomainError("log spacing needs a positive lower endpoint")
        self.lo, self.hi, self.count, self.spacing = lo, hi, count, spacing

    def radii(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Radii start to stop, exactly radii()[start:stop] for any integers."""
        count, lo, hi = self.count, self.lo, self.hi
        start, stop, _ = slice(start, stop).indices(count)
        if self.spacing == "linear":
            y = _linear(np.arange(start, stop, dtype=float), lo, hi, count)
        else:
            ms, ks, highs = _log_table(lo, hi, count)
            size, parts = ms.size, [np.empty(0)]
            for h in range(start // size, -(-stop // size)):
                j = slice(max(start - h * size, 0), stop - h * size)
                with np.errstate(over="ignore"):  # only at hi, which replaces it
                    parts.append(np.ldexp(ms[j] * highs[h][0], ks[j] + highs[h][1]))
            y = np.concatenate(parts)
        if stop == count > start:
            y[-1] = hi
        return y

    def _floats(self) -> list:
        """radii() in Python floats, by the same operations."""
        count, lo, hi = self.count, self.lo, self.hi
        if self.spacing == "linear":
            return [_linear(i, lo, hi, count) for i in range(count - 1)] + [hi]
        factors, size = _factors(lo, hi, count), 1 << _TABLE_BITS
        low = _powers(_binary(lo), factors[:_TABLE_BITS], min(count - 1, size))
        high = _powers((1.0, 0), factors[_TABLE_BITS:], -(-(count - 1) // size))
        pairs = [(m * hm, k + hk) for hm, hk in high for m, k in low][:count - 1]
        return [math.ldexp(m, k) for m, k in pairs] + [hi]

    def describe(self) -> str:
        return f"{self.count} {self.spacing}-spaced radii in [{self.lo:.6g}, {self.hi:.6g}]"


def _linear(i, lo, hi, count):
    """Radius i of count on [lo, hi] as np.linspace computes it, which
    divides first when the step underflows to 0."""
    step = (hi - lo) / (count - 1)
    return (i * step if step else i / (count - 1) * (hi - lo)) + lo


def _binary(x: float) -> tuple[float, int]:
    """(m, k) with x = m 2^k and m in [1, 2), for a positive finite x."""
    m, k = math.frexp(x)
    return 2.0 * m, k - 1


def _factors(lo, hi, count) -> list:
    """q^(2^b) as _binary pairs for every bit b of count - 1, q = (hi/lo)^(1/(count-1)).
    Each is the square of the last, rounded as the float product rounds it."""
    ratio = hi / lo
    if ratio < math.inf:
        m, k = _binary(ratio ** (1.0 / (count - 1)))
    else:  # from the mantissas and binary exponents of hi and lo
        (mh, kh), (ml, kl) = _binary(hi), _binary(lo)
        t = (kh - kl) / (count - 1)
        m, k = _binary((mh / ml) ** (1.0 / (count - 1)) * 2.0 ** (t % 1.0))
        k += math.floor(t)
    out = []
    for _ in range((count - 1).bit_length()):
        out.append((m, k))
        m, e = _binary(m * m)
        k = 2 * k + e
    return out


def _powers(first, factors, size) -> list:
    """size _binary pairs: the i-th is first times factors[b] for each set
    bit b of i, in ascending order."""
    y = [first]
    for fm, fk in factors:
        y += [(m * fm, k + fk) for m, k in y[:size - len(y)]]
    return y


@functools.lru_cache(maxsize=4)
def _log_table(lo, hi, count):
    """The mantissas and binary exponents of lo q^j, j below 2**_TABLE_BITS
    and count, as read-only arrays, as _powers would build them, and the
    product of the higher bits' factors for each block of that length."""
    factors, size = _factors(lo, hi, count), min(count, 1 << _TABLE_BITS)
    m, k = _binary(lo)
    ms, ks = np.array([m]), np.array([k], dtype=np.intc)  # np.ldexp is fast on C ints only
    for fm, fk in factors[:_TABLE_BITS]:
        n = size - ms.size
        ms, ks = np.concatenate((ms, ms[:n] * fm)), np.concatenate((ks, ks[:n] + fk))
    ms.flags.writeable = ks.flags.writeable = False
    return ms, ks, _powers((1.0, 0), factors[_TABLE_BITS:], -(-count // size))


def _default_bounds(data: SphericalStaticData) -> tuple[float, float]:
    """default_grid's bounds, unvalidated. On a bounded (tabulated) domain
    [lo, hi], [1.01 lo, 0.99 hi] (0.01 hi for lo = 0), off the spline edges;
    otherwise from just above r0 (or half the characteristic radius when the
    domain reaches 0) out to 100 max(1, r0)."""
    r0, hi = data.domain
    if math.isfinite(hi):
        return 1.01 * r0 if r0 > 0 else 0.01 * hi, 0.99 * hi
    return 1.01 * r0 if r0 > 0 else 0.5 * data.r_scale, 100.0 * max(1.0, r0)


def default_grid(data: SphericalStaticData, count: int = _GRID_COUNT) -> GridSpec:
    """Log grid hugging the data domain."""
    return GridSpec(*_default_bounds(data), count=count, spacing="log")


class ResidualReport(Record):
    __slots__ = ("entries", "grid", "tolerance", "extras")

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries.values())

    def to_dict(self):
        out = {
            "grid": self.grid,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "equations": {tag: e.to_dict() for tag, e in self.entries.items()},
        }
        if self.extras:
            out["extras"] = self.extras
        return out


def _worst(tag, rs, res) -> tuple[float, float]:
    """(max |res|, the first radius where it occurs) over a non-empty list or
    array rs; NumericsError if that max is not finite."""
    if type(rs) is list:
        res = list(map(abs, res))
        # max passes over a NaN; a sum is finite only if every entry is,
        # though finite entries may overflow it.
        mx = max(res) if math.isfinite(sum(res)) or all(map(math.isfinite, res)) else math.nan
        rs = rs[res.index(mx)] if mx == mx else None
    else:
        res = np.abs(res)
        # argmax stops at the first NaN, and the max is inf if any entry is.
        i = int(np.argmax(res))
        mx, rs = float(res[i]), float(rs[i])
    if not math.isfinite(mx):
        raise NumericsError(f"non-finite residual for {tag}")
    return mx, rs


def _entry(tag, mx, r, tol, note=None, skipped=0) -> TagResult:
    return TagResult(tag=tag, max_residual=mx, worst_radius=r, passed=mx <= tol, note=note,
                     skipped=skipped)


def euclidean_ball_residuals(example) -> ResidualReport:
    """Verify the flat-ball data (a models.BallStaticExample) pointwise, in closed form.

    V is linear, so grad V is the constant vector v, Hess V vanishes
    identically, the flat metric has Ric = 0, and with E = 0 the master
    equation's right side vanishes: the interior residuals are exact zeros,
    not small numbers. On the unit sphere the outward normal is x, H = 2 and
    n = 3 give H/(n-1) = 1, so the Robin defect dV/dnu - V H/(n-1) is an
    exact floating-point cancellation at every sample. The slice {x . v = 0}
    meets the ball in a unit disk whose area pi is reported analytically.
    """
    v = np.asarray(example.v, dtype=float)
    pts_in, pts_bd = example.interior, example.boundary
    tol = 0.0  # exact-arithmetic-friendly checks: demand literal zero

    vals_in = pts_in @ v
    # Hess V and Lap V of a linear map, and Ric of the flat metric, all zero.
    hess = lap = ric = np.zeros_like(vals_in)
    # Master equation residual: Hess V - (Lap V) g - V Ric - 2V(0 - 0) = 0.
    master = hess - lap - vals_in * ric

    # grad V = v and nu = x on the unit sphere, so dV/dnu = x . v = V there.
    vals_bd = dnu = pts_bd @ v
    robin = dnu - vals_bd * (2.0 / (3 - 1))  # H/(n-1) with H = 2, n = 3

    radii_in, radii_bd = (np.sqrt(np.sum(p * p, axis=1)) for p in (pts_in, pts_bd))
    rows = (("BALL_HESS", radii_in, hess, "Hessian of a linear potential"),
            ("BALL_LAP", radii_in, lap, "Laplacian of a linear potential"),
            ("BALL_RIC", radii_in, ric, "flat metric"),
            ("BALL_AE1", radii_in, master, "master equation with E = 0"),
            ("BALL_ROBIN", radii_bd, robin, "dV/dnu - V H/(n-1) on the unit sphere"))
    return ResidualReport(
        entries={tag: _entry(tag, *_worst(tag, rs, res), tol, note) for tag, rs, res, note in rows},
        grid=f"{len(pts_in)} quasi-random interior points, {len(pts_bd)} spiral boundary points",
        tolerance=tol, extras={"sigma_area": math.pi})


class _Fields:
    """Pointwise quantities at one run of radii, shared by every family's
    tags, from one read of the data's jets (SphericalStaticData.jets)."""

    def __init__(self, data: SphericalStaticData, rs: np.ndarray):
        self.n, self.lam = data.n, data.lam
        self.rs = rs
        jets = data.jets(rs, 3 if data.Psi is None else 4)
        self.a, self.ap, _ = jets[0]
        self.sa = sqrt(self.a)
        self.v, self.vp, vpp = jets[1]
        self.e, self.ep, _ = jets[2]
        # After the jets' checks, so their errors come first; those kept rs in the domain.
        data.require_off_v_zeros(rs)
        # The frame tensors are the kernels' (radial, tangential) pairs.
        self.ric = ricci_kernel(self.n, self.a, self.ap, rs)
        self.vric = self.v * self.ric[0], self.v * self.ric[1]
        self.hess = hessian_kernel(self.a, self.ap, self.vp, vpp, rs)
        self.lap = laplacian_kernel(self.n, self.a, self.ap, self.vp, vpp, rs)
        self.R = self.ric[0] + (self.n - 1) * self.ric[1]
        if data.Psi is not None:
            self.psip, self.psipp = jets[3][1:]
            self.dpsi2 = self.psip * self.psip / self.a
        self.e2 = self.e * self.e
        self.two_e2 = 2.0 * self.e2
        self.two_e2_n = self.two_e2 / (self.n - 1)


def _maximum(x, y):
    """np.maximum, NaN propagation included, of two floats too."""
    if type(x) is float:
        return x if x >= y or x != x else y
    return np.maximum(x, y)


# A family maps one _Fields block, or one float radius's, to (radii, {tag:
# residual at those radii}).
def _system_rows(f: _Fields):
    n, lam, rs = f.n, f.lam, f.rs
    rhs_rad = f.ric[0] - 2.0 * lam / (n - 1) + f.two_e2 - f.two_e2_n
    rhs_tan = f.ric[1] - 2.0 * lam / (n - 1) - f.two_e2_n
    e1 = _maximum(abs(f.hess[0] - f.v * rhs_rad), abs(f.hess[1] - f.v * rhs_tan))
    e2_res = f.lap - f.v * (2.0 * (n - 2) / (n - 1) * f.e2 - 2.0 * lam / (n - 1))
    e3a = (f.ep + (n - 1) * f.e / rs) / f.sa
    return rs, {"E1": e1, "E2": e2_res, "E3a": e3a}


def _master_rows(f: _Fields):
    T = master_kernel(f.v, f.e2, f.hess, f.lap, f.vric)
    return f.rs, {"AE1": _maximum(abs(T[0]), abs(T[1]))}


def _traced_rows(f: _Fields):
    n, lam = f.n, f.lam
    te1 = f.lap - f.v * (f.R - 2.0 * n * lam / (n - 1) - f.two_e2_n)
    trace_ae = f.lap - (-f.R / (n - 1) + f.two_e2) * f.v
    return f.rs, {"TE1": te1, "TRACE_AE": trace_ae}


def _pem_rows(f: _Fields):
    """Only the radii with |V| >= DEGENERATE_V, possibly none; the report
    counts the rest as skipped."""
    n, v, sa = f.n, f.v, f.sa
    t = f.dpsi2 / v
    pem1_rad = f.hess[0] - (f.vric[0] + 2.0 * (n - 2) / (n - 1) * t)
    pem1_tan = f.hess[1] - (f.vric[1] - 2.0 / (n - 1) * t)
    pem1 = _maximum(abs(pem1_rad), abs(pem1_tan))
    pem2 = f.lap - 2.0 * (n - 2) / (n - 1) * t

    # div(grad Psi / V): frame component X = Psi'/(sqrt(A) V), divergence
    # X' + (n-1) X / r with X' expanded in closed form.
    inv = 1.0 / (sa * v)
    X = f.psip * inv
    Xp = f.psipp * inv - X * (f.ap / (2.0 * f.a) + f.vp * sa * inv)
    pem3 = Xp + (n - 1) * X / f.rs
    npem1 = f.R - 2.0 * t / v
    rows = {"PEM1": pem1, "PEM2": pem2, "PEM3": pem3, "NPEM1": npem1}
    ok = abs(v) >= DEGENERATE_V
    if ok if type(ok) is bool else ok.all():
        return f.rs, rows
    # Elementwise, so the kept radii's residuals are the same bits. A float
    # radius that would be skipped raises here (a float takes no index), and
    # the float walk leaves the report to the blocks.
    return f.rs[ok], {tag: res[ok] for tag, res in rows.items()}


def _identity_rows(f: _Fields):
    return f.rs, {"NE1": f.R - 2.0 * f.e * f.e - 2.0 * f.lam}


# The tags each family reports after its grid tags: structural passes, and
# the boundary forms of the Robin defect (tag -> note), which a report has
# when it is given a boundary radius.
_AFTER_ROWS = {_system_rows: ("E3b",), _traced_rows: ("TE2", "E4"), _pem_rows: ("PEM4",),
               _identity_rows: ("NE2",)}
_STRUCTURAL = {tag: TagResult(tag=tag, max_residual=0.0, worst_radius=None, passed=True,
                              note=note, skipped=0)
               for tag, note in (("E3b", "radial 1-form f(r) dr is closed identically"),
                                 ("NE2", "round slices are umbilic by construction"))}
_BOUNDARY = {"TE2": None, "E4": "tangential component; round slices are umbilic", "PEM4": None}


def _worst_rows(families, data, grid) -> dict[str, list]:
    """Per grid tag, [max |residual|, its radius, skipped radii], from
    _reduce over runs of radii: consecutive blocks of _BLOCK radii, or,
    while numpy is not loaded and the grid has at most _GRID_COUNT radii,
    one run of its float radii, which gives the same rows bit for bit. If
    that walk raises, meets a radius it would skip, or ends with numpy
    loaded, the blocks run as usual, so every error is theirs.

    Errors: an end of the grid outside the data domain raises that
    profile's DomainError before any run (the grid is monotone, so only an
    end can leave it); otherwise the first block that raises ends the pass
    with its error; a tag left with no checked radius (every
    |V| < DEGENERATE_V) raises DegeneracyError after the last block."""
    lo, hi = data.domain
    if not lo < grid.lo < grid.hi < hi:
        data.jets(np.array([grid.lo, grid.hi]), 3)
    worst = None
    if "numpy" not in sys.modules and grid.count <= _GRID_COUNT:
        try:
            worst = _reduce(families, data, [grid._floats()])
        except Exception:
            pass
    if worst is None or "numpy" in sys.modules:
        # The jets already run with numpy's warnings off and check their own
        # parts. Past them, an overflow that ends non-finite reaches the Ricci
        # check or _worst, which raise NumericsError, so a warning would only
        # precede that error line. One that ends finite passes silently: at
        # m = 3e153, r*r overflows in ricci_kernel and (1 - 1/A)/inf reads 0.
        # np.errstate loads numpy here if the float walk did not, so the
        # context holds before a table's first block loads it.
        with np.errstate(all="ignore"):
            worst = _reduce(families, data, (grid.radii(start, start + _BLOCK)
                                             for start in range(0, grid.count, _BLOCK)))
    if any(r is None for _, r, _ in worst.values()):
        raise DegeneracyError("V is degenerate on the whole grid")
    return worst


def _reduce(families, data, runs) -> dict[str, list]:
    """_worst_rows' rows from runs of radii: arrays, one _Fields each, or a
    list of float radii, one _Fields per radius, whose residuals each tag
    gathers into a list (_gather). A later run replaces a tag's max only
    when strictly larger, so ties keep the first radius, as one argmax over
    the whole grid would; a run whose radii a family skips all leaves the
    tag's row as it was."""
    worst: dict[str, list] = {}
    for rs in runs:
        # The last run's fields stay bound until the next run's replace them:
        # freed first, they leave free memory at the top of the heap, which
        # glibc returns to the kernel, and the next block faults it back in.
        # A del at the end of this loop body took a 1e5-radius verify_all
        # from about 800 to 5,400 minor page faults.
        if type(rs) is list:
            produced = [(rs, _gather(families, data, rs))]
        else:
            f = _Fields(data, rs)
            produced = (family(f) for family in families)
        for radii, rows in produced:
            for tag, res in rows.items():
                row = worst.setdefault(tag, [-1.0, None, 0])
                if radii is not rs:
                    row[2] += rs.size - radii.size
                    if not radii.size:
                        continue
                mx, r = _worst(tag, radii, res)
                if mx > row[0]:
                    row[0], row[1] = mx, r
    return worst


def _gather(families, data, rs) -> dict[str, list]:
    """Every family's residuals at the float radii rs, one list per tag,
    from one _Fields per radius; a radius that a family would skip raises
    TypeError."""
    fields = [_Fields(data, r) for r in rs]
    rows = [[family(f)[1] for f in fields] for family in families]
    return {tag: [row[tag] for row in fam] for fam in rows for tag in fam[0]}


def _report(families, data, grid, tol, r_boundary=None) -> ResidualReport:
    """The tags of every family, over the grid's runs of radii."""
    tol = default_tolerance(data) if tol is None else require_tolerance(tol)
    after = [tag for family in families for tag in _AFTER_ROWS.get(family, ())]
    extra = dict(_STRUCTURAL)
    if r_boundary is not None:
        r_boundary = one_radius(r_boundary)
        defect = float(_robin_defect(data, r_boundary))
        extra.update({tag: _entry(tag, *_worst(tag, [r_boundary], [defect]), tol, note)
                      for tag, note in _BOUNDARY.items() if tag in after})
    entries = {tag: _entry(
        tag, mx, r, tol, skipped=skipped,
        note=f"{skipped} grid points with |V| < {DEGENERATE_V:g} skipped" if skipped else None)
        for tag, (mx, r, skipped) in _worst_rows(families, data, grid).items()}
    entries.update({tag: extra[tag] for tag in after if tag in extra})
    return ResidualReport(entries=entries, grid=grid.describe(), tolerance=tol, extras={})


def _robin_defect(data: SphericalStaticData, r_boundary: float) -> float:
    """dV/dnu - V B_tan at r_boundary: TE2, E4 and PEM4 alike, as round
    slices are umbilic (B_tan = H/(n-1) bit for bit)."""
    geo = level_set_geometry(data, r_boundary)
    return geo.nuV - geo.V * geo.B_tan


def residual_system(data: SphericalStaticData, grid: GridSpec,
                    tol: Optional[float] = None) -> ResidualReport:
    """Residuals of the first-order system E1, E2, E3a (E3b structural)."""
    return _report((_system_rows,), data, grid, tol)


def residual_master(data: SphericalStaticData, grid: GridSpec,
                    tol: Optional[float] = None) -> ResidualReport:
    """Residual of the master equation AE1 (both frame components)."""
    return _report((_master_rows,), data, grid, tol)


def residual_traced(data: SphericalStaticData, grid: GridSpec,
                    tol: Optional[float] = None,
                    r_boundary: Optional[float] = None) -> ResidualReport:
    """Residuals of the traced equations TE1 and TRACE_AE on the grid, plus
    the boundary forms TE2/E4 at r_boundary when one is supplied."""
    return _report((_traced_rows,), data, grid, tol, r_boundary)


def residual_pem(data: SphericalStaticData, grid: GridSpec,
                 tol: Optional[float] = None,
                 r_boundary: Optional[float] = None) -> ResidualReport:
    """Residuals of the electric-potential form of the system.

    Grid points with |V| < 1e-9 are skipped and counted, not failed; if every
    point is degenerate there is nothing to check and DegeneracyError is
    raised. Stated for lam = 0 data.
    """
    if data.Psi is None:
        raise DomainError("data has no electric potential; PEM residuals undefined")
    return _report((_pem_rows,), data, grid, tol, r_boundary)


def residual_identities(data: SphericalStaticData, grid: GridSpec,
                        tol: Optional[float] = None) -> ResidualReport:
    """Scalar curvature identity NE1 on the grid; NE2 structural."""
    return _report((_identity_rows,), data, grid, tol)


def verify_all(data: SphericalStaticData, grid: GridSpec,
               tol: Optional[float] = None,
               r_boundary: Optional[float] = None) -> ResidualReport:
    """Every applicable residual tag in one report (PEM only when Psi given),
    all computed from one evaluation of the grid's fields per block."""
    pem = (_pem_rows,) if data.Psi is not None else ()
    rep = _report((_system_rows, _master_rows, _traced_rows, *pem, _identity_rows),
                  data, grid, tol, r_boundary)
    rep.entries = {t: rep.entries[t] for t in EQUATION_TAGS if t in rep.entries}
    return rep
