"""A float radius is read in Python floats, and reads what a 0-d array reads.

Every scalar reader runs on a float radius and on the same radius as a 0-d
numpy array, on seeded closed-form, bumped and table data in every regime,
at radii across the domain, next to the horizon, at the photon spheres and
outside the domain. The two must give the same bits (float.hex of every
value) or the same error type and message, including where the float pass
meets a ZeroDivisionError that numpy's arithmetic turns into inf and the
reader reruns on the array.
"""

import math
import warnings

import numpy as np
import pytest

from electrovac import (
    RadialProfile,
    RNParameters,
    SphericalStaticData,
    boundary_residual,
    contracted_gauss_residual,
    flat_data,
    grad_norm,
    hessian_radial,
    horizon_gradient_limit,
    laplacian_radial,
    level_set_geometry,
    perturbed_potential_data,
    photon_sphere_radii,
    quasilocal_check,
    ricci_radial,
    rn_data,
    scalar_curvature,
    scalar_curvature_d1,
    tabulated_profile,
)

PROFILES = ("A", "V", "Emag", "Psi")
# Extremal, n = 3: at r_h + 1e-7, V^2 = 1 - 2 m/r + (q/r)^2 cancels to exactly 0.
EXTREMAL = RNParameters(3, 76.20206461175125, -76.20206461175125)


def drawn_data(count, seed):
    """(label, parameters, data) per set: n from 3 to 7, the regime cycling
    through sub-extremal, extremal and super-extremal, each as closed form,
    with a bump in V and as cubic tables; then the extremal set above, plain
    and bumped; last flat data, which has no parameters, with a numpy jet for
    |E|, with A falling through 0 at r = 2 and with A' so steep that the
    Ricci components overflow below r = 0.5."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = 3 + i % 5
        m = float(10.0 ** rng.uniform(-2.0, 2.0))
        q = m * (float(rng.uniform(-0.95, 0.95)), float(rng.choice([-1.0, 1.0])),
                 float(rng.uniform(1.05, 2.0)))[i % 3]
        p = RNParameters(n, m, q)
        base = rn_data(p)
        lo = max(base.domain[0], 0.1 * base.r_scale) * 1.01
        c = lo * float(rng.uniform(1.5, 5.0))
        knots = np.geomspace(lo, 100.0 * lo, 400)
        yield f"{p} closed", p, base
        yield f"{p} bumped", p, perturbed_potential_data(base, 1e-3, c, 0.1 * c)
        yield f"{p} table", p, SphericalStaticData(
            n=n, lam=0.0, v_zeros=base.v_zeros, r_scale=base.r_scale,
            **{name: tabulated_profile(knots, getattr(base, name)(knots)) for name in PROFILES})
    extremal = rn_data(EXTREMAL)
    yield "extremal", EXTREMAL, extremal
    yield "extremal bumped", EXTREMAL, perturbed_potential_data(extremal, 1e-3, 80.0, 1.0)
    flat = flat_data(3)
    yield "flat, numpy |E|", None, flat.replace(
        Emag=RadialProfile(lambda r: (np.exp(r), np.exp(r), np.exp(r) + 0.0 * r)))
    yield "flat, A through 0", None, flat.replace(
        A=RadialProfile(lambda r: (2.0 - r, -1.0 + 0.0 * r, 0.0 * r)))
    yield "flat, steep A", None, flat.replace(
        A=RadialProfile(lambda r: (1.0 + 0.0 * r, 1e308 + 0.0 * r, 0.0 * r)))


def radii(data, rng):
    """Seeded radii across the domain, next to each V-zero, at each photon
    sphere and outside the domain, all floats."""
    lo, hi = data.domain
    start = lo if lo > 0 else 1e-3 * data.r_scale
    end = hi if math.isfinite(hi) else 1e3 * max(start, data.r_scale)
    out = [float(r) for r in np.exp(rng.uniform(math.log(start), math.log(end), 12))]
    for z in data.v_zeros:
        out += [z + z * 10.0 ** -k for k in range(3, 16, 2)] + [z + 10.0 ** -k for k in (7, 8)]
    out += [1e-300, 0.5 * lo, lo, hi, 1e200, 1e308, math.nan, -1.0]
    return out


def hexed(out):
    """out as data with every float written as float.hex."""
    if hasattr(out, "__slots__"):
        return [hexed(getattr(out, name)) for name in out.__slots__]
    if isinstance(out, (list, tuple)):
        return [hexed(v) for v in out]
    if isinstance(out, (bool, np.bool_)) or out is None:
        return out
    return float(out).hex()


def outcome(read, r):
    try:
        return hexed(read(r))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def readers(data):
    out = {}
    for name in PROFILES:
        prof = getattr(data, name)
        if prof is not None:
            out[f"{name}.value"], out[f"{name}.jet"] = prof.value, prof.jet
    for count in range(1, 4 if data.Psi is None else 5):
        out[f"jets {count}"] = lambda r, count=count: data.jets(r, count)
    for reader in (ricci_radial, scalar_curvature, scalar_curvature_d1, level_set_geometry,
                   contracted_gauss_residual, boundary_residual, quasilocal_check):
        out[reader.__name__] = lambda r, reader=reader: reader(data, r)
    for reader in (hessian_radial, laplacian_radial, grad_norm):
        out[reader.__name__] = lambda r, reader=reader: reader(data, data.V, r)
    out["horizon_gradient_limit"] = lambda r: horizon_gradient_limit(data, r)
    return out


def test_every_scalar_reader_reads_a_float_as_a_0d_array_bit_for_bit():
    rng = np.random.default_rng(25)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for label, p, data in drawn_data(9, seed=25):
            roots = [] if p is None else [root.r for root in photon_sphere_radii(p).roots]
            for r in radii(data, rng) + roots:
                assert type(r) is float
                for name, read in readers(data).items():
                    got, want = outcome(read, r), outcome(read, np.asarray(r))
                    assert got == want, (label, r, name)
                    checked += 1
    assert checked > 10_000


def test_the_float_pass_reruns_where_float_arithmetic_raises():
    # The extremal joint pass divides by V^2 = 0 in floats next to the
    # horizon; numpy divides to inf, which the jets' check names.
    data = rn_data(EXTREMAL)
    r = data.v_zeros[0] + 1e-7
    with pytest.raises(ZeroDivisionError):
        data.joint_jet(r)
    want = outcome(lambda r: grad_norm(data, data.V, r), np.asarray(r))
    assert outcome(lambda r: grad_norm(data, data.V, r), r) == want
    assert want == ("NumericsError", "profile value is non-finite inside the domain")
    # A radius given by keyword reruns as one given by position does: the
    # keyword forms of jets and value raised a bare ZeroDivisionError.
    for by_position, by_keyword in (
            (lambda r: data.jets(r, 2), lambda r: data.jets(r=r, count=2)),
            (lambda r: data.V.value(r), lambda r: data.V.value(r=r)),
            (lambda r: data.V.jet(r), lambda r: data.V.jet(r=r)),
            (lambda r: grad_norm(data, data.V, r), lambda r: grad_norm(data, data.V, r=r))):
        assert outcome(by_keyword, r) == outcome(by_position, r) == outcome(by_position, np.asarray(r))
    assert (outcome(lambda r: horizon_gradient_limit(data, r), data.v_zeros[0])
            == outcome(lambda r: horizon_gradient_limit(data, r), np.asarray(data.v_zeros[0])))


def test_a_float_radius_reads_python_floats():
    # No numpy scalar in a float pass on closed-form data: the values are
    # Python floats, not np.float64.
    data = rn_data(RNParameters(3, 1.0, 0.5))
    geo = level_set_geometry(data, 3.0)
    assert all(type(getattr(geo, name)) is float for name in geo.__slots__)
    assert all(type(part) is float for jet in data.jets(3.0, 4) for part in jet)
    assert type(np.asarray(3.0)) is np.ndarray and type(data.V(np.asarray(3.0))) is np.float64
