import math
import warnings

import numpy as np
import pytest

from electrovac import (
    DomainError,
    NumericsError,
    RadialProfile,
    RNParameters,
    SphericalStaticData,
    constant_profile,
    contracted_gauss_residual,
    flat_data,
    grad_norm,
    hessian_radial,
    horizon_gradient_limit,
    laplacian_radial,
    level_set_geometry,
    perturbed_potential_data,
    ricci_radial,
    richardson_limit,
    rn_data,
    rn_horizon,
    scalar_curvature,
    scalar_curvature_d1,
    surface_gravity,
    tabulated_profile,
)
from electrovac.errors import ElectrovacError
from electrovac.geometry import FrameTensor2, HypersurfaceGeometry, Record, _require_positive
from electrovac.models import BallStaticExample, IsotropicPoint
from electrovac.photon import (Classification, PhotonRoot, PhotonSphereResult, QuasilocalReport,
                               RejectedRoot)
from electrovac.profiles import _table_profiles, finite_jet
from electrovac.residuals import ResidualReport, TagResult
from electrovac.variational import (CriticalityResult, Perturbation, _el_integrand,
                                    _pohozaev_integrands)

from counting import counting_data


def round_sphere_data(n, L):
    """Polar-coordinate round sphere of radius L: A = 1/(1 - r^2/L^2), C = r.

    Every sectional curvature equals 1/L^2, so Ric = (n-1)/L^2 g and
    R = n(n-1)/L^2. Independent of the warped-product formulas under test.
    """
    L2 = L * L

    def a(r):
        return 1.0 / (1.0 - r * r / L2)

    def a1(r):
        return (2.0 * r / L2) / (1.0 - r * r / L2) ** 2

    def a2(r):
        w = 1.0 - r * r / L2
        return (2.0 / L2) / w**2 + (8.0 * r * r / (L2 * L2)) / w**3

    return SphericalStaticData(
        n=n,
        lam=0.0,
        A=RadialProfile(lambda r: (a(r), a1(r), a2(r)), domain=(0.0, L)),
        V=constant_profile(1.0, domain=(0.0, L)),
        Emag=constant_profile(0.0, domain=(0.0, L)),
    )


def test_flat_space_curvature_vanishes():
    data = flat_data(3)
    rs = np.geomspace(0.2, 50.0, 40)
    ric = ricci_radial(data, rs)
    assert np.allclose(ric.radial, 0.0, atol=1e-15)
    assert np.allclose(ric.tangential, 0.0, atol=1e-15)
    assert np.allclose(scalar_curvature(data, rs), 0.0, atol=1e-15)


def test_round_sphere_curvature_exact():
    for n, L in [(3, 2.0), (4, 1.5), (5, 3.0)]:
        data = round_sphere_data(n, L)
        rs = np.linspace(0.1 * L, 0.9 * L, 25)
        ric = ricci_radial(data, rs)
        assert np.allclose(ric.radial, (n - 1) / L**2, rtol=1e-13)
        assert np.allclose(ric.tangential, (n - 1) / L**2, rtol=1e-13)
        assert np.allclose(scalar_curvature(data, rs), n * (n - 1) / L**2, rtol=1e-13)


def test_curvature_closed_form_matches_finite_difference():
    p = RNParameters(3, 1.0, 0.7)
    closed = rn_data(p)

    def difference_jet(r):
        # same metric, derivatives by central differences on a step of
        # eps^(1/3) (1 + r)
        h = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + r)
        f, up, down = (closed.A(r + s) for s in (0.0, h, -h))
        return f, (up - down) / (2.0 * h), (up - 2.0 * f + down) / (h * h)

    fd = SphericalStaticData(
        n=3, lam=0.0,
        A=RadialProfile(difference_jet, domain=closed.A.domain),
        V=closed.V, Emag=closed.Emag, v_zeros=closed.v_zeros,
    )
    rs = np.geomspace(2.1, 40.0, 30)
    ric_c = ricci_radial(closed, rs)
    ric_f = ricci_radial(fd, rs)
    assert np.allclose(ric_c.radial, ric_f.radial, atol=2e-6)
    assert np.allclose(ric_c.tangential, ric_f.tangential, atol=2e-6)
    assert np.allclose(scalar_curvature(closed, rs), scalar_curvature(fd, rs), atol=5e-6)


def test_scalar_curvature_derivative_matches_difference_quotient():
    data = rn_data(RNParameters(4, 1.0, 0.4))
    rs = np.linspace(1.5, 6.0, 15)
    h = 1e-5
    fd = (scalar_curvature(data, rs + h) - scalar_curvature(data, rs - h)) / (2 * h)
    assert np.allclose(scalar_curvature_d1(data, rs), fd, atol=1e-6)


def test_an_overflowing_scalar_curvature_derivative_is_a_numerics_error():
    # With A = 1e103 and A' = 1e160, A'^2 / A^3 is inf / inf in dR/dr: the
    # reader raises, as ricci_radial does on a non-finite component, with no
    # warning, while the Ricci components themselves are finite here.
    big = RadialProfile(jet=lambda r: tuple(np.full_like(r, c) for c in (1e103, 1e160, 0.0)),
                        domain=(0.0, np.inf))
    data = SphericalStaticData(n=3, lam=0.0, A=big, V=constant_profile(1.0),
                               Emag=constant_profile(0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(ricci_radial(data, 2.0).radial)
        for r in (2.0, np.array([2.0, 3.0])):
            with pytest.raises(NumericsError, match="non-finite scalar curvature derivative"):
                scalar_curvature_d1(data, r)


def test_an_overflowing_hessian_or_laplacian_is_a_numerics_error():
    # With f' = 1e307 and f'' = 1e308 the kernels overflow near r = 1.9: the
    # array and 0-d readers warned "overflow encountered in multiply" and
    # the float reader returned inf. Each now raises, with no warning.
    data = rn_data(RNParameters(3, 1.0, 0.5))
    f = RadialProfile(jet=lambda r: (0.0 * r, 0.0 * r + 1e307, 0.0 * r + 1e308),
                      domain=data.A.domain)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (1.9, np.asarray(1.9), np.array([1.9, 2.0])):
            with pytest.raises(NumericsError, match="non-finite Hessian components"):
                hessian_radial(data, f, r)
            with pytest.raises(NumericsError, match="non-finite Laplacian"):
                laplacian_radial(data, f, r)


def test_hessian_of_r_squared_in_flat_space():
    data = flat_data(3)
    f = RadialProfile(lambda r: (r**2, 2 * r, 2 * np.ones_like(r)))
    rs = np.linspace(0.5, 10.0, 9)
    h = hessian_radial(data, f, rs)
    assert np.allclose(h.radial, 2.0, atol=1e-14)
    assert np.allclose(h.tangential, 2.0, atol=1e-14)
    assert np.allclose(laplacian_radial(data, f, rs), 6.0, atol=1e-13)
    assert np.allclose(grad_norm(data, f, rs) ** 2, 4 * rs**2, rtol=1e-14)


def test_laplacian_equals_hessian_trace():
    # the two are coded with different groupings; agreement is a consistency check
    for p in [RNParameters(3, 1.0, 0.0), RNParameters(3, 1.0, 0.9), RNParameters(5, 2.0, 1.3)]:
        data = rn_data(p)
        lo = data.domain[0]
        rs = np.geomspace(lo * 1.05 if lo > 0 else 0.5, 30.0, 50)
        h = hessian_radial(data, data.V, rs)
        tr = h.trace(data.n)
        lap = laplacian_radial(data, data.V, rs)
        assert np.allclose(tr, lap, rtol=0, atol=1e-12 * (1 + np.abs(lap).max()))


def test_level_set_geometry_flat():
    data = flat_data(4)
    g = level_set_geometry(data, 2.0)
    assert np.isclose(g.H, 3.0 / 2.0)
    assert np.isclose(g.B_tan, 1.0 / 2.0)
    assert np.isclose(g.R_S, 6.0 / 4.0)
    assert np.isclose(g.ric_nn, 0.0)


def test_level_set_mean_curvature_schwarzschild():
    data = rn_data(RNParameters(3, 1.0, 0.0))
    g = level_set_geometry(data, 3.0)
    # H = (n-1) sqrt(W) / r with W = 1 - 2/3
    assert np.isclose(g.H, 2.0 * math.sqrt(1.0 / 3.0) / 3.0, rtol=1e-14)
    assert np.isclose(g.R_S, 2.0 / 9.0, rtol=1e-14)


def test_contracted_gauss_residual_small():
    for p in [RNParameters(3, 1.0, 0.0), RNParameters(3, 1.0, 0.8), RNParameters(4, 1.5, 0.6)]:
        data = rn_data(p)
        rs = np.geomspace(data.domain[0] * 1.02, 25.0, 30)
        res = contracted_gauss_residual(data, rs)
        assert np.all(np.abs(res) < 1e-12)
    flat = flat_data(3)
    assert abs(contracted_gauss_residual(flat, 2.0)) < 1e-15


def test_richardson_limit_recovers_synthetic_limit():
    L, c1, c2 = 0.73, 2.1, -5.4
    hs = [1e-3 / 10.0**k for k in range(6)]
    samples = [L + c1 * h + c2 * h * h for h in hs]
    assert abs(richardson_limit(samples) - L) < 1e-14
    with pytest.raises(NumericsError, match="at least two samples"):
        richardson_limit(samples[:1])


def test_horizon_gradient_limit_matches_surface_gravity():
    for p in [RNParameters(3, 1.0, 0.0), RNParameters(3, 1.0, 0.5), RNParameters(4, 1.0, 0.3)]:
        data = rn_data(p)
        lim = horizon_gradient_limit(data, rn_horizon(p))
        assert np.isclose(lim, surface_gravity(p), rtol=1e-10)


def test_require_interior_respects_v_zero_margin():
    p = RNParameters(3, 1.0, 0.0)
    data = rn_data(p)
    with pytest.raises(DomainError):
        data.require_interior(2.0)
    with pytest.raises(DomainError):
        data.require_interior(2.0 + 1e-10)
    data.require_interior(2.0 + 1e-6)


def test_frame_tensor_helpers():
    from electrovac import FrameTensor2

    t = FrameTensor2(radial=np.array([1.0, -3.0]), tangential=np.array([2.0, 0.5]))
    assert np.allclose(t.trace(3), [5.0, -2.0])


def test_domain_finiteness_and_positivity_checks_keep_their_verdicts():
    # Each check reduces with the array's own any/all; verdict, order and
    # message must not depend on whether the input is a Python float, a 0-d
    # array or an array, and a NaN radius fails the domain checks, which
    # name the first radius not strictly inside.
    from electrovac.geometry import _require_positive, ricci_kernel
    from electrovac.variational import _finite_rows

    nan = math.nan
    lin = RadialProfile(lambda r: (2.0 - r, -np.ones_like(r), np.zeros_like(r)),
                        domain=(1.0, 5.0))
    data = SphericalStaticData(n=3, lam=0.0, A=lin, V=lin, Emag=lin, v_zeros=(4.0,))
    profile_out = "radius 5.0 outside open domain (1.0, 5.0)"
    data_out = "radius 5.0 outside data domain (1.0, 5.0)"
    profile_nan = "radius nan outside open domain (1.0, 5.0)"
    data_nan = "radius nan outside data domain (1.0, 5.0)"
    positive = "metric coefficient A must be positive"
    cases = [
        (lin.value, 1.5, None), (lin.value, np.asarray(1.5), None),
        (lin.value, 5.0, (DomainError, profile_out)),
        (lin.value, np.asarray(5.0), (DomainError, profile_out)),
        (lin.value, np.array([1.5, nan]), (DomainError, profile_nan)),
        (lin.jet, np.array([1.5, nan]), (DomainError, profile_nan)),
        (lin.value, np.array([nan, 1.5, 5.0, 0.5]), (DomainError, profile_nan)),
        (data.require_interior, 1.5, None), (data.require_interior, np.asarray(1.5), None),
        (data.require_interior, np.array([1.5, nan]), (DomainError, data_nan)),
        (data.require_interior, np.array([nan, 5.0, 0.5]), (DomainError, data_nan)),
        (data.require_interior, np.asarray(5.0), (DomainError, data_out)),
        (data.require_interior, np.array([nan, 4.0]), (DomainError, data_nan)),
        (data.require_interior, np.array([1.5, 4.0]),
         (DomainError, "radius within 1e-09 of the V-zero at r = 4.0")),
        (_require_positive, -1.0, (DomainError, positive)),
        (_require_positive, np.asarray(0.0), (DomainError, positive)),
        (_require_positive, np.array([1.0, -0.0]), (DomainError, positive)),
        (_require_positive, np.array([1.0, nan]), None),
        (lambda a: ricci_kernel(3, a, 0.5, 2.0), 1.5, None),
        (lambda a: ricci_kernel(3, a, 0.5, 2.0), nan, (NumericsError, "non-finite Ricci components")),
        (lambda a: ricci_kernel(3, a, 0.5, 2.0), np.array([1.5, nan]),
         (NumericsError, "non-finite Ricci components")),
        (_finite_rows, 1.5, None), (_finite_rows, np.asarray(1.5), None),
        (_finite_rows, np.array([1.5, nan]), (NumericsError, "non-finite integrand")),
    ]
    for check, arg, raises in cases:
        if raises is None:
            check(arg)
            continue
        with pytest.raises(raises[0]) as info:
            check(arg)
        assert str(info.value) == raises[1], (check, arg)


def reader_cases():
    """(data, radii) on closed-form data in each regime, a bumped copy, a
    cubic table and the closed-form profiles' jets without the joint pass,
    each with an array and a scalar."""
    for p in (RNParameters(3, 1.0, 0.5), RNParameters(4, 1.0, 1.0), RNParameters(5, 0.7, 0.9)):
        base = rn_data(p)
        lo = max(base.domain[0], 0.1 * base.r_scale) * 1.5
        rs = np.geomspace(lo, 40.0 * lo, 97)
        knots = np.geomspace(lo / 1.2, 50.0 * lo, 300)
        table = SphericalStaticData(n=p.n, lam=0.0, v_zeros=base.v_zeros, **{
            name: tabulated_profile(knots, getattr(base, name)(knots))
            for name in ("A", "V", "Emag", "Psi")})
        separate = SphericalStaticData(n=p.n, lam=0.0, v_zeros=base.v_zeros, **{
            name: RadialProfile(getattr(base, name).jet, domain=getattr(base, name).domain)
            for name in ("A", "V", "Emag", "Psi")})
        for data in (base, perturbed_potential_data(base, 1e-3, 3.0 * lo, lo), table, separate):
            yield data, rs
            yield data, float(rs[40])


def same_bits(got, want):
    return np.shape(got) == np.shape(want) and (
        np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes())


def test_sphere_geometry_carries_v_and_the_scalar_curvature_bit_for_bit():
    for data, r in reader_cases():
        geo = level_set_geometry(data, r)
        assert same_bits(geo.V, data.V(r)), (data, r)
        assert same_bits(geo.R, scalar_curvature(data, r)), (data, r)


def test_joint_and_profile_jets_read_the_same_bits():
    # jets(r, count) from the joint pass and from the profiles of a copy
    # without one: the same parts, at every count.
    for data, r in reader_cases():
        copy = data.replace()
        assert copy.joint_jet is None
        for count in (1, 2, 3, 4):
            got, want = data.jets(r, count), copy.jets(r, count)
            assert len(got) == len(want) == count
            for jet, other in zip(got, want):
                assert all(same_bits(a, b) for a, b in zip(jet, other)), (data, r, count)


def float_joint_cases():
    """(data, r): joint data at a float radius, as rn_data, a 5-column table
    (cli.load_table's joint) and a hand-written joint."""
    base = rn_data(RNParameters(3, 1.0, 0.5))
    yield base, 3.0
    rs = [2.2 * 1.05 ** i for i in range(40)]
    (A, V, Emag, Psi), joint = _table_profiles(
        rs, [[float(getattr(base, name)(r)) for r in rs] for name in ("A", "V", "Emag", "Psi")])
    yield SphericalStaticData(n=3, lam=0.0, A=A, V=V, Emag=Emag, Psi=Psi, joint=joint), 3.0

    def hand(r):
        x = 1.0 / r
        return ((1.0 + x, -x * x, 2.0 * x * x * x), (r, 1.0, 0.0), (x * x, -2.0 * x * x * x, 6.0 * x ** 4),
                (x, -x * x, 2.0 * x * x * x))

    one = constant_profile(1.0)
    yield SphericalStaticData(n=3, lam=0.0, A=one, V=one, Emag=one, Psi=one, joint=hand), 2.5


def with_parts(joint, changes):
    """joint with the parts {(jet, part): value} replaced."""
    def read(r):
        jets = [list(jet) for jet in joint(r)]
        for (j, k), value in changes.items():
            jets[j][k] = value
        return tuple(map(tuple, jets))
    return read


def checked_jet_by_jet(jets, count):
    """A float read checked one part at a time: each jet by finite_jet, in
    order, and A > 0 right after A's jet."""
    jets = map(finite_jet, jets)
    a = next(jets)
    _require_positive(a[0])
    return [a] + [next(jets) for _ in range(count - 1)]


def outcome(read):
    try:
        return [[part.hex() for part in jet] for jet in read()]
    except ElectrovacError as exc:
        return type(exc).__name__, str(exc)


def test_a_float_read_checked_by_one_sum_raises_what_a_check_per_part_raises():
    # The first non-finite part asked for, in order, raises its
    # NumericsError, A <= 0 its DomainError, and a non-finite part that is
    # not asked for nothing; finite parts whose sum overflows come back as
    # the joint gave them.
    bad_values = (math.nan, math.inf, -math.inf)
    for data, r in float_joint_cases():
        changes = [{(j, k): x} for j in range(4) for k in range(3) for x in bad_values]
        changes += [{(0, 0): -1.0}, {(0, 0): 0.0}, {(0, 0): -1.0, (1, 0): math.nan},
                    {(1, 2): math.inf, (2, 1): math.nan}, {(0, 1): 1.7e308, (1, 0): 1.7e308},
                    {(2, 2): -1.7e308, (3, 0): -1.7e308}]
        for change in changes:
            joint = with_parts(data.joint_jet, change)
            bad = data.replace(joint=joint)
            for count in (1, 2, 3, 4):
                want = outcome(lambda: checked_jet_by_jet(joint(r), count))
                assert outcome(lambda: bad.jets(r, count)) == want, (data, change, count)
        overflow = data.replace(joint=with_parts(data.joint_jet, {(0, 1): 1.7e308, (1, 0): 1.7e308}))
        parts = [part for jet in overflow.joint_jet(r) for part in jet]
        assert all(map(math.isfinite, parts)) and sum(parts) == math.inf
        assert outcome(lambda: overflow.jets(r, 4)) == outcome(lambda: overflow.joint_jet(r))
        assert outcome(lambda: data.replace(joint=with_parts(data.joint_jet, {(0, 0): 0.0})).jets(r, 1)) == (
            "DomainError", "metric coefficient A must be positive")


def two_jet_readers():
    pert = Perturbation(center=4.5, halfwidth=1.0)
    return {
        "level_set_geometry": lambda d, r: level_set_geometry(d, r),
        "_el_integrand": lambda d, r: _el_integrand(d, pert, r),
        "_pohozaev_integrands": lambda d, r: _pohozaev_integrands(d, r),
    }


def test_two_jet_readers_make_one_joint_pass_on_rn_data():
    # On rn_data the jets of A and V (and of |E| for _el_integrand) come
    # from one joint pass on the radii, with no call to any profile.
    rs = np.linspace(3.0, 6.0, 50)
    for name, read in two_jet_readers().items():
        base = rn_data(RNParameters(3, 1.0, 0.5))
        calls = []

        def joint(r, inner=base.joint_jet):
            calls.append(np.array(r))
            return inner(r)

        data, counts = counting_data(base)
        data = data.replace(joint=joint)
        read(data, rs)
        assert len(calls) == 1 and np.array_equal(calls[0], rs), name
        assert counts == {"A": {}, "V": {}, "Emag": {}, "Psi": {}}, name


def test_a_replace_copy_reads_its_profiles():
    # A replace copy has no joint jet: each reader takes one jet
    # of A and one of V from the profiles, and _el_integrand one of |E|.
    rs = np.linspace(3.0, 6.0, 50)
    for name, read in two_jet_readers().items():
        data, counts = counting_data(rn_data(RNParameters(3, 1.0, 0.5)))
        assert data.joint_jet is None
        read(data, rs)
        want = {"A": {"jet": 1}, "V": {"jet": 1},
                "Emag": {"jet": 1} if name == "_el_integrand" else {}, "Psi": {}}
        assert counts == want, name
        for profile in ("A", "V"):
            assert np.array_equal(getattr(data, profile).jet_radii[0], rs), (name, profile)


PLAIN_RECORDS = (FrameTensor2, HypersurfaceGeometry, CriticalityResult, TagResult, ResidualReport,
                 PhotonRoot, RejectedRoot, PhotonSphereResult, Classification, QuasilocalReport,
                 IsotropicPoint, BallStaticExample)
# The records that check or convert their input, with their own __init__.
CHECKING_RECORDS = {"SphericalStaticData", "QuadratureConfig", "Perturbation", "GridSpec",
                    "RNParameters"}


@pytest.mark.parametrize("cls", PLAIN_RECORDS, ids=lambda cls: cls.__name__)
def test_a_plain_record_binds_its_fields_by_position_and_by_name(cls):
    names = cls.__slots__
    values = [f"{name}-value" for name in names]
    by_position, by_name = cls(*values), cls(**dict(zip(names, values)))
    mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    for record in (by_position, by_name, mixed):
        assert [getattr(record, name) for name in names] == values
        assert repr(record) == repr(by_position)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(by_name) == f"{cls.__qualname__}({fields})"
    first, last = names[0], names[-1]
    wrong = [
        (f"missing field {last!r}", lambda: cls(**dict(zip(names[:-1], values)))),
        ("has no field 'bogus'", lambda: cls(*values, bogus=1)),
        # every field by name, with one more or with one replaced
        ("has no field 'bogus'", lambda: cls(**dict(zip(names, values)), bogus=1)),
        ("has no field 'bogus'", lambda: cls(**dict(zip(names[:-1], values)), bogus=1)),
        (f"got field {first!r} twice", lambda: cls(*values[:1], **dict(zip(names, values)))),
        (f"takes {len(names)} fields", lambda: cls(*values, 1)),
    ]
    for message, call in wrong:
        with pytest.raises(TypeError, match=f"^{cls.__qualname__} {message}"):
            call()


def test_only_the_checking_records_define_their_own_init():
    import importlib
    import pkgutil

    import electrovac

    records = {}
    for info in pkgutil.iter_modules(electrovac.__path__):
        module = importlib.import_module(f"electrovac.{info.name}")
        records.update({cls.__name__: cls for cls in vars(module).values()
                        if isinstance(cls, type) and issubclass(cls, Record)
                        and cls.__module__ == module.__name__})
    own = {name for name, cls in records.items() if cls.__init__ is not Record.__init__}
    assert own == CHECKING_RECORDS
    assert {cls.__name__ for cls in PLAIN_RECORDS} == set(records) - own - {"Record", "ValueRecord"}
