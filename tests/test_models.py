import math

import mpmath
import numpy as np
import pytest

from electrovac import (
    BallStaticExample,
    DomainError,
    GridSpec,
    IsotropicChart,
    NumericsError,
    ParameterError,
    Perturbation,
    QuadratureConfig,
    RNParameters,
    RadialProfile,
    SphericalStaticData,
    boundary_residual,
    constant_profile,
    coupling_constant,
    default_grid,
    euclidean_ball_residuals,
    evaluate_functional,
    flat_data,
    hessian_radial,
    horizon_gradient_limit,
    isotropic_inverse,
    level_set_geometry,
    perturbed_potential_data,
    phi_identity_residual,
    quasilocal_check,
    ricci_radial,
    rn_data,
    rn_horizon,
    rn_r0,
    scalar_curvature_d1,
    scan_photon_spheres,
    sphere_area,
    tabulated_profile,
    verify_all,
)
from electrovac.profiles import MODE_FINITE_DIFFERENCE


def test_parameter_validation():
    with pytest.raises(ParameterError):
        RNParameters(2, 1.0, 0.0)
    with pytest.raises(ParameterError):
        RNParameters(3.5, 1.0, 0.0)
    with pytest.raises(ParameterError):
        RNParameters(3, 0.0, 0.0)
    with pytest.raises(ParameterError):
        RNParameters(3, -1.0, 0.0)
    with pytest.raises(ParameterError):
        RNParameters(3, math.inf, 0.0)
    # a square that overflows would empty the domain; the error names the parameter
    with pytest.raises(ParameterError, match="mass"):
        RNParameters(3, 1e160, 0.0)
    with pytest.raises(ParameterError, match="charge"):
        RNParameters(3, 1.0, -1e160)
    for q in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="charge must be finite"):
            RNParameters(3, 1.0, q)
    # so would a term of the photon-sphere discriminant (n m)^2 - 4(n-1) q^2
    for n, m, q, name in ((3, 5e153, 0.0, "mass"), (7, 1.3e154, 1e150, "mass"),
                          (5, 4.677351245980863e-256, 7.325555962603106e+153, "charge")):
        with pytest.raises(ParameterError, match=name):
            RNParameters(n, m, q)
    assert RNParameters(3, 4e153, 0.0).m == 4e153
    assert RNParameters(3, 1e150, 1e150).regime == "extremal"


def test_dimension_is_bounded_before_any_float_conversion():
    # 343 is the largest n whose unit-sphere area 2 pi^(n/2) / Gamma(n/2) is a
    # finite float. Past it, a huge n overflowed on its first float
    # conversion, and n = 10**150 with m = 1e-300 passed every check and left
    # each joint read with n - 3 multiplications to make.
    with pytest.raises(ParameterError, match="dimension must be at most 343"):
        RNParameters(10 ** 150, 1e-300, 0.0)
    for n in (344, 10 ** 308, 10 ** 400):
        with pytest.raises(ParameterError, match="dimension must be at most 343"):
            RNParameters(n, 1.0, 0.0)
    assert RNParameters(343, 1.0, 0.0).n == 343
    assert math.isfinite(sphere_area(343))
    with pytest.raises(ParameterError, match="dimension must be at most 343"):
        sphere_area(344)
    # SphericalStaticData takes the same bound, as a usage error.
    one = constant_profile(1.0)
    for n, message in ((2, "integer >= 3"), (3.5, "integer >= 3"), (math.nan, "integer >= 3"),
                       (344, "at most 343"), (10 ** 400, "at most 343")):
        with pytest.raises(ParameterError, match=message):
            SphericalStaticData(n=n, lam=0.0, A=one, V=one, Emag=one)
    assert SphericalStaticData(n=343, lam=0.0, A=one, V=one, Emag=one).n == 343
    # So is a non-finite lam, which would otherwise surface later as a
    # non-finite E1 residual.
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="lam must be finite"):
            SphericalStaticData(n=3, lam=lam, A=one, V=one, Emag=one)


def test_an_int_beyond_the_float_range_raises_the_documented_error():
    # float() and math.isfinite reject an int beyond the float range with a
    # bare OverflowError and np.isfinite with a TypeError; a tolerance of
    # 10**400 was accepted and overflowed in the next functional. Each value
    # is converted to a float once, where it is checked.
    huge = 10 ** 400
    one = constant_profile(1.0)
    p = RNParameters(3, 1.0, 0.5)
    data = rn_data(p)
    calls = [
        (ParameterError, lambda: RNParameters(3, 1.0, huge)),
        (ParameterError, lambda: RNParameters(3, huge, 0.0)),
        (ParameterError, lambda: SphericalStaticData(n=3, lam=huge, A=one, V=one, Emag=one)),
        (ParameterError, lambda: Perturbation(huge, 1.0)),
        (ParameterError, lambda: Perturbation(4.5, huge)),
        (ParameterError, lambda: Perturbation(4.5, 1.0, amplitude=-huge)),
        (ParameterError, lambda: QuadratureConfig(tol=huge)),
        (ParameterError, lambda: perturbed_potential_data(data, 1e-3, huge, 0.5)),
        (DomainError, lambda: GridSpec(1.0, huge)),
        (DomainError, lambda: GridSpec(-huge, 1.0, spacing="linear")),
        (DomainError, lambda: evaluate_functional(data, (3.0, huge))),
        (DomainError, lambda: isotropic_inverse(p, huge)),
        (DomainError, lambda: boundary_residual(data, huge)),
        (DomainError, lambda: quasilocal_check(data, huge)),
        (DomainError, lambda: level_set_geometry(data, huge)),
        (DomainError, lambda: scalar_curvature_d1(data, huge)),
        (DomainError, lambda: horizon_gradient_limit(data, huge)),
        (DomainError, lambda: IsotropicChart(p).point(huge)),
        (DomainError, lambda: verify_all(data, default_grid(data), r_boundary=huge)),
        (DomainError, lambda: scan_photon_spheres(data, 3.0, huge)),
        (DomainError, lambda: RadialProfile(jet=lambda r: (r, r, r), domain=(0.0, huge))),
        # The int inside a sequence of radii, or at a tolerance.
        (DomainError, lambda: level_set_geometry(data, [3.0, huge])),
        (DomainError, lambda: ricci_radial(data, [3.0, huge])),
        (DomainError, lambda: hessian_radial(data, data.V, [3.0, huge])),
        (DomainError, lambda: data.V([3.0, huge])),
        (DomainError, lambda: data.jets([3.0, huge], 2)),
        (DomainError, lambda: IsotropicChart(p).r_of_s([2.0, huge])),
        (DomainError, lambda: Perturbation(4.5, 1.0).bump(huge)),
        (DomainError, lambda: Perturbation(4.5, 1.0).bump_jet([4.0, huge])),
        (ParameterError, lambda: quasilocal_check(data, 3.0, tol=huge)),
        (ParameterError, lambda: verify_all(data, default_grid(data), tol=huge)),
        # A table entry beyond the float range, as a non-finite entry.
        (NumericsError, lambda: tabulated_profile([1, 2, 3, huge], [1, 2, 3, 4])),
        (NumericsError, lambda: tabulated_profile([1, 2, 3, 4], [1, 2, huge, 4])),
    ]
    for error, call in calls:
        with pytest.raises(error, match="too large for a float"):
            call()
    # A value in range is kept as its float.
    assert QuadratureConfig(tol=1).tol == 1.0 and type(QuadratureConfig(tol=1).tol) is float
    assert type(RNParameters(3, 1, 0).m) is float and GridSpec(1, 10).radii()[-1] == 10.0


def test_regime_labels():
    assert RNParameters(3, 1.0, 0.5).regime == "sub-extremal"
    assert RNParameters(3, 1.0, -0.5).regime == "sub-extremal"
    assert RNParameters(3, 1.0, 1.0).regime == "extremal"
    assert RNParameters(3, 1.0, 1.5).regime == "super-extremal"


def test_dimension_must_be_an_integer_everywhere():
    # An integral float passed the dimension check, and rn_data and
    # photon_sphere_radii then raised a bare TypeError; sphere_area and
    # coupling_constant skipped the check and raised OverflowError,
    # ValueError or ZeroDivisionError.
    from electrovac import photon_sphere_radii

    for n in (3.0, 5.0, np.float64(4.0), True, "3", None):
        with pytest.raises(ParameterError, match="dimension must be an integer >= 3"):
            RNParameters(n, 1.0, 0.0)
    cases = [(sphere_area, 344, "at most 343"), (sphere_area, 0, "an integer >= 3"),
             (sphere_area, 3.0, "an integer >= 3"), (coupling_constant, 1, "an integer >= 3"),
             (coupling_constant, 10 ** 400, "at most 343"), (coupling_constant, 4.0, "an integer >= 3")]
    for fn, n, message in cases:
        with pytest.raises(ParameterError, match=f"dimension must be {message}"):
            fn(n)
    for n in (np.int64(3), np.int32(5)):
        p = RNParameters(n, 1.0, 0.5)
        assert photon_sphere_radii(p).count == photon_sphere_radii(RNParameters(int(n), 1.0, 0.5)).count
        assert rn_data(p).n == n
        assert sphere_area(n) == sphere_area(int(n))
        assert coupling_constant(n) == coupling_constant(int(n))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_isotropic_chart_rejects_non_finite_radii_and_values(n):
    # A NaN s gave an all-NaN point, an infinite or huge s a RuntimeWarning.
    # A NaN or infinite s is a domain error; a huge s gives finite values,
    # computed with numpy's warnings off, or a domain error where one is not.
    p = RNParameters(n, 1.0, 0.5)
    chart = IsotropicChart(p)
    for s in (math.nan, math.inf, -math.inf):
        for call in (chart.point, chart.r_of_s, lambda s: phi_identity_residual(p, s)):
            with pytest.raises(DomainError, match="isotropic radius must be finite"):
                call(s)
    with pytest.raises(DomainError, match="isotropic radius must be finite"):
        chart.r_of_s([2.0, math.nan])
    for s in (1e60, 1e100, 1e200, 1e300, 1.7e308):
        pt = chart.point(s)
        parts = (pt.s, pt.r, pt.phi, pt.V, pt.Emag, pt.Psi)
        assert all(type(x) is float and math.isfinite(x) for x in parts), (n, s)
        assert (pt.r, pt.V) == (chart.r_of_s(s), 1.0) and 0.0 <= pt.Emag <= 1e-120, (n, s)
        assert phi_identity_residual(p, s) == 0.0, (n, s)
    pt = IsotropicChart(RNParameters(5, 1.0, 0.5)).point(1e200)
    assert (pt.r, pt.V, pt.Emag) == (1e200, 1.0, 0.0)


def test_isotropic_chart_values_that_are_not_finite_raise():
    # At m = 1e-300 the chart's u = s^(n-2) meets the float range: V and |E|
    # came out NaN and infinite, and phi_identity_residual NaN.
    p = RNParameters(3, 1e-300, 1e-301)
    chart = IsotropicChart(p)
    s = 1.5 * chart.s_branch + 1e-302
    for call in (chart.point, lambda s: phi_identity_residual(p, s)):
        with pytest.raises(DomainError, match="not a finite float"):
            call(s)


def test_coupling_constant_values():
    assert coupling_constant(3) == 1.0
    assert np.isclose(coupling_constant(4), math.sqrt(4.0 / 3.0), rtol=1e-15)
    assert np.isclose(coupling_constant(5), math.sqrt(3.0 / 2.0), rtol=1e-15)


def test_horizon_and_domain_edge():
    assert rn_horizon(RNParameters(3, 1.0, 0.0)) == 2.0
    assert np.isclose(rn_horizon(RNParameters(3, 1.0, 0.5)), 1.0 + math.sqrt(3.0) / 2.0, rtol=1e-15)
    assert rn_horizon(RNParameters(3, 1.0, 1.0)) == 1.0
    assert np.isclose(rn_horizon(RNParameters(4, 1.0, 0.0)), math.sqrt(2.0), rtol=1e-15)
    assert rn_horizon(RNParameters(3, 1.0, 1.5)) is None
    assert rn_r0(RNParameters(3, 1.0, 0.5)) == rn_horizon(RNParameters(3, 1.0, 0.5))
    assert rn_r0(RNParameters(3, 1.0, 1.5)) == 0.0


def test_closed_form_data_satisfies_metric_identities():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        m = float(rng.uniform(0.5, 3.0))
        q = float(rng.uniform(-1.0, 1.0)) * m * 1.4
        p = RNParameters(n, m, q)
        data = rn_data(p)
        lo = data.domain[0]
        rs = np.geomspace(lo * 1.05 if lo > 0 else 0.3 * data.r_scale, 30.0, 40)
        u = rs ** (n - 2)
        W = 1.0 - 2.0 * m / u + q * q / (u * u)
        assert np.allclose(data.V(rs) ** 2, W, rtol=1e-13)
        assert np.allclose(data.A(rs) * W, 1.0, rtol=1e-13)
        cn = coupling_constant(n)
        assert np.allclose(data.Emag(rs), (n - 2) * abs(q) / (cn * rs ** (n - 1)), rtol=1e-13)
        assert np.allclose(data.Psi(rs), q / (cn * rs ** (n - 2)), rtol=1e-13)


def test_closed_form_derivatives_match_difference_quotients():
    data = rn_data(RNParameters(4, 1.2, 0.8))
    rs = np.linspace(1.6, 8.0, 12)
    h = 1e-6
    for prof in (data.A, data.V, data.Emag, data.Psi):
        fd1 = (prof.value(rs + h) - prof.value(rs - h)) / (2 * h)
        fd2 = (prof.value(rs + h) - 2 * prof.value(rs) + prof.value(rs - h)) / (h * h)
        assert np.allclose(prof.d1(rs), fd1, rtol=1e-7, atol=1e-9)
        assert np.allclose(prof.d2(rs), fd2, rtol=1e-3, atol=1e-3)


def test_flat_data_is_trivial():
    data = flat_data(3)
    rs = np.geomspace(0.1, 10.0, 7)
    assert np.all(data.A(rs) == 1.0)
    assert np.all(data.V(rs) == 1.0)
    assert np.all(data.Emag(rs) == 0.0)
    assert data.v_zeros == ()


def test_perturbed_potential_changes_values_keeps_derivative_consistency():
    base = rn_data(RNParameters(3, 1.0, 0.5))
    bumped = perturbed_potential_data(base, 0.01, 5.0, 1.0)
    assert not np.isclose(bumped.V(5.0), base.V(5.0))
    assert np.isclose(bumped.V(40.0), base.V(40.0), atol=1e-12)
    rs = np.linspace(4.0, 6.0, 9)
    h = 1e-6
    fd1 = (bumped.V.value(rs + h) - bumped.V.value(rs - h)) / (2 * h)
    assert np.allclose(bumped.V.d1(rs), fd1, rtol=1e-7, atol=1e-10)


def test_perturbed_potential_keeps_the_mode_of_base_v():
    closed = rn_data(RNParameters(3, 1.0, 0.5))
    rs = np.geomspace(2.0, 40.0, 400)
    table = closed.replace(V=tabulated_profile(rs, closed.V(rs)))
    loose = closed.replace(V=RadialProfile(closed.V.jet, domain=closed.V.domain,
                                                        mode=MODE_FINITE_DIFFERENCE))
    for base in (closed, table, loose):
        assert perturbed_potential_data(base, 1e-3, 5.0, 0.5).V.mode == base.V.mode
    assert table.V.mode == loose.V.mode == MODE_FINITE_DIFFERENCE


def test_perturbed_potential_keeps_every_other_field():
    # Super-extremal: the domain reaches 0, so default_grid starts at r_scale/2.
    base = rn_data(RNParameters(3, 1.0, 1.5))
    bumped = perturbed_potential_data(base, 1e-3, 2.0, 0.2)
    assert bumped.V is not base.V
    for name in base.__slots__:
        if name not in ("V", "joint_jet"):
            assert getattr(bumped, name) is getattr(base, name), name
    assert base.r_scale == 1.5
    assert default_grid(bumped) == default_grid(base)
    assert default_grid(bumped).lo == 0.75


def joint_jet_cases():
    """(kind, parameters, data, radii): plain and bumped rn_data, n from 3 to 7 in every
    regime, m from 1e-3 to 1e3; 500 log-spaced radii from just above the
    domain's lower end over four decades, and single radii."""
    rng = np.random.default_rng(47)
    for i in range(30):
        n = 3 + i % 5
        m = float(10.0 ** rng.uniform(-3.0, 3.0))
        sign = float(rng.choice([-1.0, 1.0]))
        q = m * sign * (float(rng.uniform(0.0, 0.95)), 1.0, float(rng.uniform(1.05, 2.0)))[i % 3]
        p = RNParameters(n, m, q)
        base = rn_data(p)
        lo = 1.01 * base.domain[0] if base.domain[0] > 0 else 0.01 * base.r_scale
        rs = np.geomspace(lo, 1e4 * lo, 500)
        bumped = perturbed_potential_data(base, 1e-3, 10.0 * lo, lo)
        for kind, data in (("plain", base), ("bumped", bumped)):
            for r in (rs, rs[7], float(rs[-1])):
                yield kind, p, data, r


def test_joint_jet_equals_the_profile_jets_bit_for_bit():
    seen = set()
    for kind, p, data, r in joint_jet_cases():
        seen.add((kind, p.regime))
        joint = data.joint_jet(r)
        assert len(joint) == 4
        for name, parts in zip(("A", "V", "Emag", "Psi"), joint):
            want = getattr(data, name).jet(r)
            assert len(parts) == 3
            for k, (got, w) in enumerate(zip(parts, want)):
                got = np.asarray(got, dtype=float)
                assert got.shape == np.shape(w) and got.tobytes() == np.asarray(w).tobytes(), (
                    kind, p, name, k)
    assert len(seen) == 6


def test_a_copy_that_swaps_a_profile_has_no_joint_jet():
    data = rn_data(RNParameters(4, 1.5, 0.7))
    assert data.joint_jet is not None
    assert perturbed_potential_data(data, 1e-3, 5.0, 0.5).joint_jet is not None
    for name in ("A", "V", "Emag", "Psi"):
        copy = data.replace(**{name: RadialProfile(getattr(data, name).jet)})
        assert copy.joint_jet is None, name
        assert perturbed_potential_data(copy, 1e-3, 5.0, 0.5).joint_jet is None, name
    # Data built without one has none, and neither does a bump of it.
    assert flat_data().joint_jet is None
    assert perturbed_potential_data(flat_data(), 1e-3, 5.0, 0.5).joint_jet is None


# ----------------------------------------------------------------------------
# isotropic chart


def isotropic_radius_oracle(p, r):
    """s on the outer branch with r(s) = r, by a 50-digit root of the chart map
    itself, r(s) = s ((1 + (m+q)/(2u)) (1 + (m-q)/(2u)))^{1/k} with u = s^k,
    bracketed between the branch start and a radius where r(s) > r."""
    with mpmath.workdps(50):
        m, q, k = mpmath.mpf(p.m), mpmath.mpf(p.q), p.n - 2
        target = mpmath.mpf(r)

        def gap(s):
            u = s ** k
            return s * ((1 + (m + q) / (2 * u)) * (1 + (m - q) / (2 * u))) ** (mpmath.mpf(1) / k) - target

        if p.m >= abs(p.q):
            lo = (mpmath.sqrt(m * m - q * q) / 2) ** (mpmath.mpf(1) / k)
        else:
            lo = ((abs(q) - m) / 2) ** (mpmath.mpf(1) / k)
        lo += mpmath.mpf(10) ** -40  # r(lo) < r: just past the branch start
        hi = target + 1
        while gap(hi) <= 0:
            hi *= 2
        return float(mpmath.findroot(gap, (lo, hi), solver="anderson"))


CHART_CASES = [
    RNParameters(3, 1.0, 0.0),
    RNParameters(3, 1.0, 0.5),
    RNParameters(3, 1.0, 1.0),
    RNParameters(3, 1.0, 1.3),
    RNParameters(4, 1.5, -0.9),
    RNParameters(5, 2.0, 1.1),
]


def test_isotropic_schwarzschild_landmark():
    pt = IsotropicChart(RNParameters(3, 1.0, 0.0)).point(0.5)
    assert pt.r == 2.0
    assert pt.V == 0.0
    assert np.isclose(pt.phi, 4.0, rtol=1e-15)
    assert np.isclose(isotropic_inverse(RNParameters(3, 1.0, 0.0), 2.0), 0.5, rtol=1e-12)


def test_isotropic_radius_matches_quadratic_oracle():
    # The library solves the chart's quadratic; the oracle solves r(s) = r.
    for p in CHART_CASES:
        chart = IsotropicChart(p)
        # The outer branch maps onto (r0, oo): it starts at the horizon when
        # m >= |q| and at r = 0 otherwise, so super-extremal probes start at
        # a fraction of the data's own length scale.
        r_lo = rn_horizon(p) if p.regime != "super-extremal" else 0.7 * rn_data(p).r_scale
        for r in np.geomspace(r_lo * 1.01, 50.0, 20):
            assert r >= rn_r0(p)
            s = isotropic_radius_oracle(p, float(r))
            assert s > chart.s_branch
            assert np.isclose(float(chart.r_of_s(s)), r, rtol=1e-12)
            assert np.isclose(isotropic_inverse(p, r), s, rtol=1e-14, atol=0.0)


def test_isotropic_round_trip():
    for p in CHART_CASES:
        chart = IsotropicChart(p)
        s0 = chart.s_branch + 0.37
        for s in np.geomspace(s0, s0 + 40.0, 12):
            r = float(chart.r_of_s(s))
            assert np.isclose(isotropic_inverse(p, r), s, rtol=1e-11)


def test_isotropic_fields_agree_with_area_radius_chart():
    for p in CHART_CASES:
        data = rn_data(p)
        chart = IsotropicChart(p)
        for s in np.geomspace(chart.s_branch + 0.3, chart.s_branch + 30.0, 15):
            pt = chart.point(s)
            r = pt.r
            assert np.isclose(pt.V, float(data.V(r)), rtol=1e-10, atol=1e-12)
            assert np.isclose(pt.Emag, float(data.Emag(r)), rtol=1e-10, atol=1e-12)
            assert np.isclose(pt.Psi, float(data.Psi(r)), rtol=1e-10, atol=1e-12)


def test_phi_identity_residual_small():
    for p in CHART_CASES:
        chart = IsotropicChart(p)
        for s in np.geomspace(chart.s_branch + 0.25, chart.s_branch + 20.0, 10):
            assert phi_identity_residual(p, s) < 1e-10


def test_isotropic_branch_start_closed_only_sub_extremal():
    sub = IsotropicChart(RNParameters(3, 1.0, 0.5))
    assert sub.closed_start
    # the branch start attains the horizon radius
    assert np.isclose(float(sub.r_of_s(sub.s_branch)), rn_horizon(RNParameters(3, 1.0, 0.5)), rtol=1e-14)

    ext = IsotropicChart(RNParameters(3, 1.0, 1.0))
    assert not ext.closed_start
    assert ext.s_branch == 0.0
    with pytest.raises(DomainError):
        ext.r_of_s(0.0)

    sup = IsotropicChart(RNParameters(3, 1.0, 1.4))
    assert not sup.closed_start
    with pytest.raises(DomainError):
        sup.r_of_s(sup.s_branch)


def test_isotropic_inverse_rejects_radii_below_branch():
    p = RNParameters(3, 1.0, 0.5)
    with pytest.raises(DomainError):
        isotropic_inverse(p, 0.9 * rn_horizon(p))
    with pytest.raises(DomainError):
        isotropic_inverse(p, -1.0)
    # the horizon itself maps to the closed branch start, where the two roots meet
    for sub in (p, RNParameters(4, 1.5, -0.9), RNParameters(3, 1.0, 1.0 - 1e-12)):
        assert np.isclose(isotropic_inverse(sub, rn_horizon(sub)), IsotropicChart(sub).s_branch, rtol=1e-7)
    # the extremal branch only approaches its horizon
    ext = RNParameters(3, 1.0, 1.0)
    for r in (rn_horizon(ext), 0.5):
        with pytest.raises(DomainError):
            isotropic_inverse(ext, r)
    with pytest.raises(DomainError):  # r^2 overflows
        isotropic_inverse(RNParameters(4, 1.0, 0.5), 1e200)
    # where (R - m)^2 would overflow the discriminant is scaled: r = s + m + ...
    assert np.isclose(isotropic_inverse(RNParameters(3, 1.0, 0.5), 1e200), 1e200, rtol=1e-15)


# ----------------------------------------------------------------------------
# flat ball example


def test_ball_example_residuals_are_exact_zeros():
    ex = BallStaticExample.default()
    rep = euclidean_ball_residuals(ex)
    assert rep.tolerance == 0.0
    assert rep.passed
    for tag in ("BALL_HESS", "BALL_LAP", "BALL_RIC", "BALL_AE1", "BALL_ROBIN"):
        assert rep.entries[tag].max_residual == 0.0
    assert rep.extras["sigma_area"] == math.pi
    assert rep.to_dict()["extras"] == {"sigma_area": math.pi}


def test_ball_example_sample_geometry():
    ex = BallStaticExample.default()
    assert ex.interior.shape == (200, 3)
    assert ex.boundary.shape == (200, 3)
    assert np.max(np.sum(ex.interior**2, axis=1)) < 1.0
    assert np.allclose(np.sum(ex.boundary**2, axis=1), 1.0, rtol=1e-13)


def test_ball_example_rejects_zero_direction():
    with pytest.raises(ParameterError):
        BallStaticExample.default(v=(0.0, 0.0, 0.0))


@pytest.mark.parametrize("kwargs", [
    {"n_boundary": 0}, {"n_interior": 0}, {"n_interior": -1}, {"n_interior": 2.5},
    {"n_interior": True}, {"n_boundary": False}, {"n_boundary": 10 ** 400},
    {"v": (np.inf, 0.0, 1.0)}, {"v": (np.nan, 0.0, 1.0)}, {"v": (10 ** 400, 0, 1)},
    {"v": "abc"}, {"v": ([1.0, 2.0], 3.0, 4.0)},
])
def test_ball_example_rejects_bad_counts_and_directions(kwargs):
    # These ended in numpy's empty-argmax, matmul or conversion ValueError, a
    # TypeError, an OverflowError, a NaN residual or an "invalid value"
    # warning, or were accepted (a bool count).
    with pytest.raises(ParameterError):
        euclidean_ball_residuals(BallStaticExample.default(**kwargs))


def test_ball_example_takes_any_integer_count():
    ex = BallStaticExample.default(v=(1, 2, 3), n_interior=np.int64(1), n_boundary=3)
    assert ex.interior.shape == (1, 3) and ex.boundary.shape == (3, 3)
    assert euclidean_ball_residuals(ex).passed


@pytest.mark.parametrize("amplitude, center, width", [
    (np.nan, 5.0, 0.5), (np.inf, 5.0, 0.5), (1e-3, np.nan, 0.5), (1e-3, -np.inf, 0.5),
    (1e-3, 5.0, 0.0), (1e-3, 5.0, -0.5), (1e-3, 5.0, np.inf), (1e-3, 5.0, np.nan),
])
def test_perturbed_potential_rejects_bad_bump_constants(amplitude, center, width):
    # Such a bump used to be accepted and fail only when evaluated, as a
    # non-finite profile value or a division warning.
    with pytest.raises(ParameterError, match="finite"):
        perturbed_potential_data(rn_data(RNParameters(3, 1.0, 0.5)), amplitude, center, width)
