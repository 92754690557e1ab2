import dataclasses
import math

import numpy as np
import pytest

from electrovac import (
    BallStaticExample,
    DomainError,
    IsotropicChart,
    ParameterError,
    RNParameters,
    coupling_constant,
    default_grid,
    euclidean_ball_residuals,
    flat_data,
    isotropic_inverse,
    isotropic_map,
    perturbed_potential_data,
    phi_identity_residual,
    rn_data,
    rn_horizon,
    rn_r0,
)


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
    with pytest.raises(ParameterError):
        RNParameters(3, 1.0, 0.0, lam=0.1)
    # a square that overflows would empty the domain; the error names the parameter
    with pytest.raises(ParameterError, match="mass"):
        RNParameters(3, 1e160, 0.0)
    with pytest.raises(ParameterError, match="charge"):
        RNParameters(3, 1.0, -1e160)
    assert RNParameters(3, 1e150, 1e150).regime == "extremal"


def test_regime_labels():
    assert RNParameters(3, 1.0, 0.5).regime == "sub-extremal"
    assert RNParameters(3, 1.0, -0.5).regime == "sub-extremal"
    assert RNParameters(3, 1.0, 1.0).regime == "extremal"
    assert RNParameters(3, 1.0, 1.5).regime == "super-extremal"


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


def test_perturbed_potential_keeps_every_other_field():
    # Super-extremal: the domain reaches 0, so default_grid starts at r_scale/2.
    base = rn_data(RNParameters(3, 1.0, 1.5))
    bumped = perturbed_potential_data(base, 1e-3, 2.0, 0.2)
    assert bumped.V is not base.V
    for f in dataclasses.fields(base):
        if f.name != "V":
            assert getattr(bumped, f.name) is getattr(base, f.name), f.name
    assert base.r_scale == 1.5
    assert default_grid(bumped) == default_grid(base)
    assert default_grid(bumped).lo == 0.75


# ----------------------------------------------------------------------------
# isotropic chart


def quadratic_u_oracle(p, r):
    # r^k = u + m + (m^2 - q^2)/(4u) inverts to a quadratic in u; outer branch
    w = r ** (p.n - 2)
    half = 0.5 * (w - p.m)
    return half + math.sqrt(half * half - (p.m**2 - p.q**2) / 4.0)


CHART_CASES = [
    RNParameters(3, 1.0, 0.0),
    RNParameters(3, 1.0, 0.5),
    RNParameters(3, 1.0, 1.0),
    RNParameters(3, 1.0, 1.3),
    RNParameters(4, 1.5, -0.9),
    RNParameters(5, 2.0, 1.1),
]


def test_isotropic_schwarzschild_landmark():
    pt = isotropic_map(RNParameters(3, 1.0, 0.0), 0.5)
    assert pt.r == 2.0
    assert pt.V == 0.0
    assert np.isclose(pt.phi, 4.0, rtol=1e-15)
    assert np.isclose(isotropic_inverse(RNParameters(3, 1.0, 0.0), 2.0), 0.5, rtol=1e-12)


def test_isotropic_radius_matches_quadratic_oracle():
    for p in CHART_CASES:
        chart = IsotropicChart(p)
        # The outer branch maps onto (r0, oo): it starts at the horizon when
        # m >= |q| and at r = 0 otherwise, so super-extremal probes start at
        # a fraction of the data's own length scale.
        r_lo = rn_horizon(p) if p.regime != "super-extremal" else 0.7 * rn_data(p).r_scale
        for r in np.geomspace(r_lo * 1.01, 50.0, 20):
            assert r >= rn_r0(p)
            u = quadratic_u_oracle(p, r)
            s = u ** (1.0 / (p.n - 2))
            assert s > chart.s_branch
            assert np.isclose(float(chart.r_of_s(s)), r, rtol=1e-12)
            assert np.isclose(isotropic_inverse(p, r), s, rtol=1e-10)


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


def test_ball_example_sample_geometry():
    ex = BallStaticExample.default()
    assert ex.interior.shape == (200, 3)
    assert ex.boundary.shape == (200, 3)
    assert np.max(np.sum(ex.interior**2, axis=1)) < 1.0
    assert np.allclose(np.sum(ex.boundary**2, axis=1), 1.0, rtol=1e-13)


def test_ball_example_rejects_zero_direction():
    with pytest.raises(ParameterError):
        BallStaticExample.default(v=(0.0, 0.0, 0.0))
