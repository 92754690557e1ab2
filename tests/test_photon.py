import math
import warnings

import numpy as np
import pytest

from electrovac import (
    DomainError,
    NumericsError,
    ParameterError,
    RadialProfile,
    RNParameters,
    SphericalStaticData,
    boundary_residual,
    classify_configuration,
    constant_profile,
    photon_sphere_radii,
    quasilocal_check,
    rn_data,
    rn_r0,
    scan_photon_spheres,
)
from electrovac import photon


def test_schwarzschild_photon_sphere():
    res = photon_sphere_radii(RNParameters(3, 1.0, 0.0))
    assert res.count == 1
    assert res.roots[0].r == 3.0
    assert res.roots[0].multiplicity == 1
    # the u = 0 root maps to r = 0, below the horizon
    assert len(res.rejected) == 1
    assert "domain edge" in res.rejected[0].reason


def test_sub_extremal_photon_sphere_frozen_value():
    res = photon_sphere_radii(RNParameters(3, 1.0, 0.5))
    assert res.count == 1
    assert np.isclose(res.roots[0].r, (3.0 + math.sqrt(7.0)) / 2.0, rtol=1e-15)


def test_extremal_inner_root_rejected_at_horizon():
    res = photon_sphere_radii(RNParameters(3, 1.0, 1.0))
    assert res.count == 1
    assert res.roots[0].r == 2.0
    assert len(res.rejected) == 1
    assert res.rejected[0].r == 1.0
    assert "domain edge" in res.rejected[0].reason


def test_super_extremal_pair_frozen_values():
    res = photon_sphere_radii(RNParameters(3, 1.0, 1.05))
    assert res.count == 2
    assert np.isclose(res.roots[0].r, 1.287867965644036, rtol=1e-14)
    assert np.isclose(res.roots[1].r, 1.712132034355964, rtol=1e-14)


def test_double_root_detection():
    q = 3.0 / (2.0 * math.sqrt(2.0))
    res = photon_sphere_radii(RNParameters(3, 1.0, q))
    assert res.count == 1
    assert res.roots[0].multiplicity == 2
    assert np.isclose(res.roots[0].r, 1.5, rtol=1e-12)


def test_no_photon_sphere_when_discriminant_negative():
    res = photon_sphere_radii(RNParameters(3, 0.5, 1.0))
    assert res.count == 0
    assert res.discriminant < 0
    assert "negative discriminant" in res.rejected[0].reason


def test_classification_case_list():
    cases = [
        (RNParameters(3, 1.0, 0.0), "sub-extremal", 1),
        (RNParameters(3, 1.0, 0.9), "sub-extremal", 1),
        (RNParameters(3, 1.0, 1.0), "extremal", 1),
        (RNParameters(3, 1.0, 1.05), "super-extremal", 2),
        (RNParameters(3, 1.0, 3.0 / (2.0 * math.sqrt(2.0))), "super-extremal", 1),
        (RNParameters(3, 0.5, 1.0), "super-extremal", 0),
        (RNParameters(4, 1.0, 0.5), "sub-extremal", 1),
        (RNParameters(5, 2.0, -2.0), "extremal", 1),
    ]
    for p, regime, count in cases:
        c = classify_configuration(p)
        assert c.regime == regime, p
        assert c.count == count, p


def test_classifier_agrees_with_solver_on_seeded_sweep():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(3, 6))
        m = float(rng.uniform(0.3, 3.0))
        q = float(rng.uniform(-2.0, 2.0)) * m
        p = RNParameters(n, m, q)
        assert classify_configuration(p).count == photon_sphere_radii(p).count, p


def test_scan_matches_closed_form_roots():
    # Every other draw is super-extremal with two simple roots,
    # m < |q| < n m / (2 sqrt(n-1)); the rest range over all regimes.
    rng = np.random.default_rng(23)
    two_root_sets = 0
    for k in range(80):
        n = int(rng.integers(3, 8))
        m = float(rng.uniform(0.1, 10.0))
        if k % 2:
            ratio = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, n / (2.0 * math.sqrt(n - 1)))
        else:
            ratio = rng.uniform(-1.8, 1.8)
        p = RNParameters(n, m, float(ratio) * m)
        found = scan_photon_spheres(rn_data(p))
        expected = [rt.r for rt in photon_sphere_radii(p).roots if rt.multiplicity == 1]
        two_root_sets += len(expected) == 2
        assert len(found) == len(expected), p
        for a, b in zip(found, expected):
            assert abs(a - b) <= 4e-15 * b, p
    assert two_root_sets >= 30


def test_scan_finds_a_root_on_a_sample_once():
    # V = r^2 + 9, A = 1, |E| = 0, n = 3: the residual 2 r - 18 / r is exactly
    # 0.0 at r = 3, the first sample of the lo = 3 scan and inside a bracket
    # of the lo = 1 scan.
    v = RadialProfile(lambda r: (r * r + 9.0, 2.0 * r, 2.0 * np.ones_like(r)))
    data = SphericalStaticData(n=3, lam=0.0, A=constant_profile(1.0), V=v,
                               Emag=constant_profile(0.0))
    assert boundary_residual(data, 3.0) == 0.0
    assert scan_photon_spheres(data, lo=3.0, hi=10.0) == [3.0]
    assert scan_photon_spheres(data, lo=1.0, hi=10.0) == [3.0]


def test_scan_without_sign_change_finds_nothing():
    # flat space with V = 1: the residual -2/r never changes sign
    flat = SphericalStaticData(n=3, lam=0.0, A=constant_profile(1.0),
                               V=constant_profile(1.0), Emag=constant_profile(0.0))
    assert scan_photon_spheres(flat) == []


@pytest.mark.parametrize("kwargs, error", [
    pytest.param({"samples": 0}, ParameterError, id="no-samples"),
    pytest.param({"samples": 1}, ParameterError, id="one-sample"),
    pytest.param({"samples": 2.5}, ParameterError, id="fractional-samples"),
    pytest.param({"samples": photon.MAX_GRID_COUNT + 1}, ParameterError, id="samples-above-bound"),
    pytest.param({"lo": 2.0, "hi": 10.0, "samples": 2 ** 62}, ParameterError, id="huge-samples"),
    pytest.param({"hi": np.inf}, DomainError, id="infinite-hi"),
    pytest.param({"hi": np.nan}, DomainError, id="nan-hi"),
])
def test_scan_rejects_bad_input(kwargs, error):
    # Before: IndexError, TypeError, and a RuntimeWarning from np.geomspace;
    # a huge sample count reached np.geomspace, whose ValueError ("array is
    # too big") escaped. Each bad count is rejected before anything is built.
    data = rn_data(RNParameters(3, 1.0, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error):
            scan_photon_spheres(data, **kwargs)


def test_boundary_residual_zero_exactly_at_photon_sphere():
    p = RNParameters(3, 1.0, 0.5)
    data = rn_data(p)
    r_ps = photon_sphere_radii(p).roots[0].r
    assert abs(boundary_residual(data, r_ps)) < 1e-14
    # frozen off-sphere value: Schwarzschild at r = 4
    s = rn_data(RNParameters(3, 1.0, 0.0))
    assert np.isclose(boundary_residual(s, 4.0), -0.125, rtol=1e-14)


def test_quasilocal_identities_at_photon_spheres():
    for p in [RNParameters(3, 1.0, 0.0), RNParameters(3, 1.0, 0.9),
              RNParameters(4, 1.0, 0.5), RNParameters(5, 2.0, 1.4)]:
        data = rn_data(p)
        for root in photon_sphere_radii(p).roots:
            rep = quasilocal_check(data, root.r)
            assert rep.passed, p
            assert rep.q1_residual <= 1e-9
            assert rep.q2_residual <= 1e-9
            assert rep.ric_nn_residual <= 1e-9
            assert rep.extremality == "sub-extremal"


def test_quasilocal_fails_off_the_photon_sphere():
    data = rn_data(RNParameters(3, 1.0, 0.0))
    rep = quasilocal_check(data, 4.0)
    assert not rep.passed
    assert np.isclose(rep.q1_residual, 0.0625, atol=1e-12)
    assert np.isclose(rep.q2_residual, 0.0625, atol=1e-12)


def test_quasilocal_extremality_labels():
    # extremal family: the photon sphere slice sits exactly on the border
    ext = RNParameters(3, 1.0, 1.0)
    rep = quasilocal_check(rn_data(ext), photon_sphere_radii(ext).roots[0].r)
    assert rep.extremality == "extremal"
    sup = RNParameters(3, 1.0, 1.05)
    data = rn_data(sup)
    for root in photon_sphere_radii(sup).roots:
        assert quasilocal_check(data, root.r).extremality == "super-extremal"


def test_scan_respects_domain_edge():
    p = RNParameters(3, 1.0, 1.05)
    data = rn_data(p)
    found = scan_photon_spheres(data)
    assert all(r > rn_r0(p) for r in found)


def test_scan_raises_when_a_bracket_never_closes(monkeypatch):
    # A residual that is NaN between the samples never moves a bracket end.
    data = rn_data(RNParameters(3, 1.0, 0.5))
    real = photon.boundary_residual
    monkeypatch.setattr(photon, "boundary_residual",
                        lambda d, r: real(d, r) if np.size(r) == 64 else np.full(np.shape(r), np.nan))
    with pytest.raises(NumericsError, match="100 refinement steps"):
        scan_photon_spheres(data, samples=64)
