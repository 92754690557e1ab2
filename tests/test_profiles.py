import numpy as np
import pytest

from electrovac import DomainError, NumericsError, ParameterError, RadialProfile, constant_profile, tabulated_profile
from electrovac.profiles import MODE_CLOSED_FORM, MODE_FINITE_DIFFERENCE


def test_closed_form_profile_reports_mode_and_values():
    p = RadialProfile(lambda r: r**2, d1=lambda r: 2 * r, d2=lambda r: 2 * np.ones_like(r))
    assert p.mode == MODE_CLOSED_FORM
    assert p.value(3.0) == 9.0
    assert p(3.0) == 9.0
    assert p.d1(3.0) == 6.0
    assert p.d2(3.0) == 2.0


def test_profile_vectorizes_over_radius_arrays():
    p = RadialProfile(lambda r: np.sin(r), d1=np.cos, d2=lambda r: -np.sin(r))
    rs = np.linspace(0.5, 4.0, 17)
    assert np.allclose(p.value(rs), np.sin(rs))
    assert np.allclose(p.d1(rs), np.cos(rs))
    assert p.value(rs).shape == rs.shape


def test_finite_difference_fallback_accuracy():
    p = RadialProfile(lambda r: np.exp(0.5 * r))
    assert p.mode == MODE_FINITE_DIFFERENCE
    rs = np.linspace(1.0, 8.0, 25)
    d1_true = 0.5 * np.exp(0.5 * rs)
    d2_true = 0.25 * np.exp(0.5 * rs)
    assert np.allclose(p.d1(rs), d1_true, rtol=1e-8, atol=1e-10)
    assert np.allclose(p.d2(rs), d2_true, rtol=1e-5, atol=1e-7)


def test_supplying_only_d1_still_finite_difference_mode():
    p = RadialProfile(lambda r: r**3, d1=lambda r: 3 * r**2)
    assert p.mode == MODE_FINITE_DIFFERENCE


def test_mode_argument_overrides_the_default_rule():
    p = RadialProfile(lambda r: r**3, d1=lambda r: 3 * r**2, d2=lambda r: 6 * r,
                      mode=MODE_FINITE_DIFFERENCE)
    assert p.mode == MODE_FINITE_DIFFERENCE
    # the supplied derivatives are still used, not a difference stencil
    assert p.d1(2.0) == 12.0
    assert p.d2(2.0) == 12.0
    with pytest.raises(ParameterError):
        RadialProfile(lambda r: r**3, d1=lambda r: 3 * r**2, d2=lambda r: 6 * r, mode="spline")
    # closed-form mode without both derivatives would claim the tight tolerance
    with pytest.raises(ParameterError):
        RadialProfile(lambda r: r**3, d1=lambda r: 3 * r**2, mode=MODE_CLOSED_FORM)


def test_domain_is_open_at_both_ends():
    p = RadialProfile(lambda r: r, d1=lambda r: np.ones_like(r), d2=lambda r: np.zeros_like(r),
                      domain=(1.0, 2.0))
    with pytest.raises(DomainError):
        p.value(1.0)
    with pytest.raises(DomainError):
        p.value(2.0)
    with pytest.raises(DomainError):
        p.value(np.array([1.5, 2.5]))
    assert p.value(1.5) == 1.5


def test_empty_domain_rejected():
    with pytest.raises(DomainError):
        RadialProfile(lambda r: r, domain=(2.0, 2.0))


def test_fd_stencil_shrinks_near_domain_edge():
    p = RadialProfile(lambda r: r**2, domain=(1.0, 3.0))
    # close to the edge, but the shrunken stencil must stay inside
    assert np.isclose(p.d1(1.0 + 1e-4), 2.0 * (1.0 + 1e-4), rtol=1e-5)


def test_non_finite_value_raises():
    p = RadialProfile(lambda r: np.where(r > 2.0, np.inf, r))
    with pytest.raises(NumericsError):
        p.value(3.0)


def test_constant_profile():
    p = constant_profile(4.5)
    rs = np.geomspace(0.1, 100.0, 9)
    assert np.all(p.value(rs) == 4.5)
    assert np.all(p.d1(rs) == 0.0)
    assert np.all(p.d2(rs) == 0.0)
    assert p.mode == MODE_CLOSED_FORM


def test_tabulated_profile_tracks_smooth_function():
    rs = np.linspace(1.0, 5.0, 400)
    p = tabulated_profile(rs, np.log(rs))
    assert p.mode == MODE_FINITE_DIFFERENCE
    probe = np.linspace(1.2, 4.8, 31)
    assert np.allclose(p.value(probe), np.log(probe), atol=1e-10)
    assert np.allclose(p.d1(probe), 1.0 / probe, atol=1e-7)
    assert np.allclose(p.d2(probe), -1.0 / probe**2, atol=1e-4)


def test_tabulated_profile_domain_matches_table():
    rs = np.linspace(2.0, 3.0, 10)
    p = tabulated_profile(rs, rs**2)
    assert p.domain == (2.0, 3.0)
    with pytest.raises(DomainError):
        p.value(2.0)


def test_tabulated_profile_input_validation():
    with pytest.raises(DomainError):
        tabulated_profile([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        tabulated_profile([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(NumericsError):
        tabulated_profile([1.0, 2.0, 3.0, 4.0], [1.0, np.nan, 3.0, 4.0])


def draw_table(rng, rows, scale):
    """Non-uniform, strictly increasing radii at the given scale, and a wiggly column."""
    radii = scale * (1.0 + np.cumsum(rng.uniform(0.05, 1.0, rows)) / rows * rng.uniform(1.0, 20.0))
    values = rng.uniform(-5.0, 5.0) * np.sin(3.0 * radii / radii[-1]) + rng.normal(0.0, 0.1, rows)
    return radii, values


def probes(rng, radii):
    """Random radii inside the open table interval plus every interior knot."""
    inner = rng.uniform(radii[0], radii[-1], 400)
    inner = inner[(inner > radii[0]) & (inner < radii[-1])]
    return np.concatenate([inner, radii[1:-1]])


def test_tabulated_profile_matches_scipy_cubic_spline():
    # scipy is the oracle only here; the library builds the spline with numpy
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(5)
    for rows in (4, 5, 6, 7, 13, 50, 400, 1200, 2400, 3000):
        for scale in (1e-3, 1.0, 1e3):
            radii, values = draw_table(rng, rows, scale)
            p, want = tabulated_profile(radii, values), CubicSpline(radii, values)
            r = probes(rng, radii)
            for got, ref, rel in ((p.value(r), want(r), 1e-13),
                                  (p.d1(r), want(r, 1), 1e-12),
                                  (p.d2(r), want(r, 2), 1e-10)):
                assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref)), (rows, scale)


def test_tabulated_profile_reproduces_any_cubic():
    # Not-a-knot ends impose no condition a cubic violates, so the spline is the
    # cubic; with 4 rows it is a single cubic piece. Round-off in d2 grows like
    # eps * rows**2, so the exact check uses coarse tables; the scipy oracle
    # above covers long ones.
    rng = np.random.default_rng(9)
    for rows in (4, 5, 6):
        for scale in (1e-3, 1.0, 1e3):
            radii, _ = draw_table(rng, rows, scale)
            lo, width = radii[0], radii[-1] - radii[0]
            c = rng.normal(size=4)  # a cubic in u = (r - lo) / width, balanced on the table

            def cubic(r, order=0):
                return np.polyval(np.polyder(c, order), (r - lo) / width) / width**order

            p = tabulated_profile(radii, cubic(radii))
            r = probes(rng, radii)
            for order, f in enumerate((p.value, p.d1, p.d2)):
                want = cubic(r, order)
                assert np.max(np.abs(f(r) - want)) <= 1e-12 * np.max(np.abs(want)), (rows, order)


def test_tabulated_profile_knot_is_the_same_from_either_interval():
    rng = np.random.default_rng(3)
    radii, values = draw_table(rng, 40, 1.0)
    p = tabulated_profile(radii, values)
    knots = radii[1:-1]
    # on a knot the right-hand piece gives the sample itself
    assert np.array_equal(p.value(knots), values[1:-1])
    # one ulp to the left is evaluated on the left-hand piece, at its far end
    left = np.nextafter(knots, -np.inf)
    for f in (p.value, p.d1, p.d2):
        ref = f(knots)
        assert np.max(np.abs(f(left) - ref)) <= 1e-12 * np.max(np.abs(ref))
