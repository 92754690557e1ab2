import warnings

import numpy as np
import pytest

from electrovac import (
    DomainError,
    NumericsError,
    ParameterError,
    RadialProfile,
    RNParameters,
    constant_profile,
    perturbed_potential_data,
    rn_data,
    tabulated_profile,
)
from electrovac.profiles import MODE_CLOSED_FORM, MODE_FINITE_DIFFERENCE


def test_closed_form_profile_reports_mode_and_values():
    p = RadialProfile(lambda r: (r**2, 2 * r, 2 * np.ones_like(r)))
    assert p.mode == MODE_CLOSED_FORM
    assert p.value(3.0) == 9.0
    assert p(3.0) == 9.0
    assert p.d1(3.0) == 6.0
    assert p.d2(3.0) == 2.0


def test_profile_vectorizes_over_radius_arrays():
    p = RadialProfile(lambda r: (np.sin(r), np.cos(r), -np.sin(r)))
    rs = np.linspace(0.5, 4.0, 17)
    assert np.allclose(p.value(rs), np.sin(rs))
    assert np.allclose(p.d1(rs), np.cos(rs))
    assert p.value(rs).shape == rs.shape


def test_a_jet_only_profile_takes_its_value_from_its_jet():
    # The value is the jet's first part, computed with numpy's warnings off
    # and checked alone: a derivative that overflows (exp(1e3 r) past
    # r = 0.71) neither warns nor raises on a value read, and the jet read
    # raises NumericsError with no RuntimeWarning before it.
    p = RadialProfile(jet=lambda r: (r * r, np.exp(1e3 * r), 2.0 * np.ones_like(r)),
                      domain=(0.0, 2.0))
    assert p.mode == MODE_CLOSED_FORM
    rs = np.array([0.5, 1.0, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(p.value(rs), rs * rs) and p(1.5) == 2.25
        for read in (p.jet, p.d1, p.d2):
            with pytest.raises(NumericsError, match="profile first derivative is non-finite"):
                read(rs)
        assert p.d1(0.5) == np.exp(500.0)
    with pytest.raises(DomainError):
        p.value(2.0)


def test_mode_argument_overrides_the_default_rule():
    def cube_jet(r):
        return r**3, 3 * r**2, 6 * r

    p = RadialProfile(cube_jet, mode=MODE_FINITE_DIFFERENCE)
    assert p.mode == MODE_FINITE_DIFFERENCE
    # the mode only labels the supplied derivatives
    assert p.d1(2.0) == 12.0
    assert p.d2(2.0) == 12.0
    with pytest.raises(ParameterError):
        RadialProfile(cube_jet, mode="spline")


def test_domain_is_open_at_both_ends():
    p = RadialProfile(lambda r: (r, np.ones_like(r), np.zeros_like(r)), domain=(1.0, 2.0))
    with pytest.raises(DomainError):
        p.value(1.0)
    with pytest.raises(DomainError):
        p.value(2.0)
    with pytest.raises(DomainError):
        p.value(np.array([1.5, 2.5]))
    assert p.value(1.5) == 1.5


def test_empty_domain_rejected():
    with pytest.raises(DomainError):
        RadialProfile(lambda r: (r, np.ones_like(r), np.zeros_like(r)), domain=(2.0, 2.0))


def test_non_finite_value_raises():
    p = RadialProfile(lambda r: (np.where(r > 2.0, np.inf, r), np.ones_like(r), np.zeros_like(r)))
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


def spline_cases():
    rs = np.geomspace(0.7, 30.0, 257)
    yield "log r", rs, np.log(rs)
    yield "r**3", rs, rs ** 3
    for n, m, q in ((3, 1.0, 0.5), (5, 2.0, 1.1), (7, 0.8, 0.0)):
        data = rn_data(RNParameters(n, m, q))
        knots = np.geomspace(1.01 * data.domain[0], 40.0, 400)
        for name in ("A", "V", "Emag", "Psi"):
            yield f"rn_data({n}, {m}, {q}).{name}", knots, getattr(data, name)(knots)


@pytest.mark.parametrize("name,radii,values",
                         [pytest.param(*case, id=case[0]) for case in spline_cases()])
def test_a_table_read_at_float_radii_is_its_array_read_bit_for_bit(name, radii, values):
    # Float radii bisect the Python-float pieces; arrays read the arrays built
    # from them. Every knot takes its right piece, and both domain ends are
    # approached to one ulp.
    p = tabulated_profile(radii.tolist(), values.tolist())
    probes = np.concatenate([[np.nextafter(radii[0], np.inf)], radii[1:-1],
                             0.5 * (radii[:-1] + radii[1:]), [np.nextafter(radii[-1], -np.inf)]])
    arrays = p.jet(probes)
    for i, r in enumerate(probes.tolist()):
        got = p.jet(r)
        assert [type(x) for x in got] == [float] * 3, (name, r)
        assert [x.hex() for x in got] == [float(part[i]).hex() for part in arrays], (name, r)


def jet_cases():
    for n, m, q in ((3, 1.0, 0.5), (4, 1.5, -0.9), (5, 2.0, 1.1), (3, 1.0, 1.0), (3, 1.0, 1.3)):
        data = rn_data(RNParameters(n, m, q))
        lo = data.domain[0] if data.domain[0] > 0 else 0.3 * data.r_scale
        for name in ("A", "V", "Emag", "Psi"):
            yield f"rn_data({n}, {m}, {q}).{name}", getattr(data, name), lo
        bumped = perturbed_potential_data(data, 0.01, 2.0 * lo + 1.0, 0.7)
        yield f"perturbed_potential_data({n}, {m}, {q}).V", bumped.V, lo
    yield "constant_profile", constant_profile(-2.5), 0.1
    rs = np.geomspace(1.1, 40.0, 300)
    yield "tabulated_profile", tabulated_profile(rs, np.sin(rs) / rs), 1.1


def bits(x):
    return (np.ndim(x), type(x).__name__, np.asarray(x, dtype=float).tobytes())


@pytest.mark.parametrize("name,prof,lo", [pytest.param(*case, id=case[0]) for case in jet_cases()])
def test_jet_equals_value_d1_d2_bit_for_bit(name, prof, lo):
    rng = np.random.default_rng(len(name))
    radii = [lo * (1.0 + 1e-7), lo * 1.5, lo * 3.7 + 0.25, lo + 19.0]
    arrays = [np.asarray(radii), lo * np.exp(rng.uniform(1e-6, 3.0, 257)), np.array([lo * 2.0])]
    for r in radii + arrays:
        got = prof.jet(r)
        want = (prof.value(r), prof.d1(r), prof.d2(r))
        assert len(got) == 3
        for part, g, w in zip(("value", "d1", "d2"), got, want):
            assert bits(g) == bits(w), (name, part, r)


def outcome(fn):
    try:
        return ("ok", [bits(x) for x in fn()])
    except Exception as exc:  # the comparison is the point
        return (type(exc), str(exc))


def test_jet_raises_what_the_separate_calls_raise():
    def spiky(part):
        # finite except on r > 3, where the named part is infinite
        def f(which):
            return lambda r: np.where((r > 3.0) & (part == which), np.inf, r * r)
        return RadialProfile(lambda r: (f("value")(r), f("d1")(r), f("d2")(r)), domain=(1.0, 5.0))

    data = rn_data(RNParameters(3, 1.0, 0.5))
    rs = np.linspace(2.0, 4.0, 9)
    profiles = [spiky(p) for p in ("value", "d1", "d2")]
    profiles += [data.A, data.V, constant_profile(1.0, domain=(1.0, 5.0)),
                 tabulated_profile(np.linspace(1.0, 5.0, 12), np.linspace(1.0, 5.0, 12) ** 2)]
    seen = set()
    for prof in profiles:
        for r in (rs, 3.5, 0.5, np.array([2.0, 6.0]), 5.0, 1.0):
            want = outcome(lambda: (prof.value(r), prof.d1(r), prof.d2(r)))
            assert outcome(lambda: prof.jet(r)) == want, (prof, r)
            seen.add(want[0] if want[0] == "ok" else want[0].__name__)
            if want[0] == NumericsError:
                seen.add(want[1])
    # every error path was taken
    assert {"ok", "DomainError", "NumericsError"} <= seen
    assert {f"profile {what} is non-finite inside the domain"
            for what in ("value", "first derivative", "second derivative")} <= seen
