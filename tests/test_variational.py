import math

import numpy as np
import pytest

from electrovac import (
    DomainError,
    NumericsError,
    ParameterError,
    Perturbation,
    QuadratureConfig,
    RadialProfile,
    RNParameters,
    SphericalStaticData,
    constant_profile,
    criticality_test,
    euler_lagrange_integral,
    evaluate_functional,
    flat_data,
    horizon_gradient_limit,
    perturbed_potential_data,
    photon_sphere_radii,
    pohozaev_residual,
    rn_data,
    rn_horizon,
    sphere_area,
    surface_gravity,
    tabulated_profile,
)
from electrovac.geometry import warped_scalar
from electrovac.variational import (
    EPSILONS,
    MAX_NODES,
    MAX_PANEL_NODES,
    _break_segments,
    _el_integrand,
    _functional_boundary,
    _functional_integrand,
    _gauss_legendre,
    _norm_density,
    _pohozaev_boundary,
    _pohozaev_integrands,
    _require_annulus,
    _rule_integrals,
    _rule_nodes,
    _rule_sums,
)

from counting import PROFILES, counting_data, counting_joint_data

ANNULUS = (3.0, 6.0)
PERT = Perturbation(center=4.5, halfwidth=1.0, mode="both")


def test_sphere_area_values():
    assert np.isclose(sphere_area(3), 4.0 * math.pi, rtol=1e-15)
    assert np.isclose(sphere_area(4), 2.0 * math.pi**2, rtol=1e-15)


def test_quadrature_exact_on_inverse_square():
    quad = QuadratureConfig()
    [[val]] = _rule_integrals(lambda r: 1.0 / r**2, quad, (((1.0, 2.0, quad.panels),),))
    assert np.isclose(val, 0.5, rtol=1e-13)


def test_gauss_legendre_rule_is_cached_read_only_and_unchanged():
    x, w = _gauss_legendre(12)
    assert _gauss_legendre(12)[0] is x and _gauss_legendre(12)[1] is w
    ref_x, ref_w = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # The composite rule is built from the cached one bit for bit, and is
    # cached read-only itself.
    xs, [[(_, ws)]] = _rule_nodes(QuadratureConfig(nodes=12), (((1.0, 2.5, 3),),))
    edges = np.linspace(1.0, 2.5, 4)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    assert np.array_equal(xs, (mids[:, None] + half[:, None] * ref_x[None, :]).ravel())
    assert np.array_equal(ws, (half[:, None] * ref_w[None, :]).ravel())
    assert not xs.flags.writeable and not ws.flags.writeable


def linspace_rule(nodes, lo, hi, panels):
    # The composite rule on one segment, its panel edges from np.linspace.
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mids[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()


def test_node_array_equals_the_linspace_rule_bit_for_bit():
    # Every segment of every rule is built in one pass; each must equal the
    # rule np.linspace gives that segment alone, over 600 decades of scale.
    # A segment whose step underflows to 0 takes linspace's own branch,
    # which gives other edges than k * step + lo there.
    subnormal = [(0.0, 5e-324, 3), (1e-310, 1e-310 + 1e-323, 5)]
    for lo, hi, p in subnormal:
        step = (hi - lo) / p
        assert step == 0.0
        assert not np.array_equal(np.linspace(lo, hi, p + 1), np.append(np.arange(p) * step + lo, hi))
    rng = np.random.default_rng(12)
    for draw in range(60):
        quad = QuadratureConfig(nodes=int(rng.integers(2, 21)))
        scale = 10.0 ** rng.uniform(-300.0, 300.0)
        rules = []
        for _ in range(int(rng.integers(1, 4))):
            breaks = np.sort(scale * rng.uniform(1.0, 4.0, int(rng.integers(2, 6)))).tolist()
            rules.append([(a, b, int(rng.integers(1, 65))) for a, b in zip(breaks[:-1], breaks[1:])])
        if draw % 6 == 0:
            rules[-1].append(subnormal[draw % 2])
        xs, got = _rule_nodes(quad, tuple(map(tuple, rules)))
        want = [[linspace_rule(quad.nodes, *seg) for seg in rule] for rule in rules]
        assert np.array_equal(xs, np.concatenate([x for rule in want for x, _ in rule])), draw
        for rule_got, rule_want in zip(got, want):
            for (seg, ws), (x_ref, w_ref) in zip(rule_got, rule_want, strict=True):
                assert np.array_equal(xs[seg], x_ref) and np.array_equal(ws, w_ref), draw
        for lo, hi, p in (seg for rule in rules for seg in rule):
            one_x, [[(_, one_w)]] = _rule_nodes(quad, (((lo, hi, p),),))
            x_ref, w_ref = linspace_rule(quad.nodes, lo, hi, p)
            assert np.array_equal(one_x, x_ref) and np.array_equal(one_w, w_ref), draw


def test_batched_sums_are_one_dot_per_row():
    # A batch of integrands is summed row by row and segment by segment with
    # one dot each, the sum a one-segment rule gives, not as one matrix-vector
    # product, whose rounding differs, and the segments' sums are added in order.
    rng = np.random.default_rng(4)
    quad = QuadratureConfig()
    for panels in (2, 9, 16, 32):
        rule = ((1.0, 1.5, panels), (1.5, 4.0, 2 * panels), (4.0, 4.25, 3))
        xs, (segments,) = _rule_nodes(quad, (rule,))
        rows = rng.normal(size=(8, xs.size)) * np.exp(rng.uniform(-5.0, 5.0, (8, 1)))
        sums = _rule_sums(rows, segments)
        want = [0.0] * len(rows)
        for (lo, hi, p), (seg, ws) in zip(rule, segments):
            x_ref, w_ref = linspace_rule(quad.nodes, lo, hi, p)
            assert np.array_equal(xs[seg], x_ref) and np.array_equal(ws, w_ref)
            want = [w + float(np.dot(ws, row[seg].copy())) for w, row in zip(want, rows)]
        assert [float(x) for x in sums] == want
        # A one-row batch sums as that row does in the full batch.
        assert [float(x) for x in _rule_sums(rows[5:6], segments)] == want[5:6]
        xs, ws = linspace_rule(quad.nodes, 1.0, 4.0, panels)
        row = rows[3, :xs.size]
        [[one]] = _rule_integrals(lambda r: row, quad, (((1.0, 4.0, panels),),))
        assert one == float(np.dot(ws, row))


def test_flat_annulus_functional_value():
    # flat data: the bulk vanishes and the boundary term gives 16 pi (r2 - r1)
    flat = flat_data(3)
    assert np.isclose(evaluate_functional(flat, (1.0, 2.0)), 16.0 * math.pi, rtol=1e-14)
    assert np.isclose(evaluate_functional(flat, (2.0, 5.0)), 48.0 * math.pi, rtol=1e-14)


def test_zero_amplitude_perturbation_reproduces_base_value():
    # exercises the perturbed curvature path against the closed-form one
    data = rn_data(RNParameters(3, 1.0, 0.5))
    base = evaluate_functional(data, ANNULUS)
    same = evaluate_functional(data, ANNULUS, Perturbation(4.5, 1.0, amplitude=0.0))
    assert np.isclose(same, base, rtol=1e-12)


def test_functional_is_critical_at_the_charged_family():
    for p in [RNParameters(3, 1.0, 0.5), RNParameters(4, 1.0, 0.3)]:
        data = rn_data(p)
        crit = criticality_test(data, ANNULUS, PERT)
        assert crit.slope_ok, crit
        assert 1.8 <= crit.slope <= 2.2
        assert abs(crit.refined) <= crit.tol
        assert crit.passed


def test_criticality_holds_per_mode():
    data = rn_data(RNParameters(3, 1.0, 0.5))
    for mode in ("radial", "tangential"):
        crit = criticality_test(data, ANNULUS, Perturbation(4.5, 1.0, mode=mode))
        assert crit.passed, mode


def test_euler_lagrange_integral_vanishes_on_solutions():
    data = rn_data(RNParameters(3, 1.0, 0.5))
    assert abs(euler_lagrange_integral(data, ANNULUS, PERT)) < 1e-12


def test_first_variation_matches_difference_quotient_off_solution():
    # break the potential so the gradient is nonzero, then compare the
    # analytic inner product against the numerical derivative
    base = rn_data(RNParameters(3, 1.0, 0.5))
    bad = perturbed_potential_data(base, 0.01, 5.0, 1.0)
    for mode in ("both", "radial", "tangential"):
        pert = Perturbation(4.5, 1.0, mode=mode)
        el = euler_lagrange_integral(bad, ANNULUS, pert)
        fd = criticality_test(bad, ANNULUS, pert).refined
        assert abs(el) > 0.1  # genuinely off-critical
        assert np.isclose(el, fd, rtol=1e-6), mode


def test_pohozaev_identity_on_annuli():
    cases = [
        (RNParameters(3, 1.0, 0.0), (3.0, 6.0)),
        (RNParameters(3, 1.0, 0.5), (3.0, 6.0)),
        (RNParameters(3, 1.0, 0.999), (2.5, 7.0)),
        (RNParameters(3, 1.0, 1.2), (1.0, 5.0)),
        (RNParameters(4, 1.0, 0.0), (1.5, 4.0)),
        (RNParameters(4, 1.0, 0.5), (1.6, 3.0)),
    ]
    for p, ann in cases:
        assert pohozaev_residual(rn_data(p), ann) <= 1e-7, p


def test_surface_gravity_frozen_and_limit():
    assert surface_gravity(RNParameters(3, 1.0, 0.0)) == 0.25
    assert surface_gravity(RNParameters(3, 1.0, 1.0)) == 0.0
    p = RNParameters(3, 1.0, 0.5)
    assert np.isclose(surface_gravity(p),
                      horizon_gradient_limit(rn_data(p), rn_horizon(p)), rtol=1e-10)
    with pytest.raises(DomainError):
        surface_gravity(RNParameters(3, 1.0, 1.5))


def test_perturbation_validation():
    with pytest.raises(ParameterError):
        Perturbation(4.5, -1.0)
    with pytest.raises(ParameterError):
        Perturbation(4.5, 1.0, mode="angular")
    with pytest.raises(ParameterError):
        Perturbation(4.5, 1.0, amplitude=0.9)


def test_perturbation_bump_smoothness_at_support_edge():
    pert = Perturbation(4.5, 1.0)
    eps = 1e-8
    for r in (3.5, 5.5):
        assert pert.bump(r) == 0.0
        assert abs(pert.bump(r + eps) - pert.bump(r - eps)) < 1e-15
        _, b1, b2 = pert.bump_jet(r + eps)
        assert abs(b1) < 1e-14
        assert abs(b2) < 1e-6


def test_support_must_sit_inside_annulus():
    # The perturbation norm used to integrate the part of a bump past the
    # annulus: for the support [5, 7] on (3, 6) it gave the value it gives on (3, 8).
    data = rn_data(RNParameters(3, 1.0, 0.5))
    for pert in (Perturbation(5.8, 1.0), Perturbation(3.0, 0.5), Perturbation(6.0, 1.0)):
        for call in (evaluate_functional, criticality_test, euler_lagrange_integral):
            with pytest.raises(DomainError, match="must lie in the open annulus"):
                call(data, ANNULUS, pert)
    assert criticality_test(data, (3.0, 8.0), Perturbation(6.0, 1.0)).pert_norm > 0


def test_annulus_must_sit_inside_data_domain():
    data = rn_data(RNParameters(3, 1.0, 0.5))  # domain starts at the horizon
    with pytest.raises(DomainError):
        evaluate_functional(data, (1.0, 6.0))
    with pytest.raises(DomainError):
        evaluate_functional(data, (6.0, 3.0))


def test_v_zeros_on_quadrature_nodes_change_no_value():
    # Only the annulus endpoints meet the V-zero check: a V-zero on a node of
    # the plain rule or of the bump-split rule changes no entry point's value.
    data = rn_data(RNParameters(3, 1.0, 0.5))
    quad = QuadratureConfig()
    r1, r2 = ANNULUS
    plain = _rule_nodes(quad, (_break_segments([r1, r2], quad.panels),))[0]
    split = _rule_nodes(quad, (_break_segments([r1, *PERT.support(), r2], quad.panels),))[0]
    z_plain, z_split = plain[plain.size // 3], split[split.size // 2]
    assert z_plain not in split and z_split not in plain
    marked = data.replace(v_zeros=data.v_zeros + (z_plain, z_split))
    calls = [lambda d: evaluate_functional(d, ANNULUS, quad=quad),
             lambda d: pohozaev_residual(d, ANNULUS, quad),
             lambda d: euler_lagrange_integral(d, ANNULUS, PERT, quad),
             lambda d: criticality_test(d, ANNULUS, PERT, quad)]
    for call in calls:
        assert call(marked) == call(data)


def test_perturbation_norm_positive_and_mode_monotone():
    data = rn_data(RNParameters(3, 1.0, 0.5))
    n_rad, n_tan, n_both = (criticality_test(data, ANNULUS, pert).pert_norm for pert in (
        Perturbation(4.5, 1.0, mode="radial"), Perturbation(4.5, 1.0, mode="tangential"), PERT))
    assert n_rad > 0 and n_tan > 0
    assert np.isclose(n_both, math.hypot(n_rad, n_tan), rtol=1e-12)


def drawn_variational_cases(count, seed):
    # (n, m, q) over all three regimes and an annulus clear of the domain edge,
    # drawn as the variational benchmark draws them, cycling the bump modes
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(3, 6))
        m = float(rng.uniform(0.3, 3.0))
        q = m * float(rng.uniform(-1.8, 1.8))
        p = RNParameters(n, m, q)
        base = max(rn_horizon(p) or 0.0, max(m, abs(q)) ** (1.0 / (n - 2)))
        r1 = base * float(rng.uniform(1.3, 2.0))
        r2 = r1 * float(rng.uniform(1.5, 3.0))
        mode = ("radial", "tangential", "both")[i % 3]
        yield p, (r1, r2), Perturbation(0.5 * (r1 + r2), 0.25 * (r2 - r1), mode=mode)


def test_criticality_derivatives_equal_the_per_amplitude_definition():
    # The ladder shares base fields across amplitudes; each derivative must
    # still be the central difference of two separate functional values.
    for p, ann, pert in drawn_variational_cases(12, seed=6):
        for data in (rn_data(p), perturbed_potential_data(rn_data(p), 0.01, pert.center, pert.halfwidth)):
            crit = criticality_test(data, ann, pert)
            for eps, got in zip(crit.epsilons, crit.derivatives):
                fp = evaluate_functional(data, ann, Perturbation(pert.center, pert.halfwidth, pert.mode, +eps))
                fm = evaluate_functional(data, ann, Perturbation(pert.center, pert.halfwidth, pert.mode, -eps))
                assert got == (fp - fm) / (2.0 * eps), (p, ann, pert.mode, eps)


def ladder_rows_reference(data, pert, amplitudes, r):
    """_functional_integrand(data, pert, amplitudes, r, norm=True) as one
    expression on every node for every amplitude."""
    n = data.n
    (a0, ap0, _), (v, _, _), (e, _, _) = data.jets(r, 3)
    sa0 = np.sqrt(a0)
    e2 = e ** 2
    eps = np.asarray(amplitudes, dtype=float)[:, None]
    b, b1, b2 = pert.bump_jet(r)
    ba, ba1 = pert.radial_on * b, pert.radial_on * b1
    bc, bc1, bc2 = pert.tangential_on * b, pert.tangential_on * b1, pert.tangential_on * b2
    pa = 1.0 + eps * ba
    A = a0 * pa
    Ap = ap0 * pa + a0 * eps * ba1
    s = np.sqrt(1.0 + eps * bc)
    sp = eps * bc1 / (2.0 * s)
    spp = eps * bc2 / (2.0 * s) - (eps * bc1) ** 2 / (4.0 * s ** 3)
    C = r * s
    Cp = s + r * sp
    Cpp = 2.0 * sp + r * spp
    R = warped_scalar(n, A, Ap, C, Cp, Cpp)
    e2p = e2 * pa
    bulk = (v * (R - 6.0 * e2p) * sa0 * r ** (n - 1)
            + 4.0 * v * e2p * np.sqrt(A) * C ** (n - 1))
    return np.vstack([bulk, _norm_density(n, pert, b, sa0, r)])


def ladder_nodes(annulus, pert, quad):
    """The node array of criticality_test's coarse and doubled rules."""
    breaks = [*annulus, *pert.support()]
    return _rule_nodes(quad, tuple(_break_segments(breaks, k) for k in (quad.panels, 2 * quad.panels)))[0]


LADDER_AMPLITUDES = [a for eps in EPSILONS for a in (+eps, -eps)]


def signed_zero_data(n):
    """Flat data whose A' is -0.0 and whose V is -1: the signs of the zeros
    that carry eps outside the support meet those of the base fields."""
    return SphericalStaticData(
        n=n, lam=0.0, A=RadialProfile(jet=lambda r: (1.0 + 0.0 * r, -0.0 * r, 0.0 * r)),
        V=constant_profile(-1.0), Emag=constant_profile(0.0), Psi=constant_profile(0.0))


def test_ladder_rows_equal_the_all_nodes_expression():
    # Rows past the first are evaluated only where the bump's jet is nonzero;
    # every row must still equal the expression evaluated on every node.
    rng = np.random.default_rng(22)
    for i in range(30):
        n = 3 + i % 5
        m = float(rng.uniform(0.3, 3.0))
        p = RNParameters(n, m, m * float(rng.uniform(-1.8, 1.8)))
        base = max(rn_horizon(p) or 0.0, max(p.m, abs(p.q)) ** (1.0 / (n - 2)))
        r1 = base * float(rng.uniform(1.3, 2.0))
        r2 = r1 * float(rng.uniform(1.5, 3.0))
        width = r2 - r1
        kind = ("narrow", "off-centre", "near-full")[(i // 5) % 3]
        if kind == "narrow":
            halfwidth = 1e-3 * width
            center = r1 + float(rng.uniform(0.1, 0.9)) * width
        elif kind == "off-centre":
            halfwidth = float(rng.uniform(0.05, 0.2)) * width
            center = r1 + halfwidth + float(rng.uniform(0.01, 0.3)) * width
        else:
            halfwidth, center = 0.499 * width, 0.5 * (r1 + r2)
        pert = Perturbation(center, halfwidth, mode=("radial", "tangential", "both")[i % 3])
        quad = QuadratureConfig(panels=64) if i % 2 else QuadratureConfig()
        r = ladder_nodes((r1, r2), pert, quad)
        lo, hi = pert.support()
        assert ((r <= lo) | (r >= hi)).any() and ((lo < r) & (r < hi)).any()
        for data in (rn_data(p), perturbed_potential_data(rn_data(p), 0.01, center, halfwidth),
                     flat_data(n), signed_zero_data(n)):
            with np.errstate(all="ignore"):
                got = _functional_integrand(data, pert, LADDER_AMPLITUDES, r, norm=True)
                want = ladder_rows_reference(data, pert, LADDER_AMPLITUDES, r)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (p, kind, pert, quad)


def test_an_overflow_outside_the_support_raises_the_integrand_error():
    # |E|^2 overflows past r = 5.5, outside the bump's support [4, 5]: the
    # rows there come from the first amplitude's evaluation and still hold
    # the non-finite values the ladder reports.
    step = RadialProfile(jet=lambda r: (np.where(r > 5.5, 1e200, 0.0), 0.0 * r, 0.0 * r))
    data = SphericalStaticData(n=3, lam=0.0, A=constant_profile(1.0), V=constant_profile(1.0),
                               Emag=step, Psi=constant_profile(0.0))
    pert = Perturbation(center=4.5, halfwidth=0.5)
    r = ladder_nodes(ANNULUS, pert, QuadratureConfig())
    with np.errstate(all="ignore"):
        got = _functional_integrand(data, pert, LADDER_AMPLITUDES, r, norm=True)
        want = ladder_rows_reference(data, pert, LADDER_AMPLITUDES, r)
    assert got.tobytes() == want.tobytes()
    assert not np.isfinite(got[:-1, r > 5.5]).any() and np.isfinite(got[:, r < 5.5]).all()
    with pytest.raises(NumericsError, match="non-finite integrand"):
        criticality_test(data, ANNULUS, pert)


def test_criticality_ladder_raises_the_per_amplitude_convergence_error():
    # A rule too coarse for the bump: the ladder fails on its first amplitude,
    # with the error that amplitude's functional raises alone.
    data = rn_data(RNParameters(3, 1.0, 0.5))
    quad = QuadratureConfig(panels=3, nodes=4, tol=1e-12)
    with pytest.raises(NumericsError) as alone:
        evaluate_functional(data, ANNULUS, Perturbation(PERT.center, PERT.halfwidth, PERT.mode,
                                                        EPSILONS[0]), quad)
    with pytest.raises(NumericsError) as ladder:
        criticality_test(data, ANNULUS, PERT, quad)
    assert str(ladder.value) == str(alone.value)
    assert "panel doubling moved the value" in str(ladder.value)


def test_only_the_criticality_test_reads_the_norm_density():
    # At n = 4 near r = 4.55e102 the norm density (a^2 + 3c^2) sqrt(A) r^3
    # overflows while F's bulk integrand, of order r, does not. The ladder
    # checks the density with its amplitudes' rows, so before their
    # panel-doubling check, which the coarse rule fails.
    data = rn_data(RNParameters(4, 1.0, 0.5))
    annulus = (3.6e102, 5.5e102)
    pert = Perturbation(center=4.55e102, halfwidth=5e101, mode="both")
    coarse = QuadratureConfig(panels=2, nodes=2, tol=1e-14)
    assert math.isfinite(evaluate_functional(data, annulus, pert))
    with pytest.raises(NumericsError, match="panel doubling moved the value"):
        evaluate_functional(data, annulus, pert, coarse)
    for quad in (QuadratureConfig(), coarse):
        with pytest.raises(NumericsError, match="non-finite integrand"):
            criticality_test(data, annulus, pert, quad)


def test_an_overflowing_quadrature_sum_is_a_numerics_error():
    # The norm density is finite near r = 4e93 at n = 4, but its sum over the
    # rule overflows: the norm came out inf, and criticality_test a pass with
    # an infinite tolerance.
    data = rn_data(RNParameters(4, 1.0, 0.5))
    annulus = (1.2e93, 7e93)
    pert = Perturbation(center=4.1e93, halfwidth=1.45e93, mode="both")
    assert math.isfinite(evaluate_functional(data, annulus, pert))
    with pytest.raises(NumericsError, match="non-finite integral"):
        criticality_test(data, annulus, pert)


def test_tiny_scale_integrands_raise_without_warnings():
    # The identity's integrands overflow in numpy multiplies at this scale;
    # the error is the integrand check's, with no RuntimeWarning before it.
    data = rn_data(RNParameters(3, 1e-150, 1e-100))
    with pytest.raises(NumericsError, match="non-finite integrand"):
        pohozaev_residual(data, (1e-100, 2e-100))


def test_an_annulus_too_wide_for_the_quadrature_is_a_numerics_error():
    # A piece wider than about 5.6e306 overflowed its panel share: an
    # OverflowError from math.ceil. The identity's rule has no shares, but
    # its nodes overflowed with a RuntimeWarning and then failed the domain
    # check as radius inf. RuntimeWarnings are errors here.
    data = rn_data(RNParameters(3, 1.0, 0.5))
    pert = Perturbation(center=5.0, halfwidth=1.0)
    annulus = (2.0, 1e307)
    for call in (lambda: evaluate_functional(data, annulus),
                 lambda: evaluate_functional(data, annulus, pert),
                 lambda: criticality_test(data, annulus, pert),
                 lambda: euler_lagrange_integral(data, annulus, pert)):
        with pytest.raises(NumericsError, match=r"annulus \[2.0, 1e\+307\] too wide for the quadrature"):
            call()
    with pytest.raises(NumericsError, match="a node overflows"):
        pohozaev_residual(data, (2.0, 1.7e308))
    with pytest.raises(NumericsError, match="non-finite integrand"):
        pohozaev_residual(data, (2.0, 5e306))
    # Up to the overflow the share sets the panel counts as before.
    assert _break_segments([2.0, 4.0, 6.0, 1e306], 16) == ((2.0, 4.0, 2), (4.0, 6.0, 2), (6.0, 1e306, 16))


def test_criticality_evaluates_base_fields_once_per_node_set():
    # Each call builds one node array holding every segment (annulus edges
    # and bump support) of the coarse and the doubled rule, and reads each
    # profile it needs exactly once on that array; criticality_test takes its
    # perturbation norm from the same evaluation. The boundary terms read the
    # jets of A and V once more at each edge, as floats, r1 first.
    quad = QuadratureConfig()
    panels = (quad.panels, 2 * quad.panels)
    bumped = [_break_segments([*ANNULUS, *PERT.support()], k) for k in panels]
    plain = [_break_segments(ANNULUS, k) for k in panels]
    whole = [[(*ANNULUS, k)] for k in panels]
    edges = [("jet", r) for r in ANNULUS]
    functional = {"A": (["jet"], edges), "V": (["jet"], edges), "Emag": (["jet"], [])}
    calls = [
        ("functional", lambda d: evaluate_functional(d, ANNULUS), plain, functional),
        ("bumped functional", lambda d: evaluate_functional(d, ANNULUS, PERT), bumped, functional),
        ("criticality", lambda d: criticality_test(d, ANNULUS, PERT).passed, bumped, functional),
        ("first variation", lambda d: euler_lagrange_integral(d, ANNULUS, PERT), bumped,
         {"A": (["jet"], []), "V": (["jet"], []), "Emag": (["jet"], [])}),
        ("identity", lambda d: pohozaev_residual(d, ANNULUS), whole,
         {"A": (["jet"], edges), "V": (["jet"], edges)}),
    ]
    for name, call, rules, reads in calls:
        data, counts = counting_data(rn_data(RNParameters(3, 1.0, 0.5)))
        assert call(data), name
        nodes = np.concatenate([linspace_rule(quad.nodes, lo, hi, k)[0]
                                for rule in rules for lo, hi, k in rule])
        for profile in counts:
            prof = getattr(data, profile)
            arrays, scalars = reads.get(profile, ([], []))
            assert [entry for entry, _ in prof.calls] == arrays, (name, profile)
            for _, radii in prof.calls:
                assert np.array_equal(radii, nodes), (name, profile)
            assert prof.scalar_calls == scalars, (name, profile)
            assert all(type(r) is float for _, r in prof.scalar_calls), (name, profile)


def test_library_calls_on_rn_data_run_the_joint_once_per_radius_array():
    # On rn_data every field these calls read comes from data.jets: one
    # joint pass per radius array they read, and per float radius, in order,
    # and no direct read of any profile. grad_norm differentiates a profile
    # of other data.
    from electrovac import default_grid, grad_norm, level_set_geometry, verify_all

    p = RNParameters(3, 1.0, 0.5)
    r_boundary = photon_sphere_radii(p).roots[0].r
    grid = default_grid(rn_data(p))
    quad = QuadratureConfig()
    panels = (quad.panels, 2 * quad.panels)

    def nodes(*rules):
        return _rule_nodes(quad, rules)[0]

    plain = nodes(*(_break_segments(ANNULUS, k) for k in panels))
    bumped = nodes(*(_break_segments([*ANNULUS, *PERT.support()], k) for k in panels))
    whole = nodes(*(((*ANNULUS, k),) for k in panels))
    r1, r2 = ANNULUS
    rs = np.linspace(3.0, 6.0, 50)
    other = rn_data(RNParameters(4, 1.0, 0.2)).V
    calls = [
        ("verify_all", lambda d: verify_all(d, grid, r_boundary=r_boundary),
         [r_boundary, grid.radii()]),
        ("functional", lambda d: evaluate_functional(d, ANNULUS), [plain, r1, r2]),
        ("criticality", lambda d: criticality_test(d, ANNULUS, PERT), [bumped, r1, r2]),
        ("first variation", lambda d: euler_lagrange_integral(d, ANNULUS, PERT), [bumped]),
        ("identity", lambda d: pohozaev_residual(d, ANNULUS), [whole, r1, r2]),
        ("sphere geometry", lambda d: level_set_geometry(d, rs), [rs]),
        ("gradient norm", lambda d: grad_norm(d, other, rs), [rs]),
    ]
    for name, call, want in calls:
        data, counts, radii = counting_joint_data(rn_data(p))
        call(data)
        assert len(radii) == len(want), name
        for got, expected in zip(radii, want):
            assert got.shape == np.shape(expected) and np.array_equal(got, expected), name
        assert counts == {profile: {} for profile in PROFILES}, name


def set_calls(annulus, pert):
    # The four calls of one variational set, by name.
    return {
        "functional": lambda d: evaluate_functional(d, annulus),
        "identity": lambda d: pohozaev_residual(d, annulus),
        "criticality": lambda d: criticality_test(d, annulus, pert),
        "first variation": lambda d: euler_lagrange_integral(d, annulus, pert),
    }


@pytest.mark.parametrize("order, passes", [
    (("functional", "identity", "criticality", "first variation"), ("plain", "r1", "r2", "bumped")),
    (("criticality", "first variation", "functional", "identity"), ("bumped", "r1", "r2", "plain")),
])
def test_one_set_reads_each_radius_array_once_across_its_calls(order, passes):
    # The calls of one set on one data object share the node array of each
    # rule (the plain functional's rules equal the identity's) and the
    # annulus edges, and read the fields once on each node array and once
    # at each edge, as a float: four joint passes for the four calls,
    # whichever rule comes first.
    quad = QuadratureConfig()
    panels = (quad.panels, 2 * quad.panels)
    plain = _rule_nodes(quad, tuple(_break_segments(ANNULUS, k) for k in panels))[0]
    bumped = _rule_nodes(quad, tuple(_break_segments([*ANNULUS, *PERT.support()], k)
                                     for k in panels))[0]
    assert _rule_nodes(quad, tuple(((*ANNULUS, k),) for k in panels))[0] is plain
    arrays = {"plain": plain, "bumped": bumped, "r1": np.array(ANNULUS[0]),
              "r2": np.array(ANNULUS[1])}
    data, counts, radii = counting_joint_data(rn_data(RNParameters(3, 1.0, 0.5)))
    calls = set_calls(ANNULUS, PERT)
    for name in order:
        calls[name](data)
    assert len(radii) == 4, order
    for got, want in zip(radii, passes):
        assert got.shape == arrays[want].shape and np.array_equal(got, arrays[want]), (order, want)
    assert counts == {profile: {} for profile in PROFILES}


def test_shared_reads_give_each_call_its_fresh_result_bit_for_bit():
    # Every call on a data object that earlier calls have read returns (or
    # raises) what the same call returns on a fresh copy, on joint data, on
    # profile data and on tables, whose spline jets fail some quadrature
    # checks.
    def outcome(call, data):
        try:
            return repr(call(data))
        except NumericsError as exc:
            return repr(exc)

    def table(data, annulus):
        rs = np.geomspace(annulus[0] / 1.2, annulus[1] * 1.2, 400)
        return data.replace(**{name: tabulated_profile(rs, getattr(data, name)(rs))
                                for name in ("A", "V", "Emag")})

    for p, ann, pert in drawn_variational_cases(6, seed=21):
        calls = set_calls(ann, pert)
        for build in (rn_data, lambda p: rn_data(p).replace(),
                      lambda p: table(rn_data(p), ann)):
            shared = build(p)
            for name, call in [*calls.items(), *reversed(calls.items())]:
                assert outcome(call, shared) == outcome(call, build(p)), (p, name)


def test_a_read_that_raises_keeps_nothing_and_raises_again():
    # |E| is non-finite inside the annulus: the functional fails on its read
    # of |E| each time it is called, and the identity, which reads only A
    # and V on the same nodes, still runs and matches the fresh value.
    base = rn_data(RNParameters(3, 1.0, 0.5))
    bad_e = RadialProfile(jet=lambda r: (np.where(r > 4.0, np.nan, 0.1) + 0 * r,) * 3,
                          domain=base.Emag.domain)
    data, counts = counting_data(base.replace(Emag=bad_e))
    errors = []
    for _ in range(2):
        with pytest.raises(NumericsError) as info:
            evaluate_functional(data, ANNULUS)
        errors.append(str(info.value))
    assert errors[0] == errors[1] and "non-finite" in errors[0]
    assert counts["Emag"] == {"jet": 2} and counts["A"] == {"jet": 2}
    assert data.A.scalar_calls == []
    assert pohozaev_residual(data, ANNULUS) == pohozaev_residual(base, ANNULUS)
    assert counts["A"] == {"jet": 3}
    assert data.A.scalar_calls == [("jet", r) for r in ANNULUS]


def test_threads_sharing_the_read_cache_get_the_single_thread_results():
    # The read cache is shared by every thread. Eight threads on four sets,
    # half on one data object per set that they share and half on fresh
    # objects, switching often, must each get what one thread alone gets.
    import sys
    import threading

    cases = list(drawn_variational_cases(4, seed=5))
    shared = [rn_data(p) for p, _, _ in cases]

    def results(data, ann, pert):
        return [repr(call(data)) for call in set_calls(ann, pert).values()]

    want = [results(rn_data(p), ann, pert) for p, ann, pert in cases]
    wrong = []

    def work(i):
        p, ann, pert = cases[i % 4]
        try:
            for _ in range(20):
                data = shared[i % 4] if i < 4 else rn_data(p)
                if results(data, ann, pert) != want[i % 4]:
                    wrong.append(i)
        except Exception as exc:  # a thread's exception would otherwise be lost
            wrong.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def functional_boundary_reference(data, r1, r2):
    # 2 int V H ds_o with H = (n - 1) / (r sqrt(A)), one scalar read per
    # profile and radius, in the order of the formula.
    n = data.n

    def flux(r):
        return float(data.V(r)) * ((n - 1) / (r * math.sqrt(float(data.A(r))))) * r ** (n - 1)

    return 2.0 * sphere_area(n) * (flux(r2) - flux(r1))


def pohozaev_boundary_reference(data, r, sign):
    # sign * int Ric0(X, N) ds over the sphere at r, X = grad V: the Ricci
    # frame components of A dr^2 + r^2 g_S written out at one scalar radius.
    n = data.n
    a, ap, _ = (float(part) for part in data.A.jet(r))
    k_rad = ap / (2.0 * a * a * r)
    k_tan = (1.0 - 1.0 / a) / (r * r)
    ric_rad, ric_tan = (n - 1) * k_rad, k_rad + (n - 2) * k_tan
    t_rad = ric_rad - (ric_rad + (n - 1) * ric_tan) / n
    x_frame = float(data.V.d1(r)) / math.sqrt(a)
    return sign * sphere_area(n) * r ** (n - 1) * x_frame * t_rad


def test_merged_sums_equal_the_per_segment_definition():
    # One integrand evaluation serves every segment of both rules; each result
    # must still equal one one-segment rule per segment and panel count,
    # added in segment order, bit for bit. The boundary terms, read on
    # both annulus edges at once, equal the scalar formulas above bit for bit.
    quad = QuadratureConfig()
    fine = 2 * quad.panels

    def integral(fn, breaks, panels):
        return sum(float(_rule_integrals(fn, quad, ((seg,),))[0][0])
                   for seg in _break_segments(breaks, panels))

    for p, ann, pert in drawn_variational_cases(12, seed=9):
        r1, r2 = ann
        breaks = [r1, r2, *pert.support()]
        for data in (rn_data(p), perturbed_potential_data(rn_data(p), 0.01, pert.center, pert.halfwidth)):
            n, omega = data.n, sphere_area(data.n)
            case = (p, ann, pert.mode, data.Psi is None)
            term = functional_boundary_reference(data, r1, r2)
            assert _functional_boundary(data, r1, r2) == term, case
            inner = pohozaev_boundary_reference(data, r1, -1.0)
            outer = pohozaev_boundary_reference(data, r2, +1.0)
            assert _pohozaev_boundary(data, r1, r2) == (inner, outer), case

            def functional(bump, amplitudes):
                def bulk_row(r):
                    return np.atleast_2d(_functional_integrand(data, bump, amplitudes, r))[0]

                bulk = integral(bulk_row, breaks if bump else ann, fine)
                return float(omega * bulk + term)

            assert evaluate_functional(data, ann) == functional(None, ()), case
            assert evaluate_functional(data, ann, pert) == functional(pert, (pert.amplitude,)), case
            crit = criticality_test(data, ann, pert)
            derivs = [(functional(pert, (eps,)) - functional(pert, (-eps,))) / (2.0 * eps)
                      for eps in EPSILONS]
            assert crit.epsilons == EPSILONS and list(crit.derivatives) == derivs, case
            # EPSILONS ends with 2e-4 and 1e-4: Richardson on ratio 2.
            assert crit.refined == (4.0 * derivs[3] - derivs[2]) / 3.0, case
            norm = integral(lambda r: _norm_density(n, pert, pert.bump(r), np.sqrt(data.A(r)), r),
                            breaks, quad.panels)
            assert crit.pert_norm == math.sqrt(omega * norm), case
            el = integral(lambda r: _el_integrand(data, pert, r), breaks, fine)
            assert euler_lagrange_integral(data, ann, pert) == float(omega * el), case
            lhs, rhs = (_rule_integrals(lambda r: _pohozaev_integrands(data, r)[i], quad,
                                        (((r1, r2, fine),),))[0][0] for i in (0, 1))
            want = abs((n - 2) / (2.0 * n) * omega * lhs
                       - (-omega * rhs + outer + inner))
            assert pohozaev_residual(data, ann) == want, case


def test_quadrature_size_is_bounded():
    # leggauss(k) builds a k x k matrix and each call evaluates about
    # 3 panels x nodes points per row, so both are capped. Only values just
    # past the caps are tried: they raise before any rule is built.
    assert (MAX_NODES, MAX_PANEL_NODES) == (100, 2 ** 16)  # as docs/cli_schema.md states
    QuadratureConfig(nodes=MAX_NODES)
    QuadratureConfig(panels=MAX_PANEL_NODES // 12, nodes=12)
    for panels, nodes in ((1, MAX_NODES + 1), (MAX_PANEL_NODES // 12 + 1, 12),
                          (MAX_PANEL_NODES // MAX_NODES + 1, MAX_NODES)):
        with pytest.raises(ParameterError):
            QuadratureConfig(panels=panels, nodes=nodes)


def test_quadrature_counts_are_integers_and_its_tolerance_is_finite():
    # A float count reached numpy (a broadcast error in the identity, a
    # TypeError from leggauss, NaN to int) or was rounded up, True read as 1,
    # and an infinite tolerance switched the panel-doubling check off.
    for kwargs in (dict(panels=2.5), dict(nodes=2.5), dict(panels=math.nan), dict(panels=True),
                   dict(nodes=False), dict(panels=16.0)):
        with pytest.raises(ParameterError, match="must be an integer"):
            QuadratureConfig(**kwargs)
    for tol in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ParameterError, match="finite and positive"):
            QuadratureConfig(tol=tol)
    QuadratureConfig(panels=np.int64(8), nodes=np.int32(6), tol=1e-12)


def test_bump_second_derivative_must_not_overflow():
    # bump_jet divides by halfwidth ** 2: at a halfwidth of 1e-170 that
    # underflowed to 0 and b'' came out -inf with a RuntimeWarning; at 1e-154
    # 1/halfwidth^2 is finite but b'' = -6/halfwidth^2 at the center is not.
    for center, halfwidth in ((1e-160, 1e-170), (1e-150, 1e-154)):
        with pytest.raises(ParameterError, match="6/halfwidth"):
            Perturbation(center, halfwidth)
    pert = Perturbation(1e-150, 1.9e-154)
    b2 = pert.bump_jet(np.array([1e-150, 1e-150 + 1e-154]))[2]
    assert b2[0] == -6.0 / 1.9e-154 ** 2 and np.all(np.isfinite(b2))


def test_bump_halfwidth_square_must_not_overflow():
    # bump_jet squares the halfwidth: above about 1.34e154 that raised a bare
    # OverflowError from the float power.
    for center, halfwidth in ((1e200, 1e199), (1e155, 1.35e154), (4.5, math.inf)):
        with pytest.raises(ParameterError, match="halfwidth\\^2 overflows"):
            Perturbation(center, halfwidth)
    pert = Perturbation(1e155, 1.34e154)
    jet = pert.bump_jet(np.array([1e155, 1e155 + 1e153]))
    assert jet[2][0] == -6.0 / 1.34e154 ** 2 and np.all(np.isfinite(jet))


def test_bump_edges_must_not_round_onto_the_center():
    # A halfwidth below half an ulp of the center leaves no radius inside the
    # support; one edge rounding onto the center is as degenerate.
    for center, halfwidth in ((4.5, 1e-300), (4.5, 4e-16), (4.0, 3e-16)):
        with pytest.raises(ParameterError, match="round onto the center"):
            Perturbation(center, halfwidth)
    assert Perturbation(4.5, 1e-15).support()[0] < 4.5


def test_bump_jet_keeps_its_bits_and_never_overflows():
    # Inside the support the clipped offset changes nothing; far outside a
    # narrow support the square of the scaled offset used to overflow.
    rng = np.random.default_rng(11)
    for pert in (PERT, Perturbation(1e-134, 1e-149)):
        c, hw = pert.center, pert.halfwidth
        r = c + hw * rng.uniform(-1.0, 1.0, 200)
        t = (r - c) / hw
        u = 1.0 - t * t
        want = (u ** 3, -6.0 * t * u ** 2 / hw, (-6.0 * u ** 2 + 24.0 * t * t * u) / hw ** 2)
        inside = np.abs(t) < 1.0
        for got, ref in zip(pert.bump_jet(r), want):
            assert np.array_equal(got[inside], ref[inside]) and np.all(got[~inside] == 0.0)
        far = np.array([c - 2.0 * hw, c + 1e6, 1e300])
        assert all(np.array_equal(part, np.zeros(3)) for part in pert.bump_jet(far))


def where_jet(pert, r):
    """(b, b', b'') at r as three np.where over every radius: the definition
    that bump_jet evaluates on the support alone."""
    hw = pert.halfwidth
    t = np.clip(np.asarray(r, dtype=float) - pert.center, -hw, hw) / hw
    inside, u = np.abs(t) < 1.0, 1.0 - t * t
    return (np.where(inside, u ** 3, 0.0),
            np.where(inside, -6.0 * t * u ** 2 / hw, 0.0),
            np.where(inside, (-6.0 * u ** 2 + 24.0 * t * t * u) / hw ** 2, 0.0))


def test_bump_is_the_first_part_of_bump_jet_bit_for_bit():
    # bump computes b alone, and both write the support's values into zeros:
    # each part keeps the type, shape and bits, the sign of each zero too, of
    # the np.where definition, and bump equals bump_jet's first part. An
    # integral over the parts could round a changed zero sign away.
    def bits(part):
        assert type(part) is np.ndarray and part.dtype == np.float64
        return part.shape, part.view(np.int64).tolist()

    for pert in (PERT, Perturbation(4.5, 1e-15), Perturbation(1e-134, 1e-149)):
        c, hw = pert.center, pert.halfwidth
        lo, hi = pert.support()
        edges = [np.nextafter(lo, -np.inf), lo, np.nextafter(lo, c), c, np.nextafter(hi, c), hi,
                 np.nextafter(hi, np.inf)]
        for r in (c + 0.3 * hw, c, lo, hi, c + 5.0 * hw, np.array(c), np.array(hi),
                  c + hw * np.array([-3.0, 2.0, 4.0]),             # no radius inside
                  np.linspace(lo - hw, hi + hw, 9),                 # some inside
                  c + hw * np.linspace(-0.9, 0.9, 7),               # all inside
                  np.array(edges), np.array([-1e300, c - 1e6, c + 1e6, 1e300]),
                  (c + hw * np.linspace(-1.5, 1.5, 12)).reshape(3, 4), np.array([])):
            b, jet = pert.bump(r), pert.bump_jet(r)
            assert bits(b) == bits(jet[0])
            assert [bits(part) for part in jet] == [bits(part) for part in where_jet(pert, r)]
            assert b.shape == np.shape(r)


def test_annulus_edges_raise_what_require_interior_raises_on_them():
    # The edges are checked as floats, both against the domain first and
    # then both against the V-zero margin, the order of require_interior on
    # the array [r1, r2]; each case raises its error and message.
    data = rn_data(RNParameters(3, 1.0, 0.5))
    r_h = data.v_zeros[0]
    assert data.domain[0] == r_h
    for r1, r2 in ((r_h + 5e-10, math.inf),   # r2's domain error before r1's margin
                   (r_h + 5e-10, 6.0),        # r1 within the V-zero margin
                   (0.5 * r_h, 6.0),          # r1 below the domain
                   (r_h, 6.0)):               # r1 on the domain's edge
        with pytest.raises(DomainError) as want:
            data.require_interior(np.array([r1, r2]))
        with pytest.raises(DomainError) as got:
            _require_annulus(data, (r1, r2))
        assert str(got.value) == str(want.value)
    data.require_interior(np.array([3.0, 1e6]))
    assert _require_annulus(data, (3, 1e6)) == (3.0, 1e6)
    # A NaN edge fails the order check before any domain check.
    for annulus in ((math.nan, 6.0), (3.0, math.nan)):
        with pytest.raises(DomainError, match="annulus endpoints out of order"):
            _require_annulus(data, annulus)
