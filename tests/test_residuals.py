import importlib.util
import json
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from electrovac import (
    DegeneracyError,
    DomainError,
    ElectrovacError,
    EQUATION_TAGS,
    GridSpec,
    NumericsError,
    ParameterError,
    RNParameters,
    RadialProfile,
    SphericalStaticData,
    constant_profile,
    default_grid,
    default_tolerance,
    flat_data,
    hessian_radial,
    laplacian_radial,
    perturbed_potential_data,
    photon_sphere_radii,
    quasilocal_check,
    residual_identities,
    residual_master,
    residual_pem,
    residual_system,
    residual_traced,
    ricci_radial,
    rn_data,
    scalar_curvature,
    tabulated_profile,
    verify_all,
)
from electrovac import residuals
from electrovac.geometry import TOL_CLOSED_FORM, TOL_FINITE_DIFFERENCE
from electrovac.profiles import MODE_FINITE_DIFFERENCE

from counting import PROFILES, counting_data


def seeded_parameter_sets(count, seed=11):
    rng = np.random.default_rng(seed)
    sets = []
    for i in range(count):
        n = int(rng.integers(3, 6))
        m = float(rng.uniform(0.4, 3.0))
        # cycle the regimes so all three appear
        kind = i % 3
        if kind == 0:
            q = float(rng.uniform(-0.95, 0.95)) * m
        elif kind == 1:
            q = m * (1.0 if i % 2 else -1.0)
        else:
            q = float(rng.choice([-1.0, 1.0])) * m * float(rng.uniform(1.05, 1.8))
        sets.append(RNParameters(n, m, q))
    return sets


def test_all_tags_pass_on_seeded_family_sweep():
    for p in seeded_parameter_sets(12):
        data = rn_data(p)
        rep = verify_all(data, default_grid(data))
        assert rep.passed, f"{p}: " + ", ".join(
            t.tag for t in rep.entries.values() if not t.passed)
        for entry in rep.entries.values():
            assert entry.max_residual <= rep.tolerance


def test_boundary_tags_present_only_with_boundary_radius():
    p = RNParameters(3, 1.0, 0.5)
    data = rn_data(p)
    grid = default_grid(data)
    rep = verify_all(data, grid)
    assert "E4" not in rep.entries and "TE2" not in rep.entries and "PEM4" not in rep.entries

    r_ps = photon_sphere_radii(p).roots[0].r
    rep_b = verify_all(data, grid, r_boundary=r_ps)
    for tag in ("E4", "TE2", "PEM4"):
        assert rep_b.entries[tag].passed
        assert rep_b.entries[tag].max_residual <= rep_b.tolerance
    assert list(rep_b.entries) == list(EQUATION_TAGS)


def test_traced_equation_is_trace_of_hessian_equation():
    # TE1's residual must equal the trace of E1's frame residual pointwise
    p = RNParameters(4, 1.3, 0.9)
    data = rn_data(p)
    n, lam = data.n, data.lam
    rs = default_grid(data).radii()[::50]
    v = data.V(rs)
    e2 = data.Emag(rs) ** 2
    hess = hessian_radial(data, data.V, rs)
    ric = ricci_radial(data, rs)
    lap = laplacian_radial(data, data.V, rs)
    R = scalar_curvature(data, rs)

    e1_rad = hess.radial - v * (ric.radial - 2 * lam / (n - 1) + 2 * e2 - 2 * e2 / (n - 1))
    e1_tan = hess.tangential - v * (ric.tangential - 2 * lam / (n - 1) - 2 * e2 / (n - 1))
    trace_e1 = e1_rad + (n - 1) * e1_tan
    te1 = lap - v * (R - 2 * n * lam / (n - 1) - 2 * e2 / (n - 1))
    scale = 1.0 + np.abs(lap).max()
    assert np.allclose(trace_e1, te1, rtol=0, atol=1e-12 * scale)


def system_and_master_verdicts(rep):
    """(whether the first-order system E1, E2, E3a, E3b passed, whether AE1 did)."""
    system = all(rep.entries[tag].passed for tag in ("E1", "E2", "E3a", "E3b"))
    return system, rep.entries["AE1"].passed


def test_system_and_master_agree_on_valid_and_invalid_data():
    for p in [RNParameters(3, 1.0, 0.5), RNParameters(4, 1.0, 1.0), RNParameters(3, 1.0, 1.3)]:
        data = rn_data(p)
        grid = default_grid(data)
        assert residual_system(data, grid).passed
        assert residual_master(data, grid).passed
        assert system_and_master_verdicts(verify_all(data, grid)) == (True, True)

    # deliberately broken potential: both formulations must fail together
    base = rn_data(RNParameters(3, 1.0, 0.5))
    bad = perturbed_potential_data(base, 1e-4, 5.0, 1.0)
    grid = default_grid(bad)
    assert not residual_system(bad, grid).passed
    assert not residual_master(bad, grid).passed
    assert system_and_master_verdicts(verify_all(bad, grid)) == (False, False)


def test_perturbation_moves_only_potential_equations():
    base = rn_data(RNParameters(3, 1.0, 0.5))
    bad = perturbed_potential_data(base, 1e-4, 5.0, 1.0)
    rep = verify_all(bad, default_grid(bad))
    assert not rep.entries["E1"].passed
    assert not rep.entries["E2"].passed
    # the field equations do not involve V
    assert rep.entries["E3a"].passed
    assert rep.entries["NE1"].passed


def zero_crossing_data(slope=1e-6):
    # V crosses zero at r = 5, so a grid through 5 has degenerate points.
    return SphericalStaticData(
        n=3, lam=0.0,
        A=constant_profile(1.0),
        V=RadialProfile(lambda r: ((r - 5.0) * slope, np.full_like(r, slope), np.zeros_like(r))),
        Emag=constant_profile(0.0),
        Psi=constant_profile(0.0),
    )


def test_degenerate_potential_points_are_skipped_in_psi_form():
    # V crosses zero inside the grid; those points are masked, not fatal
    data = zero_crossing_data()
    grid = GridSpec(1.0, 9.0, count=9, spacing="linear")
    rep = residual_pem(data, grid)
    assert rep.entries["PEM1"].skipped == 1
    assert "skipped" in (rep.entries["PEM1"].note or "")

    all_zero = SphericalStaticData(
        n=3, lam=0.0,
        A=constant_profile(1.0),
        V=constant_profile(0.0),
        Emag=constant_profile(0.0),
        Psi=constant_profile(0.0),
    )
    with pytest.raises(DegeneracyError, match="V is degenerate on the whole grid"):
        residual_pem(all_zero, grid)


def test_pem_requires_electric_potential():
    data = rn_data(RNParameters(3, 1.0, 0.5))
    stripped = SphericalStaticData(
        n=data.n, lam=data.lam, A=data.A, V=data.V, Emag=data.Emag,
        Psi=None, v_zeros=data.v_zeros, r_scale=data.r_scale,
    )
    grid = default_grid(stripped)
    with pytest.raises(DomainError):
        residual_pem(stripped, grid)
    rep = verify_all(stripped, grid)
    assert "PEM1" not in rep.entries
    assert rep.passed


def test_traced_report_includes_boundary_entries():
    p = RNParameters(3, 1.0, 0.0)
    data = rn_data(p)
    rep = residual_traced(data, default_grid(data), r_boundary=3.0)
    assert rep.entries["TE2"].worst_radius == 3.0
    assert rep.entries["TE2"].max_residual <= rep.tolerance


def test_grid_spec_validation_and_spacing():
    with pytest.raises(DomainError):
        GridSpec(2.0, 1.0)
    with pytest.raises(DomainError):
        GridSpec(1.0, 2.0, count=1)
    with pytest.raises(DomainError):
        GridSpec(0.0, 2.0, spacing="log")
    with pytest.raises(DomainError):
        GridSpec(1.0, 2.0, spacing="cubic")
    lin = GridSpec(1.0, 2.0, count=5, spacing="linear").radii()
    assert np.allclose(lin, [1.0, 1.25, 1.5, 1.75, 2.0])
    log = GridSpec(1.0, 4.0, count=3, spacing="log").radii()
    assert np.allclose(log, [1.0, 2.0, 4.0])


def test_grid_count_is_an_integer_from_two_to_the_limit():
    # 2.5 used to reach numpy as a bare TypeError, and 1e10 radii a memory error.
    for count in (2.5, 2.0, True, "10", None, 1, 0, -3, residuals.MAX_GRID_COUNT + 1, 10 ** 10):
        with pytest.raises(DomainError):
            GridSpec(3.0, 10.0, count=count)
    for count in (2, np.int64(7), residuals.MAX_GRID_COUNT):
        assert GridSpec(3.0, 10.0, count=count).count == count
    assert residuals.MAX_GRID_COUNT == 10 ** 6


def test_block_radii_equal_slices_of_the_numpy_grids():
    # Endpoints from 1e-300 to 1e300, counts up to 2e5, both spacings: every
    # block a report builds equals its slice of the whole grid, bit for bit.
    # Linear grids are np.linspace's. Log grids are the Python-float
    # construction's, run exactly at both ends, never decrease, and lie
    # within count eps of np.geomspace, plus geomspace's own error: it raises
    # 10 to an exponent y rounded to about |y| eps.
    rng = np.random.default_rng(53)
    eps = np.finfo(float).eps
    for i in range(300):
        spacing = ("log", "linear")[i % 2]
        e_lo = rng.uniform(-300.0, 299.0)
        lo = 0.0 if spacing == "linear" and i % 10 == 1 else 10.0 ** e_lo
        hi = 10.0 ** min(rng.uniform(e_lo + 1e-9, e_lo + 40.0), 300.0)
        count = int(10.0 ** rng.uniform(np.log10(2.0), np.log10(2e5)))
        grid = GridSpec(lo, hi, count=count, spacing=spacing)
        whole, case = grid.radii(), (lo, hi, count, spacing)
        if spacing == "linear":
            assert whole.tobytes() == np.linspace(lo, hi, count).tobytes(), case
        else:
            assert whole[0] == lo and whole[-1] == hi and (np.diff(whole) >= 0).all(), case
            bound = (count + math.log(10.0) * max(abs(e_lo), abs(math.log10(hi)))) * eps
            assert np.max(np.abs(whole / np.geomspace(lo, hi, count) - 1.0)) <= bound, case
        if count <= 20_000:
            assert whole.tobytes() == np.array(grid._floats()).tobytes(), case
        for block in (residuals._BLOCK, int(rng.integers(1, count + 1))):
            for start in range(0, count, block)[:40]:
                got = grid.radii(start, start + block)
                assert got.tobytes() == whole[start:start + block].tobytes(), case + (block, start)


def test_log_radii_stay_finite_at_the_ends_of_the_float_range():
    # A subnormal lo or a hi near the float max puts hi/lo, or a factor
    # q^(2^b), beyond the float range; the radii stay finite and monotone.
    for lo, hi in ((5e-324, 1.0), (1e-310, 1e300), (1.0, 1.7e308), (1e-10, 1.7e308),
                   (5e-324, 1.7e308)):
        for count in (2, 3, 7, 521, 1000, 1025, 20_000):
            grid = GridSpec(lo, hi, count=count)
            radii = grid.radii()
            assert radii[0] == lo and radii[-1] == hi and (np.diff(radii) >= 0).all()
            assert radii.tobytes() == np.array(grid._floats()).tobytes(), (lo, hi, count)


def test_log_radii_scale_exactly_by_powers_of_two():
    # r -> 2^j r maps the grid onto the scaled grid, bit for bit: np.geomspace's
    # radii differ in 945 to 991 of 1000 at these j.
    grid = default_grid(rn_data(RNParameters(3, 1.0, 0.5)))
    for j in (-40, 9, 200):
        scaled = GridSpec(math.ldexp(grid.lo, j), math.ldexp(grid.hi, j), count=grid.count)
        assert np.count_nonzero(np.ldexp(grid.radii(), j) != scaled.radii()) == 0, j


def test_radii_are_slices_of_the_grid_for_any_integers():
    # radii(1000) and radii(0, 0) raised IndexError, and radii(-5) returned
    # 1005 radii, five of them below lo.
    for grid in (GridSpec(1, 10), GridSpec(1, 10, count=20_000), GridSpec(0, 10, spacing="linear")):
        whole = grid.radii()
        assert grid.radii(grid.count).size == 0 and grid.radii(0, 0).size == 0
        assert grid.radii(-5).tobytes() == whole[-5:].tobytes()
        for start, stop in ((-5, None), (3, -2), (-30000, 5), (7, 3), (8190, 8195), (0, 10 ** 9),
                            (-1, -1), (grid.count - 1, None)):
            assert grid.radii(start, stop).tobytes() == whole[start:stop].tobytes(), (start, stop)


def test_default_grid_endpoints():
    sub = rn_data(RNParameters(3, 1.0, 0.5))
    g = default_grid(sub)
    assert np.isclose(g.lo, 1.01 * sub.domain[0])
    assert np.isclose(g.hi, 100.0 * max(1.0, sub.domain[0]))
    sup = rn_data(RNParameters(3, 1.0, 1.5))
    g2 = default_grid(sup)
    assert np.isclose(g2.lo, 0.5 * sup.r_scale)
    assert g2.hi == 100.0


def test_default_tolerance_tracks_profile_mode():
    closed = rn_data(RNParameters(3, 1.0, 0.5))
    assert default_tolerance(closed) == TOL_CLOSED_FORM
    rs = np.geomspace(2.0, 40.0, 400)
    table_a = closed.replace(A=tabulated_profile(rs, closed.A(rs)))
    assert default_tolerance(table_a) == TOL_FINITE_DIFFERENCE


def test_library_tolerances_must_be_finite_and_non_negative():
    # NaN failed every tag and wrote "tolerance": NaN, which is not strict
    # JSON; -1 failed every tag and inf passed every one. The reports and the
    # slice check share the CLI's rule, message and all.
    data = rn_data(RNParameters(3, 1.0, 0.5))
    grid = default_grid(data, count=50)
    calls = (lambda tol: verify_all(data, grid, tol=tol),
             lambda tol: residual_system(data, grid, tol=tol),
             lambda tol: quasilocal_check(data, 3.0, tol))
    for tol in (math.nan, -1.0, -math.inf, math.inf):
        for call in calls:
            with pytest.raises(ParameterError) as info:
                call(tol)
            assert str(info.value) == f"identity tolerance must be finite and >= 0, got {tol}"
    for tol in (0, 0.0, 1e-9):
        assert verify_all(data, grid, tol=tol).tolerance == tol
        assert quasilocal_check(data, 3.0, tol).tol == tol


def test_report_serialization_order_and_shape():
    p = RNParameters(3, 1.0, 0.5)
    data = rn_data(p)
    r_ps = photon_sphere_radii(p).roots[0].r
    rep = verify_all(data, default_grid(data), r_boundary=r_ps)
    doc = rep.to_dict()
    assert list(doc["equations"]) == list(EQUATION_TAGS)
    assert doc["passed"] is True
    assert set(doc["equations"]["E1"]) >= {"tag", "max_residual", "worst_radius", "passed"}


def test_flat_data_verifies_trivially():
    data = flat_data(4)
    rep = verify_all(data, GridSpec(0.5, 50.0))
    assert rep.passed
    assert rep.entries["E1"].max_residual == 0.0


def family_union(data, grid, r_boundary):
    """Entries of the five residual families, each run on its own."""
    reports = [residual_system(data, grid), residual_master(data, grid),
               residual_traced(data, grid, r_boundary=r_boundary),
               residual_identities(data, grid)]
    if data.Psi is not None:
        reports.append(residual_pem(data, grid, r_boundary=r_boundary))
    union = {}
    for rep in reports:
        for tag, entry in rep.entries.items():
            assert tag not in union
            union[tag] = entry.to_dict()
    return union


def test_verify_all_equals_the_union_of_the_families():
    cases = []
    for p in seeded_parameter_sets(6, seed=23):
        base = rn_data(p)
        grid = default_grid(base, count=400)
        radii = photon_sphere_radii(p).roots
        r_b = radii[-1].r if radii else 2.0 * base.r_scale
        bump_at = grid.lo * (grid.hi / grid.lo) ** 0.4
        for data in (base, perturbed_potential_data(base, 1e-3, bump_at, 0.1 * bump_at)):
            cases.append((data, grid, r_b))
    assert {p.regime for p in seeded_parameter_sets(6, seed=23)} == {
        "sub-extremal", "extremal", "super-extremal"}
    # A grid through the zero of V: the PEM tags skip that point.
    cases.append((zero_crossing_data(), GridSpec(1.0, 9.0, count=9, spacing="linear"), 3.0))
    for data, grid, r_b in cases:
        for r_boundary in (None, r_b):
            got = verify_all(data, grid, r_boundary=r_boundary).to_dict()["equations"]
            assert got == family_union(data, grid, r_boundary)
    assert got["PEM1"]["skipped_points"] == 1


def test_verify_all_evaluates_each_profile_once_on_the_grid():
    # One jet per profile and block, whose radii together are the grid once
    # and in order; no separate value, d1 or d2 call on an array. The
    # boundary radius is a scalar and is not counted.
    p = RNParameters(3, 1.0, 0.5)
    r_boundary = photon_sphere_radii(p).roots[0].r
    for count in (1000, 2 * residuals._BLOCK + 3):
        data, counts = counting_data(rn_data(p))
        grid = default_grid(data, count=count)
        rep = verify_all(data, grid, r_boundary=r_boundary)
        assert rep.passed and "PEM4" in rep.entries
        blocks = -(-count // residuals._BLOCK)
        assert counts == {name: {"jet": blocks} for name in PROFILES}
        for name in PROFILES:
            assert np.array_equal(np.concatenate(getattr(data, name).jet_radii), grid.radii())


def test_verify_all_evaluates_the_joint_jet_once_per_block():
    # rn_data's joint jet, and a bumped copy's, stand in for every profile's
    # jet: one call on the boundary radius for the Robin defect, then one per
    # block on the grid's radii, and no array call to a profile.
    p = RNParameters(3, 1.0, 0.5)
    r_boundary = photon_sphere_radii(p).roots[0].r
    base = rn_data(p)
    bumped = perturbed_potential_data(base, 1e-3, 5.0, 0.5)
    for data in (base, bumped):
        for count in (1000, 2 * residuals._BLOCK + 3):
            calls = []

            def joint(r, inner=data.joint_jet):
                calls.append(np.array(r))
                return inner(r)

            counted, counts = counting_data(data)
            counted = counted.replace(joint=joint)
            grid = default_grid(counted, count=count)
            rep = verify_all(counted, grid, r_boundary=r_boundary)
            assert rep.passed == (data is base) and "PEM4" in rep.entries
            assert len(calls) == 1 + -(-count // residuals._BLOCK)
            assert calls[0] == r_boundary
            assert np.array_equal(np.concatenate(calls[1:]), grid.radii())
            assert counts == {name: {} for name in PROFILES}


def test_tiny_scale_reports_raise_without_warnings():
    # The joint pass overflows at these scales; its checked rerun raises the
    # jet check's error with no RuntimeWarning before it.
    for p in (RNParameters(3, 1e-300, 1e-301), RNParameters(3, 1e-301, 1e-300)):
        data = rn_data(p)
        with pytest.raises(NumericsError, match="profile second derivative is non-finite"):
            verify_all(data, default_grid(data))


def test_joint_and_profile_jets_give_the_same_reports():
    # The same reports, bit for bit, and the same errors, from the joint jet
    # and from a copy without one. At both tiny scales the first non-finite
    # jet part on the default grid is A'', which no tag reads: both paths
    # check it, and raise.
    cases = []
    for p in seeded_parameter_sets(3, seed=59) + [RNParameters(6, 1e3, 2e3)]:
        base = rn_data(p)
        grid = default_grid(base, count=3000) if p.m < 100 else GridSpec(
            0.6 * base.r_scale, 60.0 * base.r_scale, count=3000)
        roots = photon_sphere_radii(p).roots
        r_b = roots[-1].r if roots else 2.0 * base.r_scale
        cases.append((base, grid, r_b))
        cases.append((perturbed_potential_data(base, 1e-3, 3.0 * grid.lo, grid.lo), grid, r_b))
    for p in (RNParameters(3, 1e-300, 1e-301), RNParameters(3, 1e-301, 1e-300)):
        data = rn_data(p)
        cases.append((data, default_grid(data, count=3000), None))
    # W^2 overflows in A's jet on these radii, though every jet part is finite:
    # the joint jet's pass raises, and its checked rerun gives the report.
    cases.append((rn_data(RNParameters(3, 1.0, 6e78)), GridSpec(21.0, 22.5, count=300), None))
    # A NaN bump would make V NaN with no floating-point error to flag it.
    with pytest.raises(ParameterError, match="finite"):
        perturbed_potential_data(rn_data(RNParameters(3, 1.0, 0.5)), np.nan, 5.0, 0.5)
    data = rn_data(RNParameters(3, 1.0, 0.5))
    cases.append((data, GridSpec(1.0, 20.0, count=500), None))
    seen = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for data, grid, r_b in cases:
            copy = data.replace()
            assert copy.joint_jet is None
            got = every_report(data, grid, r_b)
            assert got == every_report(copy, grid, r_b)
            seen.update(out[1] for out in got if isinstance(out, tuple))
    assert seen == {"profile second derivative is non-finite inside the domain",
                    "radius 1.0 outside open domain (1.8660254037844386, inf)"}


def test_bad_boundary_radius_fails_before_any_grid_work():
    p = RNParameters(3, 1.0, 0.5)
    # More than one radius ended in numpy's bare TypeError ("only
    # 0-dimensional arrays can be converted to Python scalars").
    bad = [(0.5, "radius 0.5 outside data domain"), ((3.0, 4.0), r"one radius, got \(3.0, 4.0\)"),
           ([3.0], r"one radius, got \[3.0\]"), (np.array([3.0]), r"one radius, got array\(\[3.\]\)")]
    for count in (1000, 2 * residuals._BLOCK + 3):
        data, counts = counting_data(rn_data(p))
        for call in (verify_all, residual_traced, residual_pem):
            for r_b, message in bad:
                with pytest.raises(DomainError, match=message):
                    call(data, default_grid(data, count=count), r_boundary=r_b)
        assert counts == {name: {} for name in PROFILES}
    data = rn_data(p)
    with pytest.raises(DomainError, match=r"one radius, got \[3.0\]"):
        quasilocal_check(data, [3.0])

    def fields(rep):
        return repr([getattr(rep, name) for name in rep.__slots__])

    # One number of any type gives the float's report.
    grid = default_grid(data, count=50)
    want = report_or_error(lambda: verify_all(data, grid, r_boundary=3.0))
    for r_b in (3, np.float64(3.0), np.array(3.0)):
        assert report_or_error(lambda: verify_all(data, grid, r_boundary=r_b)) == want
        assert fields(quasilocal_check(data, r_b)) == fields(quasilocal_check(data, 3.0))


def hex_floats(doc):
    if isinstance(doc, float):
        return doc.hex()
    if isinstance(doc, dict):
        return {k: hex_floats(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [hex_floats(v) for v in doc]
    return doc


def report_or_error(fn):
    """A report as float.hex JSON, key order included, or the error it raised."""
    try:
        return json.dumps(hex_floats(fn().to_dict()))
    except ElectrovacError as exc:
        return (type(exc).__name__, str(exc))


def every_report(data, grid, r_boundary):
    """verify_all, then each family on its own."""
    calls = [lambda: verify_all(data, grid, r_boundary=r_boundary),
             lambda: residual_system(data, grid),
             lambda: residual_master(data, grid),
             lambda: residual_traced(data, grid, r_boundary=r_boundary),
             lambda: residual_pem(data, grid, r_boundary=r_boundary),
             lambda: residual_identities(data, grid)]
    return [report_or_error(call) for call in calls]


def table_data(data, rs):
    profiles = {name: tabulated_profile(rs, getattr(data, name)(rs)) for name in PROFILES}
    return SphericalStaticData(n=data.n, lam=data.lam, v_zeros=data.v_zeros, **profiles)


def block_cases():
    """(label, data, grid, r_boundary, fine) on 1e4-radius grids; fine cases
    also run verify_all in blocks of 7 radii."""
    count = 10_000
    sets = seeded_parameter_sets(3, seed=29)
    assert [p.regime for p in sets] == ["sub-extremal", "extremal", "super-extremal"]
    for p in sets:
        base = rn_data(p)
        grid = default_grid(base, count=count)
        radii = photon_sphere_radii(p).roots
        r_b = radii[-1].r if radii else 2.0 * base.r_scale
        bump_at = grid.lo * (grid.hi / grid.lo) ** 0.6
        bumped = perturbed_potential_data(base, 1e-3, bump_at, 0.1 * bump_at)
        yield f"{p} exact", base, grid, None, False
        yield f"{p} exact, boundary", base, grid, r_b, False
        yield f"{p} bump", bumped, grid, None, False
        yield f"{p} bump, boundary", bumped, grid, r_b, True
    base = rn_data(RNParameters(3, 1.0, 0.5))
    rs = np.geomspace(2.0, 40.0, 400)
    yield "table", table_data(base, rs), GridSpec(2.1, 39.0, count=count), 5.0, True
    loose = base.replace(A=RadialProfile(base.A.jet, domain=base.A.domain,
                                                      mode=MODE_FINITE_DIFFERENCE))
    yield "loose mode", loose, default_grid(loose, count=count), 3.0, False
    linear = GridSpec(1.0, 9.0, count=count, spacing="linear")
    # |V| < 1e-9 within 0.1 of r = 5: about 250 radii, so whole blocks of 7 are skipped.
    yield "V zero", zero_crossing_data(1e-8), linear, 3.0, True
    yield "V zero everywhere", zero_crossing_data(0.0), linear, None, False
    # The blocked pass meets a non-finite E1 residual (|E| = 1e200) in its
    # first block, the single pass the end of the Emag domain at r = 8 first.
    huge_e = SphericalStaticData(
        n=3, lam=0.0, A=constant_profile(1.0), V=constant_profile(1.0),
        Emag=RadialProfile(lambda r: (np.where(r < 1.01, 1e200, 0.0), np.zeros_like(r),
                                      np.zeros_like(r)),
                           domain=(0.0, 8.0)),
        Psi=constant_profile(0.0))
    yield "late domain error", huge_e, linear, None, True
    yield "boundary outside the domain", base, default_grid(base, count=count), 0.5, False
    yield "grid below the horizon", base, GridSpec(1.0, 20.0, count=count), None, False


def test_reports_do_not_depend_on_the_block_length(monkeypatch):
    # float.hex, so equal means bit for bit; errors by type and message.
    for label, data, grid, r_boundary, fine in block_cases():
        got = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for block in (grid.count, 4096) + ((7,) if fine else ()):
                monkeypatch.setattr(residuals, "_BLOCK", block)
                reports = every_report(data, grid, r_boundary) if block > 7 else \
                    [report_or_error(lambda: verify_all(data, grid, r_boundary=r_boundary))]
                got[block] = reports
        whole = got.pop(grid.count)
        for block, reports in got.items():
            assert reports == whole[:len(reports)], (label, block)


def test_equal_maxima_keep_the_first_radius_across_blocks(monkeypatch):
    # Flat metric, constant V and |E|: E1's residual is the same at every
    # radius, so every block edge splits a tie and the first radius wins.
    data = SphericalStaticData(n=3, lam=0.0, A=constant_profile(1.0), V=constant_profile(2.0),
                               Emag=constant_profile(0.25), Psi=constant_profile(0.0))
    grid = GridSpec(1.0, 2.0, count=100)
    for block in (7, 100):
        monkeypatch.setattr(residuals, "_BLOCK", block)
        e1 = verify_all(data, grid).entries["E1"]
        assert e1.max_residual == 2.0 * 2.0 * (0.25 ** 2 - 0.25 ** 2 / 2)
        assert e1.worst_radius == grid.radii()[0]


def test_fully_skipped_blocks_count_toward_the_total(monkeypatch):
    data = zero_crossing_data(1e-8)
    grid = GridSpec(1.0, 9.0, count=10_000, spacing="linear")
    want = int(np.count_nonzero(np.abs(1e-8 * (grid.radii() - 5.0)) < residuals.DEGENERATE_V))
    assert want > 7 * 2
    # Blocks of 5000 split the skipped radii; blocks of 7 skip some whole.
    for block in (5000, 7):
        monkeypatch.setattr(residuals, "_BLOCK", block)
        rep = residual_pem(data, grid)
        for tag in ("PEM1", "PEM2", "PEM3", "NPEM1"):
            assert rep.entries[tag].skipped == want
            assert rep.entries[tag].note == f"{want} grid points with |V| < 1e-09 skipped"


def step_field_data(e, at=60.0, domain=(0.0, np.inf)):
    # Flat, V = 1 and |E| = e past r = at: E1's residual is non-finite there when e = 1e200.
    step = RadialProfile(lambda r: (np.where(r > at, e, 0.0), 0.0 * r, 0.0 * r), domain=domain)
    return SphericalStaticData(n=3, lam=0.0, A=constant_profile(1.0), V=constant_profile(1.0),
                               Emag=step, Psi=constant_profile(0.0))


def test_a_failing_block_ends_the_report():
    # Radius 60 lies in the third of four blocks: the report reads each
    # profile on the first three, once each and in order, and raises. A grid
    # with |V| < 1e-9 throughout reads every block once and raises at the
    # end. Neither reads the whole grid again.
    grid = GridSpec(1.0, 100.0, count=4 * residuals._BLOCK, spacing="linear")
    assert 2 * residuals._BLOCK < np.searchsorted(grid.radii(), 60.0) < 3 * residuals._BLOCK
    for base, error, blocks in ((step_field_data(1e200), NumericsError, 3),
                                (zero_crossing_data(0.0), DegeneracyError, 4)):
        data, counts = counting_data(base)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error):
            verify_all(data, grid)
        assert counts == {name: {"jet": blocks} for name in PROFILES}
        for name in PROFILES:
            assert np.array_equal(np.concatenate(getattr(data, name).jet_radii),
                                  grid.radii(0, blocks * residuals._BLOCK))


def test_a_blocks_fields_stay_alive_while_the_next_block_is_built(monkeypatch):
    # _worst_rows keeps the last block's fields bound until the next block's
    # replace them: freed first, the heap top they leave is trimmed by glibc
    # and faulted back in by the next block.
    alive, previous = [], []

    class Recorded(residuals._Fields):
        def __init__(self, data, rs):
            alive.append(bool(previous) and previous[-1]() is not None)
            super().__init__(data, rs)
            previous.append(weakref.ref(self))

    monkeypatch.setattr(residuals, "_Fields", Recorded)
    data = rn_data(RNParameters(3, 1.0, 0.5))
    verify_all(data, GridSpec(2.5, 40.0, count=3 * residuals._BLOCK))
    assert alive == [False, True, True]


def traced_peak(call):
    """(call's result or the ElectrovacError it raised, tracemalloc's peak in bytes)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    except ElectrovacError as exc:
        return exc, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_failing_report_holds_no_more_memory_than_a_passing_one():
    # Whole-grid arrays at 1e6 radii would hold 8 MB each.
    grid = GridSpec(1.0, 100.0, count=10 ** 6, spacing="linear")
    with np.errstate(over="ignore", invalid="ignore"):
        (passing, passing_peak), (failing, failing_peak) = (
            traced_peak(lambda: verify_all(step_field_data(e, at=90.0), grid))
            for e in (0.0, 1e200))
    assert passing.passed and isinstance(failing, NumericsError)
    assert failing_peak < passing_peak + 4e6, (passing_peak, failing_peak)


def test_a_grid_past_the_domain_names_its_end_before_any_block():
    # Only an end of a monotone grid can leave the domain. The error names
    # that end; it comes from a read of the two ends alone, before any block.
    # A lower end outside was named so before; an upper one was not: the
    # first radius past 8 was.
    data = step_field_data(0.0, domain=(0.0, 8.0))
    low = data.replace(A=constant_profile(1.0, domain=(1.0, np.inf)))
    for base, lo, message in ((data, 1.0, "radius 9.0 outside open domain (0.0, 8.0)"),
                              (low, 0.5, "radius 0.5 outside open domain (1.0, inf)")):
        grid = GridSpec(lo, 9.0, count=3 * residuals._BLOCK, spacing="linear")
        counted, counts = counting_data(base)
        with pytest.raises(DomainError) as exc:
            verify_all(counted, grid)
        assert str(exc.value) == message
        reads = [r.tolist() for name in PROFILES for r in getattr(counted, name).jet_radii]
        assert reads and all(r == [lo, 9.0] for r in reads)


def load_benchmark_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans_for_tests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_residual_families_resolve():
    # The benchmark's traced run looks each family up by name and skips a
    # missing one silently, which would corrupt residuals.shared_ratio.
    families = load_benchmark_spans().FAMILIES
    assert len(families) == 5
    p = RNParameters(3, 1.0, 0.5)
    data = rn_data(p)
    grid = default_grid(data, count=50)
    r_boundary = photon_sphere_radii(p).roots[0].r
    for name in families:
        fn = getattr(residuals, name, None)
        assert callable(fn), name
        # Called as the benchmark calls it.
        kwargs = {"r_boundary": r_boundary} if name in ("residual_traced", "residual_pem") else {}
        assert fn(data, grid, **kwargs).passed, name


def walk_cases():
    """(data, grid, boundary radius) over n 3-7 and every regime: the default
    log grid of 1000 radii with and without a photon-sphere boundary, and
    log and linear grids of 2 and 7 radii and a linear one of 1000."""
    for n in range(3, 8):
        for m, q in ((1.0, 0.5), (1.0, -1.0), (0.7, 1.1)):
            p = RNParameters(n, m, q)
            data = rn_data(p)
            lo, hi = residuals._default_bounds(data)
            roots = photon_sphere_radii(p).roots
            yield data, GridSpec(lo, hi), roots[-1].r if roots else None
            yield data, GridSpec(lo, hi), None
            yield data, GridSpec(lo, hi, spacing="linear"), None
            for count in (2, 7):
                for spacing in ("log", "linear"):
                    yield data, GridSpec(lo, hi, count=count, spacing=spacing), None
    yield rn_data(RNParameters(3, 3e153, 0.0)), default_grid(rn_data(RNParameters(3, 3e153, 0.0))), None


def float_walk(families, data, grid):
    """The reducer driven with the grid's float radii as one run, as a
    process without numpy drives it."""
    return residuals._reduce(families, data, [grid._floats()])


def test_the_float_walk_gives_the_array_reports_bit_for_bit(monkeypatch):
    # A process without numpy walks a grid of at most 1000 radii in Python
    # floats; here the walk runs in place of the blocks.
    want = [json.dumps(verify_all(*case[:2], r_boundary=case[2]).to_dict()) for case in walk_cases()]
    monkeypatch.setattr(residuals, "_worst_rows", float_walk)
    got = [json.dumps(verify_all(*case[:2], r_boundary=case[2]).to_dict()) for case in walk_cases()]
    assert len(got) == 106 and got == want


def test_a_list_run_reduces_as_its_array_does():
    # The walk reduces each tag's gathered residuals once: the first radius
    # of the max, and NumericsError for a NaN or inf anywhere, though max
    # passes over a NaN that is not first. Finite residuals whose sum
    # overflows are reduced as usual.
    nan, inf, big = math.nan, math.inf, 1.7e308
    rs = [1.0, 2.0, 3.0, 4.0]
    for res in ([0.5, -2.0, 2.0, 1.0], [0.0, -0.0, 0.0, 0.0], [big, -big, 1.0, 2.0],
                [1.0, nan, 0.5, 2.0], [nan, 1.0, 2.0, 3.0], [1.0, 2.0, -inf, 3.0]):
        try:
            want = residuals._worst("E1", np.array(rs), np.array(res))
        except NumericsError as exc:
            with pytest.raises(NumericsError, match=str(exc)):
                residuals._worst("E1", rs, res)
            continue
        assert residuals._worst("E1", rs, res) == want


def test_the_float_walk_raises_where_the_array_path_does():
    # So the array path runs again and its error is the one reported.
    families = (residuals._system_rows, residuals._master_rows, residuals._traced_rows,
                residuals._pem_rows, residuals._identity_rows)
    for p in (RNParameters(3, 1e-300, 1e-301), RNParameters(5, 1e-200, 0.0)):
        data = rn_data(p)
        grid = default_grid(data)
        with pytest.raises(ElectrovacError):
            verify_all(data, grid)
        with pytest.raises(ElectrovacError):
            float_walk(families, data, grid)
    # A radius the PEM rows would skip raises too.
    data, grid = zero_crossing_data(1e-8), GridSpec(1.0, 9.0, count=1000, spacing="linear")
    assert residual_pem(data, grid).entries["PEM1"].skipped > 0
    with pytest.raises(TypeError):
        float_walk((residuals._pem_rows,), data, grid)
