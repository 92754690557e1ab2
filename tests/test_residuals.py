import importlib.util
from pathlib import Path

import numpy as np
import pytest

from electrovac import (
    DegeneracyError,
    DomainError,
    EQUATION_TAGS,
    GridSpec,
    RNParameters,
    RadialProfile,
    SphericalStaticData,
    constant_profile,
    default_grid,
    default_tolerance,
    equivalence_property,
    flat_data,
    hessian_radial,
    laplacian_radial,
    perturbed_potential_data,
    photon_sphere_radii,
    residual_identities,
    residual_master,
    residual_pem,
    residual_system,
    residual_traced,
    ricci_radial,
    rn_data,
    scalar_curvature,
    verify_all,
)
from electrovac import residuals
from electrovac.residuals import TOL_CLOSED_FORM, TOL_FINITE_DIFFERENCE

from counting import counting_data


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


def test_system_and_master_agree_on_valid_and_invalid_data():
    for p in [RNParameters(3, 1.0, 0.5), RNParameters(4, 1.0, 1.0), RNParameters(3, 1.0, 1.3)]:
        data = rn_data(p)
        grid = default_grid(data)
        assert residual_system(data, grid).passed
        assert residual_master(data, grid).passed
        assert equivalence_property(data, grid)

    # deliberately broken potential: both formulations must fail together
    base = rn_data(RNParameters(3, 1.0, 0.5))
    bad = perturbed_potential_data(base, 1e-4, 5.0, 1.0)
    grid = default_grid(bad)
    assert not residual_system(bad, grid).passed
    assert not residual_master(bad, grid).passed
    assert equivalence_property(bad, grid)


def test_perturbation_moves_only_potential_equations():
    base = rn_data(RNParameters(3, 1.0, 0.5))
    bad = perturbed_potential_data(base, 1e-4, 5.0, 1.0)
    rep = verify_all(bad, default_grid(bad))
    assert not rep.entries["E1"].passed
    assert not rep.entries["E2"].passed
    # the field equations do not involve V
    assert rep.entries["E3a"].passed
    assert rep.entries["NE1"].passed


def zero_crossing_data():
    # V crosses zero at r = 5, so a grid through 5 has a degenerate point.
    return SphericalStaticData(
        n=3, lam=0.0,
        A=constant_profile(1.0),
        V=RadialProfile(lambda r: (r - 5.0) * 1e-6,
                        d1=lambda r: np.full_like(np.asarray(r, float), 1e-6),
                        d2=lambda r: np.zeros_like(np.asarray(r, float))),
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
    with pytest.raises(DegeneracyError):
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
    fd = SphericalStaticData(
        n=3, lam=0.0,
        A=RadialProfile(lambda r: np.asarray(closed.A(r)), domain=closed.A.domain),
        V=closed.V, Emag=closed.Emag, v_zeros=closed.v_zeros,
    )
    assert default_tolerance(fd) == TOL_FINITE_DIFFERENCE


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
    # One jet per profile on the grid, and no separate value, d1 or d2 call
    # there; the boundary radius is a scalar and is not counted.
    p = RNParameters(3, 1.0, 0.5)
    data, counts = counting_data(rn_data(p))
    rep = verify_all(data, default_grid(data), r_boundary=photon_sphere_radii(p).roots[0].r)
    assert rep.passed and "PEM4" in rep.entries
    assert counts == {name: {"jet": 1} for name in ("A", "V", "Emag", "Psi")}


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
