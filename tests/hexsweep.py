"""float.hex sweep of the residual, variational, geometry, photon and chart entry points.

Prints one JSON line per (parameter set, call): the call's result with every
float written as float.hex, so equal output means equal bits, or the type and
message of the ElectrovacError it raised. Run it in two checkouts and diff:

    PYTHONPATH=src python tests/hexsweep.py > a.jsonl
    (in the other checkout) PYTHONPATH=src python tests/hexsweep.py > b.jsonl
    diff a.jsonl b.jsonl

The sets are seeded: closed-form data plain and with a bump in V, the same
data as cubic tables, n from 3 to 7 in every regime, and a few sets that end
in errors. The pointwise readers run on 64 radii of each grid, on one scalar
radius, and at each closed-form photon-sphere radius; the isotropic chart of each set's
parameters at its branch start and at seeded radii above it; then the
variational calls on criticality ladders at the bump's extremes (narrow,
filling the annulus, at its edge, on a 64-panel rule); then Perturbation.bump
and bump_jet read directly, where an integral could round away a changed
zero sign; the flat-ball report of the default BallStaticExample; last, the
guarded inputs (guard_calls), where an exception other than ElectrovacError
is printed by its type and message too.
pytest does not collect this file. Floating-point warnings are silenced:
only results and errors are compared.

With --cli it instead runs a fixed list of command lines through
electrovac.cli.main in process and prints, per line, the exit code (or the
type name of an exception that escapes main), stdout and the last stderr
line; table files go to a temporary directory whose name is printed as <tmp>.
With --cli --fresh each command line runs in its own interpreter, as
`python -m electrovac.cli`, so a verify on closed-form data or a plain table
reads and walks its grid in Python floats; its output must equal the
in-process output line for line. There an
exception that escapes main shows as exit code 1 and its traceback's last line.

With --write-digest it writes golden/hexsweep.digest instead: one line per
sweep set and one per --cli command line (in process), each the SHA-256 of
its output lines and its label. tests/test_digest.py checks both against it,
so an output that moves by one bit names its set:

    PYTHONPATH=src python tests/hexsweep.py --write-digest
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

from electrovac import cli
from electrovac import (
    BallStaticExample,
    ElectrovacError,
    GridSpec,
    IsotropicChart,
    Perturbation,
    QuadratureConfig,
    RadialProfile,
    RNParameters,
    SphericalStaticData,
    boundary_residual,
    constant_profile,
    contracted_gauss_residual,
    coupling_constant,
    criticality_test,
    default_grid,
    euclidean_ball_residuals,
    euler_lagrange_integral,
    evaluate_functional,
    grad_norm,
    hessian_radial,
    horizon_gradient_limit,
    laplacian_radial,
    level_set_geometry,
    perturbed_potential_data,
    phi_identity_residual,
    photon_sphere_radii,
    pohozaev_residual,
    quasilocal_check,
    residual_identities,
    residual_master,
    residual_pem,
    residual_system,
    residual_traced,
    ricci_radial,
    rn_data,
    scalar_curvature_d1,
    scan_photon_spheres,
    sphere_area,
    tabulated_profile,
    verify_all,
)

PROFILES = ("A", "V", "Emag", "Psi")
COUNTS = (300, 2000, 20_000)
MODES = ("radial", "tangential", "both")
GEOMETRY_FIELDS = ("r", "H", "B_tan", "R_S", "nuV", "ric_nn")
DIGEST = pathlib.Path(__file__).resolve().parent / "golden" / "hexsweep.digest"


def hex_floats(doc):
    if isinstance(doc, float):
        return doc.hex()
    if isinstance(doc, dict):
        return {k: hex_floats(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [hex_floats(v) for v in doc]
    return doc


def plain(out):
    """A result as JSON-ready data: reports and results through to_dict or
    their fields (their __slots__, in order), numpy scalars as Python floats."""
    if hasattr(out, "to_dict"):
        return out.to_dict()
    if hasattr(out, "__slots__"):
        return {name: plain(getattr(out, name)) for name in out.__slots__}
    if isinstance(out, dict):
        return {k: plain(v) for k, v in out.items()}
    if isinstance(out, np.ndarray):
        return plain(out.tolist())
    if isinstance(out, (list, tuple)):
        return [plain(v) for v in out]
    if isinstance(out, (bool, np.bool_)):
        return bool(out)
    if isinstance(out, (float, np.floating)):
        return float(out)
    return out


def outcome(fn):
    try:
        return hex_floats(plain(fn()))
    except ElectrovacError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def parameters(rng, i):
    """n from 3 to 7, the regime cycling, m log-uniform in [1e-3, 1e3]."""
    n = 3 + i % 5
    m = float(10.0 ** rng.uniform(-3.0, 3.0))
    regime = (i // 4) % 3
    if regime == 0:
        q = m * float(rng.uniform(-0.95, 0.95))
    elif regime == 1:
        q = m * float(rng.choice([-1.0, 1.0]))
    else:
        q = m * float(rng.choice([-1.0, 1.0])) * float(rng.uniform(1.05, 2.0))
    return RNParameters(n, m, q)


def drawn_sets(count, seed):
    """(label, parameters, data, grid, r_boundary, annulus, perturbation,
    photon-sphere radii) per set; the kind cycles through plain, bumped and
    table data and an empty slot, which yields only (label, parameters), so
    every set keeps its index and its seeded draws."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        p = parameters(rng, i)
        kind = ("plain", "bumped", "table", None)[i % 4]
        if kind is None:
            yield f"{i} empty", p
            continue
        base = rn_data(p)
        # default_grid's lower end, up two decades: its upper end, 100, can lie below that.
        lo = default_grid(base, count=2).lo if base.domain[0] > 0 else 0.5 * base.r_scale
        grid = GridSpec(lo, 100.0 * lo, count=COUNTS[i % len(COUNTS)])
        roots = [root.r for root in photon_sphere_radii(p).roots]
        r_b = roots[-1] if roots else 2.0 * base.r_scale
        if kind == "bumped":
            c = grid.lo * (grid.hi / grid.lo) ** float(rng.uniform(0.25, 0.75))
            data = perturbed_potential_data(base, 1e-3, c, 0.1 * c)
        elif kind == "table":
            rs = np.geomspace(grid.lo, grid.hi, 600)
            data = SphericalStaticData(
                n=p.n, lam=0.0, v_zeros=base.v_zeros, r_scale=base.r_scale,
                **{name: tabulated_profile(rs, getattr(base, name)(rs)) for name in PROFILES})
            grid = GridSpec(rs[1], rs[-2], count=grid.count)
        else:
            data = base
        r1 = grid.lo * 1.5
        annulus = (r1, 2.0 * r1)
        pert = Perturbation(center=1.5 * r1, halfwidth=0.25 * r1, mode=MODES[i % 3])
        yield f"{i} {kind} {p}", p, data, grid, r_b, annulus, pert, roots


def edge_sets():
    """Sets at extreme scales and with bad grids or radii, most of which raise."""
    for p in (RNParameters(3, 1e-300, 1e-301), RNParameters(3, 1e-301, 1e-300),
              RNParameters(5, 1e-200, 2e-200), RNParameters(4, 1e150, 1e149),
              RNParameters(3, 1e-150, 1e-100)):
        data = rn_data(p)
        grid = default_grid(data, count=2000)
        roots = [root.r for root in photon_sphere_radii(p).roots]
        yield (f"scale {p}", p, data, grid, 2.0 * grid.lo, (1.5 * grid.lo, 3.0 * grid.lo), None,
               roots)
    p = RNParameters(3, 1.0, 0.5)
    data, roots = rn_data(p), [root.r for root in photon_sphere_radii(p).roots]
    yield ("grid below the horizon", p, data, GridSpec(1.0, 20.0, count=500), None, (1.0, 3.0),
           None, roots)
    yield ("boundary outside the domain", p, data, default_grid(data, 500), 0.5, (2.0, 3.0), None,
           [0.5, *roots])
    # Grids of three blocks: past a table's upper end, through a late
    # non-finite residual (|E| = 1e200 past r = 90), and through a block
    # where every |V| < 1e-9.
    rs = np.geomspace(2.0, 40.0, 400)
    table = SphericalStaticData(n=3, lam=0.0, v_zeros=data.v_zeros, **{
        name: tabulated_profile(rs, getattr(data, name)(rs)) for name in PROFILES})
    yield ("grid past the table's end", p, table, GridSpec(2.1, 45.0, count=20_000), 5.0,
           (3.0, 6.0), None, roots)
    linear = GridSpec(1.0, 100.0, count=20_000, spacing="linear")
    step = jet_profile(lambda r: np.where(r > 90.0, 1e200, 0.0), lambda r: 0.0 * r)
    yield ("late non-finite residual", p, flat_metric_data(constant_profile(1.0), step), linear,
           None, (1.5, 3.0), None, [])
    # |V| < 1e-9 on (35, 85), which holds the second block of 8192 radii whole.
    line = jet_profile(lambda r: (r - 60.0) * 4e-11, lambda r: 4e-11 + 0.0 * r)
    yield ("V degenerate on a whole block", p, flat_metric_data(line, constant_profile(0.0)),
           linear, None, (1.5, 3.0), None, [])


def ladder_sets():
    """(label, data, annulus, perturbation, quadrature) per criticality ladder
    at the bump's extremes: a narrow bump, one filling the annulus, one
    whose support ends next to an annulus edge, one whose support meets it
    (which raises) and the default bump on a 64-panel rule, the modes
    cycling, on plain and V-bumped data."""
    quad, fine = QuadratureConfig(), QuadratureConfig(panels=64)
    r1, r2 = annulus = (3.0, 6.0)
    width = r2 - r1
    bumps = {
        "narrow": (r1 + 0.37 * width, 1e-3 * width, quad),
        "filling": (0.5 * (r1 + r2), 0.499 * width, quad),
        "next to r2": (r2 - 0.2 * width * (1.0 + 1e-12), 0.2 * width, quad),
        "meeting r1": (r1 + 0.25, 0.25, quad),
        "64 panels": (0.5 * (r1 + r2), 0.25 * width, fine),
    }
    for p in (RNParameters(3, 1.0, 0.5), RNParameters(5, 2.0, 1.0)):
        base = rn_data(p)
        for kind, data in (("plain", base), ("bumped", perturbed_potential_data(base, 1e-3, 4.0, 0.4))):
            for i, (name, (center, halfwidth, q)) in enumerate(bumps.items()):
                pert = Perturbation(center=center, halfwidth=halfwidth, mode=MODES[i % 3])
                yield f"ladder {name} {kind} {p} {pert.mode}", data, annulus, pert, q


def bump_calls():
    """(label, call, fn) per direct read of b and of the jet (b, b', b''),
    with each part's type and shape: at a float radius and at the center, on
    arrays that straddle the support edges (each edge and its neighbours),
    and at far radii, for a wide bump, the narrowest bump at 4.5 and a bump
    of halfwidth 1e-149, whose far radii overflow an unclipped offset."""
    for pert in (Perturbation(4.5, 0.75), Perturbation(4.5, 1e-15),
                 Perturbation(1e-134, 1e-149, mode="radial")):
        c, hw = pert.center, pert.halfwidth
        lo, hi = pert.support()
        radii = {
            "float": c + 0.3 * hw,
            "center": c,
            "edges": np.array([np.nextafter(lo, -np.inf), lo, np.nextafter(lo, c), c,
                               np.nextafter(hi, c), hi, np.nextafter(hi, np.inf)]),
            "straddling": np.linspace(lo - hw, hi + hw, 9),
            "far": np.array([-1e300, c - 1e6, c + 1e6, 1e300]),
        }
        for name, r in radii.items():
            for call, fn in (("bump", pert.bump), ("bump_jet", pert.bump_jet)):
                yield f"bump {pert}", f"{call} {name}", lambda fn=fn, r=r: typed(fn(r))


def guard_calls():
    """(label, call, fn) per input that an entry point must reject with its
    documented error, or answer with finite values: the isotropic chart at
    NaN, infinite and huge s for n from 3 to 7, float and out-of-range
    dimensions, a photon-sphere scan past its sample bound (rejected before
    anything is built), annuli too wide for the quadrature, boundary radii
    that are not one number, and flat balls with bad counts or directions."""
    for n in range(3, 8):
        p = RNParameters(n, 1.0, 0.5)
        chart = IsotropicChart(p)
        for s in (float("nan"), float("inf"), 1e60, 1e200, 1.7e308):
            yield f"guard chart {p}", f"point {s!r}", lambda chart=chart, s=s: chart.point(s)
            yield f"guard chart {p}", f"r_of_s {s!r}", lambda chart=chart, s=s: chart.r_of_s(s)
            yield (f"guard chart {p}", f"phi_identity_residual {s!r}",
                   lambda p=p, s=s: phi_identity_residual(p, s))
    for name, fn in (("RNParameters", lambda n: RNParameters(n, 1.0, 0.5)),
                     ("sphere_area", sphere_area), ("coupling_constant", coupling_constant)):
        for n in (3.0, 1, 344):
            yield "guard dimension", f"{name} {n!r}", lambda fn=fn, n=n: fn(n)
    data = rn_data(RNParameters(3, 1.0, 0.5))
    yield ("guard scan", "samples 2**62",
           lambda: scan_photon_spheres(data, 2.0, 10.0, samples=2 ** 62))
    pert = Perturbation(5.0, 1.0)
    for name, fn in (("evaluate_functional", lambda: evaluate_functional(data, (2.0, 1e307))),
                     ("criticality_test", lambda: criticality_test(data, (2.0, 1e307), pert)),
                     ("pohozaev_residual", lambda: pohozaev_residual(data, (2.0, 1.7e308)))):
        yield "guard wide annulus", name, fn
    grid = default_grid(data, count=50)
    for r_b in ([3.0], np.array([3.0]), (3.0, 4.0)):
        for fn in (verify_all, residual_traced, residual_pem):
            yield ("guard one radius", f"{fn.__name__} {r_b!r}",
                   lambda fn=fn, r_b=r_b: fn(data, grid, r_boundary=r_b))
    yield "guard one radius", "quasilocal_check [3.0]", lambda: quasilocal_check(data, [3.0])
    for kwargs in ({"n_boundary": 0}, {"n_interior": 0}, {"n_interior": -1},
                   {"n_interior": 2.5}, {"v": (float("inf"), 0.0, 1.0)}):
        yield ("guard flat ball", f"default {kwargs!r}",
               lambda kwargs=kwargs: euclidean_ball_residuals(BallStaticExample.default(**kwargs)))


def guarded(fn):
    """outcome(fn), with any other exception recorded by its type and message."""
    try:
        return outcome(fn)
    except Exception as exc:  # a bare error, as an unguarded entry point raised
        return {"error": type(exc).__name__, "message": str(exc)}


def typed(parts):
    """parts (one array or a tuple of them) with each array's type and shape."""
    if isinstance(parts, tuple):
        return [typed(part) for part in parts]
    return {"type": type(parts).__name__, "shape": list(np.shape(parts)), "value": parts}


def ladder_calls(data, annulus, pert, quad):
    return {
        "evaluate_functional": lambda: evaluate_functional(data, annulus, pert, quad),
        "criticality_test": lambda: criticality_test(data, annulus, pert, quad),
        "euler_lagrange_integral": lambda: euler_lagrange_integral(data, annulus, pert, quad),
    }


def jet_profile(f, d1):
    """The profile f with first derivative d1 and second derivative 0."""
    return RadialProfile(lambda r: (f(r), d1(r), 0.0 * r))


def flat_metric_data(v, emag):
    """A = 1 and Psi = 0 in three dimensions, with the profiles V and |E|."""
    return SphericalStaticData(n=3, lam=0.0, A=constant_profile(1.0), V=v, Emag=emag,
                               Psi=constant_profile(0.0))


def geometry(geo):
    return {name: getattr(geo, name) for name in GEOMETRY_FIELDS}


def pointwise_calls(data, grid, r_b, roots):
    """The geometry and photon readers on 64 of the grid's radii, at r_b (or
    the grid's middle radius) and at each photon-sphere radius."""
    rs = grid.radii()[:: max(1, grid.count // 64)]
    r = grid.radii()[grid.count // 2] if r_b is None else r_b
    out = {
        "level_set_geometry array": lambda: geometry(level_set_geometry(data, rs)),
        "level_set_geometry scalar": lambda: geometry(level_set_geometry(data, r)),
        "boundary_residual array": lambda: boundary_residual(data, rs),
        "contracted_gauss_residual": lambda: contracted_gauss_residual(data, rs),
        "ricci_radial": lambda: ricci_radial(data, rs),
        "scalar_curvature_d1": lambda: scalar_curvature_d1(data, rs),
        "hessian_radial": lambda: hessian_radial(data, data.V, rs),
        "laplacian_radial": lambda: laplacian_radial(data, data.V, rs),
        "grad_norm": lambda: grad_norm(data, data.V, rs),
        "scan_photon_spheres": lambda: scan_photon_spheres(data),
        "scan_photon_spheres grid": lambda: scan_photon_spheres(data, grid.lo, grid.hi, 512),
    }
    for i, root in enumerate(roots):
        out[f"boundary_residual root {i}"] = lambda root=root: boundary_residual(data, root)
        out[f"quasilocal_check root {i}"] = lambda root=root: quasilocal_check(data, root)
    if data.v_zeros:
        out["horizon_gradient_limit"] = lambda: horizon_gradient_limit(data, data.v_zeros[0])
    return out


def system_agrees_with_master(rep):
    """Whether the first-order system (E1, E2, E3a, E3b) and the master
    equation AE1 pass or fail together in one verify_all report."""
    system = all(rep.entries[tag].passed for tag in ("E1", "E2", "E3a", "E3b"))
    return system == rep.entries["AE1"].passed


def calls(data, grid, r_b, annulus, pert, roots):
    out = {
        "verify_all": lambda: verify_all(data, grid, r_boundary=r_b),
        "residual_system": lambda: residual_system(data, grid),
        "residual_master": lambda: residual_master(data, grid),
        "residual_traced": lambda: residual_traced(data, grid, r_boundary=r_b),
        "residual_pem": lambda: residual_pem(data, grid, r_boundary=r_b),
        "residual_identities": lambda: residual_identities(data, grid),
        "system agrees with AE1": lambda: system_agrees_with_master(verify_all(data, grid)),
        "evaluate_functional": lambda: evaluate_functional(data, annulus),
    }
    if pert is not None:
        out.update({
            "criticality_test": lambda: criticality_test(data, annulus, pert),
            "euler_lagrange_integral": lambda: euler_lagrange_integral(data, annulus, pert),
        })
    out["pohozaev_residual"] = lambda: pohozaev_residual(data, annulus)
    return out | pointwise_calls(data, grid, r_b, roots)


def chart_calls(p, rng):
    """IsotropicChart.point, phi_identity_residual and r_of_s at the branch start and
    at five seeded radii above it, and r_of_s on those five at once."""
    chart = IsotropicChart(p)
    start = chart.s_branch
    scale = max(start, p.m ** (1.0 / chart.k))
    radii = [start, *(start + scale * 10.0 ** rng.uniform(-6.0, 2.0, 5))]
    out = {}
    for i, s in enumerate(radii):
        out[f"point s{i}"] = lambda s=s: chart.point(s)
        out[f"phi_identity_residual s{i}"] = lambda s=s: phi_identity_residual(p, s)
        out[f"r_of_s s{i}"] = lambda s=s: chart.r_of_s(s)
    out["r_of_s array"] = lambda: chart.r_of_s(np.array(radii[1:]))
    return out


def write_table(path, columns=5, lo=2.2, hi=12.0, count=2400):
    """The (3, 1, 0.5) closed form sampled as a table with columns r A V Emag [Psi]."""
    data = rn_data(RNParameters(3, 1.0, 0.5))
    rs = np.geomspace(lo, hi, count)
    names = PROFILES[: columns - 1]
    np.savetxt(path, np.column_stack([rs, *(getattr(data, name)(rs) for name in names)]))


def cli_cases(tmp):
    """(environment, argv) per command line: every command and format, tables
    of 4 and 5 columns, one too narrow for its default grid and one whose
    grid passes its end, one whose |E| overflows when squared, the help
    texts, NaN and huge boundary radii, a non-finite --lam on a table, and
    the usage (exit 2) and domain (exit 3) errors, overflowing parameters and
    dimensions among them; then an annulus too wide for the quadrature; last,
    an empty table, one of comments only, and one with a "1_0" token, which
    float() reads and numpy's reader refuses."""
    write_table(f"{tmp}/t5.dat")
    write_table(f"{tmp}/t4.dat", columns=4)
    write_table(f"{tmp}/t3.dat", columns=3)
    write_table(f"{tmp}/narrow.dat", lo=5.0, hi=5.09, count=40)
    rs = np.linspace(1.0, 2.0, 50)
    np.savetxt(f"{tmp}/huge_e.dat", np.column_stack([rs, np.ones(50), np.ones(50),
                                                     np.full(50, 1e200)]))
    sub = ["--n", "3", "--m", "1", "--q", "0.5"]
    annulus = ["--annulus", "3", "6"]
    table = ["verify", "--n", "3", "--profile", f"{tmp}/t5.dat"]
    narrow = ["verify", "--n", "3", "--profile", f"{tmp}/narrow.dat"]
    cases = [
        ["classify", *sub],
        ["classify", "--n", "3", "--m", "1", "--q", "1.05", "--format", "text"],
        ["classify", "--n", "4", "--m", "1", "--q=-0.5"],
        ["classify", "--n", "3", "--m", "0.5", "--q", "1.0", "--format", "text"],
        ["classify", *sub, "--out", f"{tmp}/report.json"],
        ["classify", "--n", "2", "--m", "1"],
        ["classify", "--n", "3"],
        ["classify", "--n", "3", "--m", "5e153", "--q", "0"],
        ["classify", "--n", "7", "--m", "1.3e154", "--q", "1e150"],
        ["classify", "--n", "5", "--m=4.677351245980863e-256", "--q=7.325555962603106e+153"],
        ["classify", "--n", "3", "--m", "4e153", "--q", "0"],
        ["classify", "--n", "343", "--m", "1"],
        ["classify", "--n", "1" + "0" * 400, "--m", "1"],
        [*table[:2], "1" + "0" * 400, *table[3:]],
        [*table[:2], "2", *table[3:]],
        ["functional", "--n", "344", "--m", "1", "--annulus", "1.5", "3"],
        ["verify", "--n", "7", "--m", "1.3e154", "--q", "1e150"],
        ["functional", "--n", "7", "--m", "1.3e154", "--q", "1e150", "--annulus", "1e31", "2e31"],
        ["verify", "--n", "3", "--m", "1", "--q", "0", "--boundary", "3.0"],
        ["verify", *sub, "--boundary", "nan"],
        ["verify", *sub, "--boundary", "1e308"],
        ["verify", "--n", "4", *sub[2:], "--format", "text"],
        ["verify", *sub, "--lam=-0.0"],
        ["verify", *sub, "--lam", "0.1"],
        ["verify", *sub, "--grid-lo", "2.5", "--grid-hi", "40", "--grid-count", "200",
         "--grid-spacing", "linear"],
        ["verify", *sub, "--grid-count", "1"],
        ["verify", "--n", "3", "--m", "1000", "--q", "2000"],
        ["verify", "--n", "3", "--m", "1000", "--q", "2000", "--grid-lo", "300",
         "--grid-hi", "1e5"],
        ["verify", "--n", "3", "--m", "1e-300", "--q", "1e-301"],
        table,
        [*table, "--format", "text"],
        [*table, "--boundary", "5.0", "--lam=-0.0"],
        [*table, "--lam", "nan"],
        [*table, "--lam", "inf"],
        [*table, "--grid-count", "300", "--grid-spacing", "linear"],
        [*table, "--m", "1"],
        [*table, "--grid-hi", "20"],
        [*table, "--grid-hi", "20", "--grid-count", "20000"],
        ["verify", "--n", "3", "--profile", f"{tmp}/t4.dat"],
        ["verify", "--n", "3", "--profile", f"{tmp}/t3.dat"],
        ["verify", "--n", "3", "--profile", f"{tmp}/missing.dat"],
        narrow,
        ["verify", "--n", "3", "--profile", f"{tmp}/huge_e.dat"],
        [*narrow, "--grid-lo", "5.01", "--grid-hi", "5.08"],
        [*narrow, "--grid-lo", "5.01"],
        ["functional", *sub, *annulus],
        ["functional", *sub, *annulus, "--format", "text"],
        ["functional", *sub, *annulus, "--pert-mode", "radial", "--pert-center", "4",
         "--pert-width", "0.5"],
        ["functional", *sub, *annulus, "--quad-panels", "8", "--quad-nodes", "10",
         "--quad-tol", "1e-8"],
        ["functional", *sub, "--annulus", "6", "3"],
        ["functional", *sub, "--annulus", "3", "inf"],
        ["functional", *sub, *annulus, "--quad-nodes", "101"],
        ["functional", "--n", "4", "--m", "1", "--q", "0.5", "--annulus", "1.2e93", "7e93"],
        ["functional", *sub, *annulus, "--tol", "1e-3"],
        ["functional", "--n", "4", "--m", "0.004753092365147026", "--q=-0.0020097349238832247",
         "--annulus", "0.14833040148834498", "1483304014.8834498", "--pert-mode", "radial"],
        [],
        ["bogus"],
        ["--help"],
        ["classify", "--help"],
        ["verify", "--help"],
        ["functional", "--help"],
    ]
    out = [({}, argv) for argv in cases]
    for value in ("1e-3", "0", "nan", "inf", "-1", "abc"):
        for argv in (["classify", *sub], ["verify", *sub], table):
            out += [({}, [*argv, "--tol", value]), ({"ELECTROVAC_TOL": value}, argv)]
    out.append(({"ELECTROVAC_TOL": "nan"}, ["functional", *sub, *annulus]))
    out.append(({}, ["functional", *sub, "--annulus", "2", "1e307", "--pert-center", "5",
                     "--pert-width", "1"]))
    with open(f"{tmp}/t5.dat") as fh:
        rows = [line.split() for line in fh]
    rows[9][1] = "1_0"
    for name, text in (("empty", ""), ("comments", "# r A V Emag Psi\n\n# no rows\n"),
                       ("underscore", "".join(" ".join(row) + "\n" for row in rows))):
        with open(f"{tmp}/{name}.dat", "w") as fh:
            fh.write(text)
        out.append(({}, ["verify", "--n", "3", "--profile", f"{tmp}/{name}.dat"]))
    return out


def run_cli(env, argv):
    """Exit code, stdout and the last stderr line of cli.main(argv) under env;
    an exception that escapes cli.main stands in for the exit code by its
    type name."""
    saved = {name: os.environ.get(name) for name in env}
    stdout, stderr = io.StringIO(), io.StringIO()
    os.environ.update(env)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback at the command line
        code = type(exc).__name__
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name)
            else:
                os.environ[name] = value
    return code, stdout.getvalue(), (stderr.getvalue().splitlines() or [""])[-1]


def run_fresh_cli(env, argv):
    """run_cli's three fields from a new `python -m electrovac.cli` process."""
    res = subprocess.run([sys.executable, "-m", "electrovac.cli", *argv], capture_output=True,
                         text=True, env={**os.environ, **env})
    return res.returncode, res.stdout, (res.stderr.splitlines() or [""])[-1]


def sweep_lines(sets=40, seed=13) -> list:
    """(set label, JSON line) per line of the sweep."""
    out = []
    chart_rng = np.random.default_rng(seed + 1)
    with np.errstate(all="ignore"):
        for label, p, *case in [*drawn_sets(sets, seed), *edge_sets()]:
            charts = chart_calls(p, chart_rng)  # drawn for an empty slot too
            if not case:
                continue
            for name, fn in (calls(*case) | charts).items():
                out.append((label, {"set": label, "call": name, "out": outcome(fn)}))
        for label, *case in ladder_sets():
            for name, fn in ladder_calls(*case).items():
                out.append((label, {"set": label, "call": name, "out": outcome(fn)}))
        for label, name, fn in bump_calls():
            out.append((label, {"set": label, "call": name, "out": outcome(fn)}))
        ball = outcome(lambda: euclidean_ball_residuals(BallStaticExample.default()))
        out.append(("flat ball", {"set": "flat ball", "call": "euclidean_ball_residuals",
                                  "out": ball}))
        for label, name, fn in guard_calls():
            out.append((label, {"set": label, "call": name, "out": guarded(fn)}))
    return [(label, json.dumps(line)) for label, line in out]


def cli_lines(fresh=False) -> list:
    """(command line, JSON line) per command line of cli_cases, each run in
    process or, with fresh, in its own interpreter."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for env, cli_argv in cli_cases(tmp):
            code, stdout, err = (run_fresh_cli if fresh else run_cli)(env, cli_argv)
            report = os.path.join(tmp, "report.json")
            if os.path.exists(report):
                with open(report) as fh:
                    stdout += fh.read()
                os.remove(report)
            line = {"env": env, "argv": cli_argv, "exit": code, "stdout": stdout, "stderr": err}
            label = " ".join(["cli", *(f"{k}={v}" for k, v in env.items()), *cli_argv])
            out.append((label.replace(tmp, "<tmp>"), json.dumps(line).replace(tmp, "<tmp>")))
    return out


def digests(lines) -> dict:
    """{label: SHA-256 of that label's lines, each ended by a newline}, in the
    order of each label's first line."""
    out = {}
    for label, line in lines:
        out.setdefault(label, hashlib.sha256()).update(line.encode() + b"\n")
    return {label: h.hexdigest() for label, h in out.items()}


def read_digest(path=DIGEST) -> dict:
    """The {label: SHA-256} that --write-digest wrote to path."""
    with open(path) as fh:
        return dict(reversed(line.rstrip("\n").split("  ", 1)) for line in fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=40, help="drawn parameter sets")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--cli", action="store_true", help="sweep the command lines instead")
    parser.add_argument("--fresh", action="store_true",
                        help="with --cli, run each command line in its own interpreter")
    parser.add_argument("--write-digest", action="store_true",
                        help=f"write the digest of the sweep and the in-process --cli lines to {DIGEST}")
    args = parser.parse_args(argv)
    if args.write_digest:
        found = digests(sweep_lines(args.sets, args.seed) + cli_lines())
        with open(DIGEST, "w") as fh:
            fh.writelines(f"{digest}  {label}\n" for label, digest in found.items())
        return
    lines = cli_lines(args.fresh) if args.cli else sweep_lines(args.sets, args.seed)
    sys.stdout.writelines(line + "\n" for _, line in lines)


if __name__ == "__main__":
    main()
