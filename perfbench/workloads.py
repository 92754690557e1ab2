"""The four workloads: seeded input streams, the timed operation, its check,
and the extra layer calls the traced run makes after each operation.

Every workload draws the family parameters the way acceptance criterion 02
does: n in {3, 4, 5}, m ~ U[0.3, 3], q = m * U[-1.8, 1.8], which covers all
three regimes and both charge signs. Nothing drawn is filtered afterwards.
The program receives only these generated inputs; the expected answers come
from ``oracle``.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from electrovac import (
    Perturbation,
    RNParameters,
    classify_configuration,
    criticality_test,
    default_grid,
    euler_lagrange_integral,
    evaluate_functional,
    hessian_radial,
    horizon_gradient_limit,
    isotropic_inverse,
    laplacian_radial,
    perturbed_potential_data,
    photon_sphere_radii,
    pohozaev_residual,
    quasilocal_check,
    ricci_radial,
    rn_data,
    scalar_curvature,
    scan_photon_spheres,
    verify_all,
)
from electrovac import cli as ev_cli
from electrovac import residuals as ev_residuals

from . import oracle
from .spans import CLI_COMMANDS, FAMILIES

DENSE_RADII = 100_000
BUMP_AMPLITUDE = 1e-3
TABLES = 4
TABLE_ROWS = 400
# Radial bumps hit the known slope-fit defect (oracle.KNOWN_DEFECTS), so the
# timed stream cycles the other two modes and radial_criticality_probe
# measures radial bumps in every traced run.
MODES = ("tangential", "both")
RADIAL_PROBE_DRAWS = 30
VARIATIONAL_BATCH = 4
PHOTON_BATCH = 8
CLI_TIMEOUT_S = 60


@dataclass(frozen=True)
class Context:
    root: Path
    python: str
    env: dict
    tables: tuple[tuple[str, int], ...]  # (absolute path, n) per table


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[np.random.Generator, Context], Iterator[dict]]
    op: Callable        # (input, tracer, context) -> output
    check: Callable     # (input, output) -> problems
    probe: Optional[Callable] = None  # (input, output, tracer), traced run only


def draw_params(rng) -> tuple[int, float, float]:
    n = int(rng.integers(3, 6))
    m = float(rng.uniform(0.3, 3.0))
    q = m * float(rng.uniform(-1.8, 1.8))
    return n, m, q


def draw_annulus(rng, n, m, q) -> tuple[float, float]:
    base = max(oracle.domain_edge(n, m, q), oracle.char_radius(n, m, q))
    r1 = base * float(rng.uniform(1.3, 2.0))
    return r1, r1 * float(rng.uniform(1.5, 3.0))


def _profiles(data):
    return (data.A, data.V, data.Emag, data.Psi)


# ---------------------------------------------------------------------------
# cli_cold: one fresh `python -m electrovac.cli` process per operation


def write_tables(rng, out_dir: Path) -> tuple[tuple[str, int], ...]:
    """5-column tables r A V Emag Psi of drawn family members, from the closed form."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = []
    for j in range(TABLES):
        n, m, q = draw_params(rng)
        edge = oracle.domain_edge(n, m, q)
        lo = 1.01 * edge if edge > 0 else 0.5 * oracle.char_radius(n, m, q)
        r = np.geomspace(lo, 100.0 * max(1.0, edge), TABLE_ROWS)
        k = n - 2
        w = oracle.v_squared(n, m, q, r)
        cn = np.sqrt(2.0 * k / (n - 1))
        cols = np.column_stack([r, 1.0 / w, np.sqrt(w), k * abs(q) / (cn * r ** (n - 1)),
                                q / (cn * r ** k)])
        path = out_dir / f"table{j}.txt"
        np.savetxt(path, cols, fmt="%.17g",
                   header=f"charged family n={n} m={m!r} q={q!r}; columns r A V Emag Psi")
        tables.append((str(path), n))
    return tuple(tables)


def cli_inputs(rng, ctx: Context):
    """Round robin over classify, verify, functional and verify --profile."""
    i = 0
    while True:
        kind = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        if kind == "verify_table":
            path, n = ctx.tables[(i // len(CLI_COMMANDS)) % len(ctx.tables)]
            yield {"kind": kind, "argv": ["verify", "--n", str(n), "--profile", path]}
        else:
            n, m, q = draw_params(rng)
            argv = ["--n", str(n), "--m", repr(m), "--q", repr(q)]
            inp = {"kind": kind, "p": (n, m, q)}
            if kind == "classify":
                argv = ["classify", *argv]
            elif kind == "verify":
                radii = oracle.photon_radii(n, m, q)
                inp["boundary"] = bool(radii)
                argv = ["verify", *argv] + (["--boundary", repr(radii[-1])] if radii else [])
            else:
                argv = ["functional", *argv, "--annulus", *map(repr, draw_annulus(rng, n, m, q))]
            inp["argv"] = argv
            yield inp
        i += 1


def cli_op(inp, tr, ctx: Context):
    proc = subprocess.run([ctx.python, "-m", "electrovac.cli", *inp["argv"]],
                          cwd=ctx.root, env=ctx.env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def cli_check(inp, out) -> list:
    rc, text = out
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    kind = inp["kind"]
    if kind == "classify":
        return oracle.check_classify(doc, rc, *inp["p"])
    if kind == "verify":
        return oracle.check_verify(doc, rc, inp["boundary"])
    if kind == "functional":
        return oracle.check_functional(doc, rc, ev_cli.POHOZAEV_TOL)
    return oracle.check_table(doc, rc)


# ---------------------------------------------------------------------------
# verify_dense: every residual tag on a 1e5-radius grid


def dense_inputs(rng, ctx):
    i = 0
    while True:
        n, m, q = draw_params(rng)
        radii = oracle.photon_radii(n, m, q)
        yield {"p": (n, m, q), "boundary": radii[-1] if radii else None,
               "perturbed": i % 4 == 3, "bump_at": float(rng.uniform(0.25, 0.75))}
        i += 1


def dense_op(inp, tr, ctx):
    with tr.span("models.rn_data"):
        data = rn_data(RNParameters(*inp["p"]))
    grid = default_grid(data, count=DENSE_RADII)
    if inp["perturbed"]:
        # Gaussian bump in V centred between the grid's log-quartiles.
        c = grid.lo * (grid.hi / grid.lo) ** inp["bump_at"]
        data = perturbed_potential_data(data, BUMP_AMPLITUDE, c, 0.1 * c)
    with tr.span("residuals.verify_all"):
        report = verify_all(data, grid, r_boundary=inp["boundary"])
    with tr.span("residuals.report"):
        text = json.dumps(report.to_dict())
    return data, grid, text


def dense_check(inp, out) -> list:
    return oracle.check_dense(json.loads(out[2]), inp["perturbed"])


def dense_probe(inp, out, tr):
    data, grid, _ = out
    rs = grid.radii()
    with tr.span("profiles.grid_eval", points=rs.size):
        for prof in _profiles(data):
            prof.value(rs)
            prof.d1(rs)
            prof.d2(rs)
    with tr.span("geometry.grid_ops", points=rs.size):
        ricci_radial(data, rs)
        scalar_curvature(data, rs)
        hessian_radial(data, data.V, rs)
        laplacian_radial(data, data.V, rs)
    # Each residual family on its own, for residuals.shared_ratio.
    for fam in FAMILIES:
        fn = getattr(ev_residuals, fam, None)
        if fn is None:
            continue
        kwargs = {"r_boundary": inp["boundary"]} if fam in ("residual_traced", "residual_pem") else {}
        with tr.span(f"residuals.{fam}"):
            fn(data, grid, **kwargs)


# ---------------------------------------------------------------------------
# variational_sweep: functional, criticality ladder, identity and first variation


def variational_inputs(rng, ctx):
    """VARIATIONAL_BATCH parameter sets per operation.

    The slowest single sets were host stalls: rerun, each took the median
    time. A 40 ms set is shorter than a stall, so the tail of single sets
    counted stalls. A batch spreads a stall over fewer operations."""
    i = 0
    while True:
        batch = []
        for _ in range(VARIATIONAL_BATCH):
            n, m, q = draw_params(rng)
            batch.append({"p": (n, m, q), "annulus": draw_annulus(rng, n, m, q),
                          "mode": MODES[i % len(MODES)]})
            i += 1
        yield {"sets": tuple(batch)}


def midpoint_bump(r1, r2, mode) -> Perturbation:
    return Perturbation(center=0.5 * (r1 + r2), halfwidth=0.25 * (r2 - r1), mode=mode)


def variational_set(s, tr):
    r1, r2 = s["annulus"]
    with tr.span("models.rn_data"):
        data = rn_data(RNParameters(*s["p"]))
    pert = midpoint_bump(r1, r2, s["mode"])
    with tr.span("variational.evaluate_functional"):
        value = evaluate_functional(data, (r1, r2))
    with tr.span("variational.criticality_test"):
        crit = criticality_test(data, (r1, r2), pert)
    with tr.span("variational.pohozaev_residual"):
        poho = pohozaev_residual(data, (r1, r2))
    with tr.span("variational.euler_lagrange_integral"):
        el = euler_lagrange_integral(data, (r1, r2), pert)
    return value, crit, poho, el


def variational_op(inp, tr, ctx):
    return [variational_set(s, tr) for s in inp["sets"]]


def variational_check(inp, out) -> list:
    return [problem for value, crit, poho, el in out
            for problem in oracle.check_variational(
                value, crit.passed, crit.refined, crit.tol, crit.slope, crit.pert_norm,
                poho, ev_cli.POHOZAEV_TOL, el)]


def radial_criticality_probe(rng) -> list:
    """criticality_test on RADIAL_PROBE_DRAWS radial bumps, drawn as in
    variational_sweep; one list of problems per draw."""
    out = []
    for _ in range(RADIAL_PROBE_DRAWS):
        n, m, q = draw_params(rng)
        r1, r2 = draw_annulus(rng, n, m, q)
        try:
            crit = criticality_test(rn_data(RNParameters(n, m, q)), (r1, r2),
                                    midpoint_bump(r1, r2, "radial"))
        except Exception as exc:  # a library error is a failure, as in the timed ops
            out.append([("exception", f"{type(exc).__name__}: {exc}")])
            continue
        out.append(oracle.check_criticality(crit.passed, crit.refined, crit.tol, crit.slope))
    return out


# ---------------------------------------------------------------------------
# photon_roots: closed-form and scanned photon spheres, slice checks, chart inverse


def photon_inputs(rng, ctx):
    """PHOTON_BATCH parameter sets per operation.

    A set with one photon sphere costs about 1.8 times one with none, and the
    draw gives about 36% none, 56% one, 8% two: the median of single sets sits
    in the gap between those modes and jumps between runs. A batch's cost is
    unimodal, so its median is steady."""
    while True:
        batch = []
        for _ in range(PHOTON_BATCH):
            n, m, q = draw_params(rng)
            base = max(oracle.domain_edge(n, m, q), oracle.char_radius(n, m, q))
            iso = tuple(base * float(rng.uniform(lo, hi))
                        for lo, hi in ((1.05, 1.5), (1.5, 4.0), (4.0, 20.0)))
            batch.append({"p": (n, m, q), "iso": iso,
                          "horizon": oracle.horizon(n, m, q) if m > abs(q) else None})
        yield {"sets": tuple(batch)}


def photon_set(s, tr):
    p = RNParameters(*s["p"])
    with tr.span("models.rn_data"):
        data = rn_data(p)
    with tr.span("photon.photon_sphere_radii"):
        res = photon_sphere_radii(p)
    with tr.span("photon.classify_configuration"):
        klass = classify_configuration(p)
    with tr.span("photon.scan_photon_spheres"):
        scan = scan_photon_spheres(data)
    slices = []
    for root in res.roots:
        with tr.span("photon.quasilocal_check"):
            slices.append(quasilocal_check(data, root.r))
    iso = []
    for r in s["iso"]:
        with tr.span("models.isotropic_inverse"):
            iso.append((r, isotropic_inverse(p, r)))
    grad = None
    if s["horizon"] is not None:
        with tr.span("geometry.horizon_gradient_limit"):
            grad = horizon_gradient_limit(data, s["horizon"])
    return data, res, klass, scan, slices, iso, grad


def check_photon_set(s, out) -> list:
    _, res, klass, scan, slices, iso, grad = out
    return oracle.check_photon(
        *s["p"], closed_form=[root.r for root in res.roots], predicted=klass.count,
        scan=scan,
        quasilocal=[(x.q1_residual, x.q2_residual, x.ric_nn_residual, x.extremality)
                    for x in slices],
        isotropic=iso, gradient=grad)


def photon_op(inp, tr, ctx):
    return [photon_set(s, tr) for s in inp["sets"]]


def photon_check(inp, out) -> list:
    return [problem for s, o in zip(inp["sets"], out) for problem in check_photon_set(s, o)]


def photon_probe(inp, out, tr):
    for data, res, *_ in out:
        for root in res.roots:
            with tr.span("profiles.scalar_eval"):
                for prof in _profiles(data):
                    prof.value(root.r)
                    prof.d1(root.r)
                    prof.d2(root.r)


def scan_matches(inp, out) -> tuple[int, int]:
    """(closed-form simple roots the scan found, closed-form simple roots)."""
    found = expected = 0
    for s, o in zip(inp["sets"], out):
        want = oracle.photon_radii(*s["p"])
        found += sum(1 for b in want if any(abs(x - b) <= oracle.SCAN_REL * b for x in o[3]))
        expected += len(want)
    return found, expected


WORKLOADS = {
    "cli_cold": Workload("cli_cold", cli_inputs, cli_op, cli_check),
    "verify_dense": Workload("verify_dense", dense_inputs, dense_op, dense_check, dense_probe),
    "variational_sweep": Workload("variational_sweep", variational_inputs, variational_op,
                                  variational_check),
    "photon_roots": Workload("photon_roots", photon_inputs, photon_op, photon_check,
                             photon_probe),
}
