"""float.hex sweep of the residual, variational, geometry and photon entry points.

Prints one JSON line per (parameter set, call): the call's result with every
float written as float.hex, so equal output means equal bits, or the type and
message of the ElectrovacError it raised. Run it in two checkouts and diff:

    PYTHONPATH=src python tests/hexsweep.py > a.jsonl
    (in the other checkout) PYTHONPATH=src python tests/hexsweep.py > b.jsonl
    diff a.jsonl b.jsonl

The sets are seeded: closed-form data plain and with a bump in V, the same
data as cubic tables and as value-only profiles (difference jets), n from 3
to 7 in every regime, and a few sets that end in errors. The pointwise
readers run on 64 radii of each grid, on one scalar radius, and at each
closed-form photon-sphere radius. pytest does not collect this file. Floating-point warnings are silenced: only results and
errors are compared.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from electrovac import (
    ElectrovacError,
    GridSpec,
    Perturbation,
    RadialProfile,
    RNParameters,
    SphericalStaticData,
    boundary_residual,
    contracted_gauss_residual,
    criticality_test,
    default_grid,
    equivalence_property,
    euler_lagrange_integral,
    evaluate_functional,
    grad_norm,
    hessian_radial,
    horizon_gradient_limit,
    laplacian_radial,
    level_set_geometry,
    perturbation_norm,
    perturbed_potential_data,
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
    tabulated_profile,
    verify_all,
)

PROFILES = ("A", "V", "Emag", "Psi")
COUNTS = (300, 2000, 20_000)
MODES = ("radial", "tangential", "both")
GEOMETRY_FIELDS = ("r", "H", "B_tan", "R_S", "nuV", "ric_nn")


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
    their fields, numpy scalars as Python floats."""
    if hasattr(out, "to_dict"):
        return out.to_dict()
    if dataclasses.is_dataclass(out):
        return {f.name: plain(getattr(out, f.name)) for f in dataclasses.fields(out)}
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
    """(label, data, grid, r_boundary, annulus, perturbation, photon-sphere
    radii) per set; the kind cycles through plain, bumped, table and
    value-only data."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        p = parameters(rng, i)
        base = rn_data(p)
        # default_grid's lower end, up two decades: its upper end, 100, can lie below that.
        lo = default_grid(base, count=2).lo if base.domain[0] > 0 else 0.5 * base.r_scale
        grid = GridSpec(lo, 100.0 * lo, count=COUNTS[i % len(COUNTS)])
        roots = [root.r for root in photon_sphere_radii(p).roots]
        r_b = roots[-1] if roots else 2.0 * base.r_scale
        kind = ("plain", "bumped", "table", "value-only")[i % 4]
        if kind == "bumped":
            c = grid.lo * (grid.hi / grid.lo) ** float(rng.uniform(0.25, 0.75))
            data = perturbed_potential_data(base, 1e-3, c, 0.1 * c)
        elif kind == "table":
            rs = np.geomspace(grid.lo, grid.hi, 600)
            data = SphericalStaticData(
                n=p.n, lam=0.0, v_zeros=base.v_zeros, r_scale=base.r_scale,
                **{name: tabulated_profile(rs, getattr(base, name)(rs)) for name in PROFILES})
            grid = GridSpec(rs[1], rs[-2], count=grid.count)
        elif kind == "value-only":
            data = SphericalStaticData(
                n=p.n, lam=0.0, v_zeros=base.v_zeros, r_scale=base.r_scale,
                **{name: RadialProfile(getattr(base, name).value, domain=getattr(base, name).domain)
                   for name in PROFILES})
        else:
            data = base
        r1 = grid.lo * 1.5
        annulus = (r1, 2.0 * r1)
        pert = Perturbation(center=1.5 * r1, halfwidth=0.25 * r1, mode=MODES[i % 3])
        yield f"{i} {kind} {p}", data, grid, r_b, annulus, pert, roots


def edge_sets():
    """Sets at extreme scales and with bad grids or radii, most of which raise."""
    for p in (RNParameters(3, 1e-300, 1e-301), RNParameters(3, 1e-301, 1e-300),
              RNParameters(5, 1e-200, 2e-200), RNParameters(4, 1e150, 1e149),
              RNParameters(3, 1e-150, 1e-100)):
        data = rn_data(p)
        grid = default_grid(data, count=2000)
        roots = [root.r for root in photon_sphere_radii(p).roots]
        yield (f"scale {p}", data, grid, 2.0 * grid.lo, (1.5 * grid.lo, 3.0 * grid.lo), None,
               roots)
    p = RNParameters(3, 1.0, 0.5)
    data, roots = rn_data(p), [root.r for root in photon_sphere_radii(p).roots]
    yield ("grid below the horizon", data, GridSpec(1.0, 20.0, count=500), None, (1.0, 3.0),
           None, roots)
    yield ("boundary outside the domain", data, default_grid(data, 500), 0.5, (2.0, 3.0), None,
           [0.5, *roots])


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


def calls(data, grid, r_b, annulus, pert, roots):
    out = {
        "verify_all": lambda: verify_all(data, grid, r_boundary=r_b),
        "residual_system": lambda: residual_system(data, grid),
        "residual_master": lambda: residual_master(data, grid),
        "residual_traced": lambda: residual_traced(data, grid, r_boundary=r_b),
        "residual_pem": lambda: residual_pem(data, grid, r_boundary=r_b),
        "residual_identities": lambda: residual_identities(data, grid),
        "equivalence_property": lambda: equivalence_property(data, grid),
        "evaluate_functional": lambda: evaluate_functional(data, annulus),
    }
    if pert is not None:
        out.update({
            "perturbation_norm": lambda: perturbation_norm(data, annulus, pert),
            "criticality_test": lambda: criticality_test(data, annulus, pert),
            "euler_lagrange_integral": lambda: euler_lagrange_integral(data, annulus, pert),
        })
    out["pohozaev_residual"] = lambda: pohozaev_residual(data, annulus)
    return out | pointwise_calls(data, grid, r_b, roots)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=40, help="drawn parameter sets")
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)
    with np.errstate(all="ignore"):
        for label, *case in [*drawn_sets(args.sets, args.seed), *edge_sets()]:
            for name, fn in calls(*case).items():
                line = {"set": label, "call": name, "out": outcome(fn)}
                sys.stdout.write(json.dumps(line) + "\n")


if __name__ == "__main__":
    main()
