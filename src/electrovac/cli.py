"""Command-line interface.

Three subcommands over the charged static family (or a tabulated profile):

  classify    regime, photon-sphere radii with admissibility, slice checks
  verify      residuals of every defining equation over a radial grid
  functional  annulus functional, criticality ladder, divergence identity

Reports are JSON documents with the fixed top-level keys {command, params,
results, tolerances, verdict}; physical conventions (normal orientation,
coupling constant, lam) are echoed under params. Identical invocations
produce byte-identical output. Exit codes: 0 pass, 1 verification failed,
2 usage error, 3 I/O or domain error.

The identity tolerance defaults to 1e-9 for closed-form data and 1e-5 for
tabulated data; the ELECTROVAC_TOL environment variable overrides the
default, and --tol overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from .errors import DegeneracyError, DomainError, NumericsError, ParameterError
from .geometry import SphericalStaticData
from .models import RNParameters, coupling_constant, rn_data, rn_horizon, rn_r0
from .photon import classify_configuration, photon_sphere_radii, quasilocal_check
from .profiles import tabulated_profile
from .residuals import GridSpec, default_grid, default_tolerance, verify_all
from .variational import (
    Perturbation,
    QuadratureConfig,
    criticality_test,
    evaluate_functional,
    pohozaev_residual,
)

POHOZAEV_TOL = 1e-7


def _conventions(n: int, lam: float) -> dict:
    return {
        "normal_orientation": "toward increasing r",
        "coupling_constant": coupling_constant(n),
        "lam": lam,
    }


def _resolve_tol(args, data: SphericalStaticData) -> float:
    if getattr(args, "tol", None) is not None:
        return float(args.tol)
    env = os.environ.get("ELECTROVAC_TOL")
    if env is not None:
        try:
            return float(env)
        except ValueError as exc:
            raise ParameterError(f"ELECTROVAC_TOL is not a number: {env!r}") from exc
    return default_tolerance(data)


def _params_from_args(args) -> RNParameters:
    if args.m is None:
        raise ParameterError("--m is required unless --profile is given")
    return RNParameters(n=args.n, m=args.m, q=args.q)


def load_table(path: str, n: int, lam: float) -> SphericalStaticData:
    """Whitespace-separated columns r A V Emag [Psi]; '#' starts a comment."""
    try:
        arr = np.loadtxt(path, comments="#", ndmin=2)
    except ValueError as exc:
        raise DomainError(f"unreadable table {path}: {exc}") from exc
    if arr.shape[1] not in (4, 5):
        raise DomainError(
            f"table must have 4 or 5 columns (r A V Emag [Psi]), got {arr.shape[1]}")
    r = arr[:, 0]
    if np.any(np.diff(r) <= 0):
        raise DomainError("table radii must be strictly increasing")
    if np.any(arr[:, 1] <= 0):
        raise DomainError("metric coefficient A must be positive")
    psi = tabulated_profile(r, arr[:, 4]) if arr.shape[1] == 5 else None
    return SphericalStaticData(
        n=n,
        lam=lam,
        A=tabulated_profile(r, arr[:, 1]),
        V=tabulated_profile(r, arr[:, 2]),
        Emag=tabulated_profile(r, arr[:, 3]),
        Psi=psi,
        r_scale=max(1.0, float(r[0])),
    )


def _grid_for(args, data: SphericalStaticData) -> GridSpec:
    lo, hi = data.domain
    if np.isfinite(hi):
        # Bounded (tabulated) domain: stay off the spline edges.
        glo = lo * 1.01 if lo > 0 else 0.01 * hi
        ghi = hi * 0.99
        base = GridSpec(lo=glo, hi=ghi, count=args.grid_count,
                        spacing=args.grid_spacing)
    else:
        base = default_grid(data, count=args.grid_count)
        if args.grid_spacing != base.spacing:
            base = GridSpec(base.lo, base.hi, base.count, args.grid_spacing)
    glo = args.grid_lo if args.grid_lo is not None else base.lo
    ghi = args.grid_hi if args.grid_hi is not None else base.hi
    return GridSpec(lo=glo, hi=ghi, count=args.grid_count, spacing=args.grid_spacing)


def cmd_classify(args) -> tuple[dict, bool]:
    p = _params_from_args(args)
    data = rn_data(p)
    tol = _resolve_tol(args, data)
    result = photon_sphere_radii(p)
    klass = classify_configuration(p)

    spheres = []
    all_pass = True
    for root in result.roots:
        ql = quasilocal_check(data, root.r, tol=tol)
        all_pass = all_pass and ql.passed
        spheres.append({
            "r": root.r,
            "u": root.u,
            "multiplicity": root.multiplicity,
            "quasilocal": {
                "q1_residual": ql.q1_residual,
                "q2_residual": ql.q2_residual,
                "ric_nn_residual": ql.ric_nn_residual,
                "extremality": ql.extremality,
                "passed": ql.passed,
            },
        })
    counts_agree = result.count == klass.count
    ok = all_pass and counts_agree

    results = {
        "regime": klass.regime,
        "description": klass.description,
        "predicted_count": klass.count,
        "count": result.count,
        "counts_agree": counts_agree,
        "discriminant": result.discriminant,
        "horizon": rn_horizon(p),
        "r0": rn_r0(p),
        "photon_spheres": spheres,
        "rejected": [
            {"u": rej.u, "r": rej.r, "reason": rej.reason} for rej in result.rejected
        ],
    }
    doc = {
        "command": "classify",
        "params": {"n": p.n, "m": p.m, "q": p.q, "lam": p.lam,
                   "conventions": _conventions(p.n, p.lam)},
        "results": results,
        "tolerances": {"identity": tol},
        "verdict": "pass" if ok else "fail",
    }
    return doc, ok


def cmd_verify(args) -> tuple[dict, bool]:
    if args.profile is not None:
        if args.m is not None:
            raise ParameterError("give either --profile or --m/--q, not both")
        data = load_table(args.profile, n=args.n, lam=args.lam)
        params: dict = {"n": args.n, "lam": args.lam, "profile": args.profile}
    else:
        p = _params_from_args(args)
        if args.lam != 0.0:
            raise ParameterError("the closed-form family is built with lam = 0")
        data = rn_data(p)
        params = {"n": p.n, "m": p.m, "q": p.q, "lam": p.lam}
    params["conventions"] = _conventions(args.n, args.lam)

    tol = _resolve_tol(args, data)
    grid = _grid_for(args, data)
    report = verify_all(data, grid, tol=tol, r_boundary=args.boundary)
    ok = report.passed

    doc = {
        "command": "verify",
        "params": params | ({"boundary": args.boundary} if args.boundary is not None else {}),
        "results": report.to_dict(),
        "tolerances": {"identity": tol},
        "verdict": "pass" if ok else "fail",
    }
    return doc, ok


def cmd_functional(args) -> tuple[dict, bool]:
    p = _params_from_args(args)
    data = rn_data(p)
    r1, r2 = args.annulus
    center = args.pert_center if args.pert_center is not None else 0.5 * (r1 + r2)
    width = args.pert_width if args.pert_width is not None else 0.25 * (r2 - r1)
    pert = Perturbation(center=center, halfwidth=width, mode=args.pert_mode)
    quad = QuadratureConfig(panels=args.quad_panels, nodes=args.quad_nodes,
                            tol=args.quad_tol)

    value = evaluate_functional(data, (r1, r2), None, quad)
    crit = criticality_test(data, (r1, r2), pert, quad)
    poho = pohozaev_residual(data, (r1, r2), quad)
    poho_ok = poho <= POHOZAEV_TOL
    ok = crit.passed and poho_ok

    results = {
        "value": value,
        "derivative_table": [
            {"epsilon": e, "derivative": d}
            for e, d in zip(crit.epsilons, crit.derivatives)
        ],
        "slope": crit.slope,
        "refined_derivative": crit.refined,
        "pert_norm": crit.pert_norm,
        "critical": crit.passed,
        "pohozaev_residual": poho,
        "pohozaev_ok": poho_ok,
    }
    doc = {
        "command": "functional",
        "params": {
            "n": p.n, "m": p.m, "q": p.q, "lam": p.lam,
            "annulus": [r1, r2],
            "perturbation": {"center": center, "halfwidth": width, "mode": args.pert_mode},
            "conventions": _conventions(p.n, p.lam),
        },
        "results": results,
        "tolerances": {
            "criticality": crit.tol,
            "pohozaev": POHOZAEV_TOL,
            "quadrature": quad.tol,
        },
        "verdict": "pass" if ok else "fail",
    }
    return doc, ok


def _render_text(doc: dict) -> str:
    lines = [f"command: {doc['command']}"]
    results = doc["results"]
    if doc["command"] == "classify":
        lines.append(f"regime: {results['regime']} ({results['description']})")
        if results["horizon"] is not None:
            lines.append(f"horizon: r = {results['horizon']!r}")
        lines.append(f"photon spheres: {results['count']} "
                     f"(predicted {results['predicted_count']})")
        for s in results["photon_spheres"]:
            ql = s["quasilocal"]
            lines.append(
                f"  r = {s['r']!r} (multiplicity {s['multiplicity']}, "
                f"{ql['extremality']} slice, checks "
                f"{'pass' if ql['passed'] else 'fail'})")
        for rej in results["rejected"]:
            if rej["r"] is not None:
                where = f" r = {rej['r']!r}"
            elif rej["u"] is not None:
                where = f" u = {rej['u']!r}"
            else:
                where = ""
            lines.append(f"  rejected{where}: {rej['reason']}")
    elif doc["command"] == "verify":
        for tag, entry in results["equations"].items():
            status = "pass" if entry["passed"] else "FAIL"
            if entry.get("worst_radius") is None:
                lines.append(f"{tag}: {status} ({entry.get('note', 'structural')})")
            else:
                lines.append(
                    f"{tag}: max {entry['max_residual']:.3e} "
                    f"at r = {entry['worst_radius']:.6g}, {status}")
        lines.append(f"grid: {results['grid']}")
    else:
        lines.append(f"value: {results['value']!r}")
        for row in results["derivative_table"]:
            lines.append(f"  eps = {row['epsilon']:g}: dF = {row['derivative']:.6e}")
        lines.append(f"slope: {results['slope']:.3f}")
        lines.append(f"refined derivative: {results['refined_derivative']:.6e} "
                     f"(tol {doc['tolerances']['criticality']:.3e})")
        lines.append(f"divergence identity residual: {results['pohozaev_residual']:.3e}")
    lines.append(f"verdict: {doc['verdict']}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="electrovac",
        description="Static electro-vacuum data: verification and photon-sphere analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, grids=False):
        sp.add_argument("--n", type=int, required=True, help="spatial dimension, >= 3")
        sp.add_argument("--m", type=float, default=None, help="mass parameter")
        sp.add_argument("--q", type=float, default=0.0, help="charge parameter")
        sp.add_argument("--tol", type=float, default=None,
                        help="identity tolerance (default: per-data; env ELECTROVAC_TOL)")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")
        if grids:
            sp.add_argument("--grid-count", type=int, default=1000)
            sp.add_argument("--grid-lo", type=float, default=None)
            sp.add_argument("--grid-hi", type=float, default=None)
            sp.add_argument("--grid-spacing", choices=("log", "linear"), default="log")

    sp = sub.add_parser("classify", help="regime and photon-sphere analysis")
    common(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("verify", help="residuals of the defining equations")
    common(sp, grids=True)
    sp.add_argument("--profile", default=None,
                    help="table file with columns r A V Emag [Psi]")
    sp.add_argument("--lam", type=float, default=0.0)
    sp.add_argument("--boundary", type=float, default=None,
                    help="radius for the boundary-condition residuals")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("functional", help="annulus functional and criticality")
    common(sp)
    sp.add_argument("--annulus", type=float, nargs=2, required=True,
                    metavar=("R1", "R2"))
    sp.add_argument("--pert-center", type=float, default=None)
    sp.add_argument("--pert-width", type=float, default=None)
    sp.add_argument("--pert-mode", choices=("radial", "tangential", "both"),
                    default="both")
    sp.add_argument("--quad-panels", type=int, default=16)
    sp.add_argument("--quad-nodes", type=int, default=12)
    sp.add_argument("--quad-tol", type=float, default=1e-9)
    sp.set_defaults(fn=cmd_functional)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, ok = args.fn(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NumericsError, DegeneracyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    text = json.dumps(doc, indent=2) + "\n" if args.format == "json" else _render_text(doc)
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
