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

classify and verify check their identities to a tolerance that defaults
to 1e-9 for closed-form data and 1e-5 for tabulated data; the
ELECTROVAC_TOL environment variable overrides the default, and --tol
overrides both. It must be finite and >= 0.

The parser is built from the standard library alone, so --help and usage
errors load no numpy; each command imports only the modules it runs.
classify loads no numpy either: it reads its data at scalar radii, which
are evaluated in Python floats. Nor does verify on at most 1000 radii, on
closed-form data or on a table: it walks its grid in Python floats, and
load_table reads a plain table in them too, handing any other table to
numpy.loadtxt.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING, Optional

from .errors import MAX_DIMENSION, DomainError, ElectrovacError, ParameterError

if TYPE_CHECKING:
    from .geometry import SphericalStaticData
    from .models import RNParameters

POHOZAEV_TOL = 1e-7


def _conventions(n: int, lam: float) -> dict:
    from .geometry import coupling_constant

    return {
        "normal_orientation": "toward increasing r",
        "coupling_constant": coupling_constant(n),
        "lam": lam,
    }


def _resolve_tol(args, data: SphericalStaticData) -> float:
    from .geometry import default_tolerance, require_tolerance

    tol, env = args.tol, os.environ.get("ELECTROVAC_TOL")
    if tol is None and env is None:
        return default_tolerance(data)
    if tol is None:
        try:
            tol = float(env)
        except ValueError as exc:
            raise ParameterError(f"ELECTROVAC_TOL is not a number: {env!r}") from exc
    return require_tolerance(tol)


def _params_from_args(args) -> RNParameters:
    from .models import RNParameters

    if args.m is None:
        raise ParameterError("--m is required unless --profile is given")
    return RNParameters(n=args.n, m=args.m, q=args.q)


# A token of the tables read in Python floats: a plain ASCII decimal, which
# float() and numpy's reader convert alike.
_DECIMAL = r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"


def _plain_rows(path: str) -> Optional[list]:
    """The rows of a plain table file as lists of floats: ASCII text whose
    lines, up to a '#', hold whitespace-separated plain decimals, as many on
    every line that has any. None for anything else, which numpy reads: a
    path that is not a regular file (a pipe, read once, is numpy's to read),
    one numpy opens otherwise than as a local text file (a URL, a compressed
    suffix), one open() fails on, and any other content."""
    if not os.path.isfile(path) or re.search(r"://|\.(gz|bz2|xz|lzma)$", path):
        return None
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError):
        return None
    rows = [row for row in (line.partition("#")[0].split() for line in lines) if row]
    token = re.compile(_DECIMAL)
    if len({len(row) for row in rows}) > 1 or not all(
            token.fullmatch(t) for row in rows for t in row):
        return None
    return [list(map(float, row)) for row in rows]


def load_table(path: str, n: int, lam: float) -> SphericalStaticData:
    """Whitespace-separated columns r A V Emag [Psi]; '#' starts a comment.

    A plain table (_plain_rows) is read in Python floats; numpy reads any
    other, so its values and its errors are numpy.loadtxt's. DomainError for
    a table with no data rows."""
    from .geometry import SphericalStaticData
    from .profiles import _table_profiles

    rows = _plain_rows(path)
    if rows is None:
        import warnings

        import numpy as np

        try:
            with warnings.catch_warnings():
                # An empty table is an error below, not a warning here.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(path, comments="#", ndmin=2).tolist()
        except ValueError as exc:
            raise DomainError(f"unreadable table {path}: {exc}") from exc
    if not rows:
        raise DomainError(f"table {path} has no data rows")
    if len(rows[0]) not in (4, 5):
        raise DomainError(
            f"table must have 4 or 5 columns (r A V Emag [Psi]), got {len(rows[0])}")
    r, *columns = zip(*rows)
    if any(a <= 0 for a in columns[0]):
        raise DomainError("metric coefficient A must be positive")
    (A, V, Emag, *psi), joint = _table_profiles(r, columns)
    return SphericalStaticData(n=n, lam=lam, A=A, V=V, Emag=Emag, Psi=psi[0] if psi else None,
                               r_scale=max(1.0, r[0]), joint=joint)


def _given(**options) -> dict:
    """The options given on the command line; the library supplies the rest."""
    return {name: value for name, value in options.items() if value is not None}


# Each command returns (params, results, tolerances, ok); main builds the report.
def cmd_classify(args) -> tuple[dict, dict, dict, bool]:
    from .models import rn_data, rn_horizon, rn_r0
    from .photon import classify_configuration, photon_sphere_radii, quasilocal_check

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
    params = {"n": p.n, "m": p.m, "q": p.q, "lam": 0.0,
              "conventions": _conventions(p.n, 0.0)}
    return params, results, {"identity": tol}, ok


def cmd_verify(args) -> tuple[dict, dict, dict, bool]:
    from .residuals import GridSpec, _default_bounds, verify_all

    if args.profile is not None:
        if args.m is not None:
            raise ParameterError("give either --profile or --m/--q, not both")
        data = load_table(args.profile, n=args.n, lam=args.lam)
        params: dict = {"n": args.n, "lam": args.lam, "profile": args.profile}
    else:
        from .models import rn_data

        p = _params_from_args(args)
        if args.lam != 0.0:
            raise ParameterError("the closed-form family is built with lam = 0")
        data = rn_data(p)
        params = {"n": p.n, "m": p.m, "q": p.q, "lam": 0.0}
    params["conventions"] = _conventions(args.n, args.lam)

    tol = _resolve_tol(args, data)
    # The bounds go unvalidated, so explicit ones rescue an empty default.
    lo, hi = _default_bounds(data)
    grid = GridSpec(lo=lo if args.grid_lo is None else args.grid_lo,
                    hi=hi if args.grid_hi is None else args.grid_hi,
                    **_given(count=args.grid_count, spacing=args.grid_spacing))
    report = verify_all(data, grid, tol=tol, r_boundary=args.boundary)
    if args.boundary is not None:
        params["boundary"] = args.boundary
    return params, report.to_dict(), {"identity": tol}, report.passed


def cmd_functional(args) -> tuple[dict, dict, dict, bool]:
    from .models import rn_data
    from .variational import (
        Perturbation,
        QuadratureConfig,
        _require_annulus,
        criticality_test,
        evaluate_functional,
        pohozaev_residual,
    )

    p = _params_from_args(args)
    data = rn_data(p)
    r1, r2 = args.annulus
    # The default bump is derived from the annulus, so a reversed one, or
    # an edge outside the data domain, must be named before the bump it
    # would spoil.
    if not r1 < r2:
        raise ParameterError(f"annulus endpoints out of order: [{r1}, {r2}]")
    _require_annulus(data, (r1, r2))
    center = args.pert_center if args.pert_center is not None else 0.5 * (r1 + r2)
    width = args.pert_width if args.pert_width is not None else 0.25 * (r2 - r1)
    pert = Perturbation(center=center, halfwidth=width, mode=args.pert_mode)
    quad = QuadratureConfig(**_given(panels=args.quad_panels, nodes=args.quad_nodes,
                                     tol=args.quad_tol))

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
        # With fewer than two nonzero rungs there is no log-log slope: null,
        # where NaN would not be JSON.
        "slope": crit.slope if math.isfinite(crit.slope) else None,
        "refined_derivative": crit.refined,
        "pert_norm": crit.pert_norm,
        "critical": crit.passed,
        "pohozaev_residual": poho,
        "pohozaev_ok": poho_ok,
    }
    params = {
        "n": p.n, "m": p.m, "q": p.q, "lam": 0.0,
        "annulus": [r1, r2],
        "perturbation": {"center": center, "halfwidth": width, "mode": args.pert_mode},
        "conventions": _conventions(p.n, 0.0),
    }
    tolerances = {
        "criticality": crit.tol,
        "pohozaev": POHOZAEV_TOL,
        "quadrature": quad.tol,
    }
    return params, results, tolerances, ok


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
        slope = results["slope"]
        lines.append("slope: undefined" if slope is None else f"slope: {slope:.3f}")
        lines.append(f"refined derivative: {results['refined_derivative']:.6e} "
                     f"(tol {doc['tolerances']['criticality']:.3e})")
        lines.append(f"divergence identity residual: {results['pohozaev_residual']:.3e}")
    lines.append(f"verdict: {doc['verdict']}")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """Reads a negative number such as -1e-05 as a value, where argparse
    before Python 3.13 reads it as an unknown option."""

    def _parse_optional(self, arg_string):
        if re.fullmatch(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="electrovac",
        description="Static electro-vacuum data: verification and photon-sphere analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, tol=True):
        sp.add_argument("--n", type=int, required=True,
                        help=f"spatial dimension, 3 to {MAX_DIMENSION}")
        sp.add_argument("--m", type=float, default=None, help="mass parameter")
        sp.add_argument("--q", type=float, default=0.0, help="charge parameter")
        if tol:
            sp.add_argument("--tol", type=float, default=None,
                            help="identity tolerance (default: per-data; env ELECTROVAC_TOL)")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")

    sp = sub.add_parser("classify", help="regime and photon-sphere analysis")
    common(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("verify", help="residuals of the defining equations")
    common(sp)
    sp.add_argument("--grid-count", type=int, default=None)
    sp.add_argument("--grid-lo", type=float, default=None)
    sp.add_argument("--grid-hi", type=float, default=None)
    sp.add_argument("--grid-spacing", choices=("log", "linear"), default=None)
    sp.add_argument("--profile", default=None,
                    help="table file with columns r A V Emag [Psi]")
    sp.add_argument("--lam", type=float, default=0.0)
    sp.add_argument("--boundary", type=float, default=None,
                    help="radius for the boundary-condition residuals")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("functional", help="annulus functional and criticality")
    common(sp, tol=False)
    sp.add_argument("--annulus", type=float, nargs=2, required=True,
                    metavar=("R1", "R2"))
    sp.add_argument("--pert-center", type=float, default=None)
    sp.add_argument("--pert-width", type=float, default=None)
    sp.add_argument("--pert-mode", choices=("radial", "tangential", "both"),
                    default="both")
    sp.add_argument("--quad-panels", type=int, default=None)
    sp.add_argument("--quad-nodes", type=int, default=None)
    sp.add_argument("--quad-tol", type=float, default=None)
    sp.set_defaults(fn=cmd_functional)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params, results, tolerances, ok = args.fn(args)
        doc = {"command": args.command, "params": params, "results": results,
               "tolerances": tolerances, "verdict": "pass" if ok else "fail"}
        text = json.dumps(doc, indent=2) + "\n" if args.format == "json" else _render_text(doc)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
    except (ElectrovacError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParameterError) else 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
