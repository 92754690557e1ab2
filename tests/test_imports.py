"""Package-level contracts: what importing electrovac loads and exports.

electrovac imports no scipy module: table profiles are splines built in
Python floats, the isotropic inverse is solved in closed form, and the
photon-sphere scan refines its brackets with numpy. Importing the package and
its CLI loads no numpy either, each command loads only the modules it runs,
and classify, which reads only scalar radii, loads no numpy at all. Each check
runs in a fresh interpreter, because this test process has long since
imported scipy, the spline's test oracle, and every electrovac module.
"""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

import electrovac
import electrovac.cli

SRC = Path(__file__).resolve().parent.parent / "src"

SCIPY_MODULES = """
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def run_fresh(body: str) -> dict:
    """Run body in a new interpreter on this checkout's src/; return its JSON."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import json, sys\n" + SCIPY_MODULES + textwrap.dedent(body)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_cli_commands_never_load_scipy():
    got = run_fresh("""
        import contextlib, io, math, os, tempfile
        import numpy as np
        import electrovac, electrovac.cli
        from electrovac import RNParameters, rn_data, scan_photon_spheres
        after_import = scipy_modules()
        data = rn_data(RNParameters(3, 1.0, 0.5))
        rs = np.geomspace(2.2, 12.0, 2400)  # as in test_cli: passes at the loose tolerance
        codes = []
        with tempfile.TemporaryDirectory() as tmp:
            table = os.path.join(tmp, "family.dat")
            np.savetxt(table, np.column_stack([rs, data.A(rs), data.V(rs), data.Emag(rs)]))
            for argv in (["classify", "--n", "3", "--m", "1.0", "--q", "0.5"],
                         ["verify", "--n", "3", "--m", "1.0", "--q", "0.0", "--boundary", "3.0"],
                         ["functional", "--n", "3", "--m", "1.0", "--q", "0.5",
                          "--annulus", "3.0", "6.0"],
                         ["verify", "--profile", table, "--n", "3"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(electrovac.cli.main(argv))
        after_commands = scipy_modules()
        scan = scan_photon_spheres(data)
        # u^2 - 3 m u + 2 q^2 = 0 at n = 3; only the larger root is admissible
        want = [(3.0 + math.sqrt(9.0 - 8.0 * 0.25)) / 2.0]
        print(json.dumps({"after_import": after_import, "codes": codes,
                          "after_commands": after_commands, "scan": scan, "want": want,
                          "after_scan": scipy_modules()}))
    """)
    assert got["after_import"] == []
    assert got["codes"] == [0, 0, 0, 0]
    assert got["after_commands"] == []
    assert got["scan"] == pytest.approx(got["want"], rel=1e-14)
    assert got["after_scan"] == []


def test_table_profile_never_loads_scipy():
    got = run_fresh("""
        import numpy as np
        from electrovac import tabulated_profile
        rs = np.linspace(1.0, 3.0, 201)
        p = tabulated_profile(rs, rs ** 3)
        # not-a-knot ends reproduce a cubic
        got = [float(p(2.05)), float(p.d1(2.05)), float(p.d2(2.05))]
        want = [2.05 ** 3, 3 * 2.05 ** 2, 6 * 2.05]
        print(json.dumps({"got": got, "want": want, "after": scipy_modules()}))
    """)
    assert got["got"] == pytest.approx(got["want"], rel=1e-10)
    assert got["after"] == []


def test_isotropic_inverse_never_loads_scipy():
    got = run_fresh("""
        import math
        from electrovac import RNParameters, isotropic_inverse
        got = [isotropic_inverse(RNParameters(3, 1.0, 0.0), 4.0)]
        # Schwarzschild, m = 1: r = s (1 + 1/(2s))^2 inverts to this
        want = [(3.0 + math.sqrt(8.0)) / 2.0]
        print(json.dumps({"got": got, "want": want, "after": scipy_modules()}))
    """)
    assert got["got"] == pytest.approx(got["want"], rel=1e-10)
    assert got["after"] == []


def test_only_the_cli_imports_electrovac_modules_inside_functions():
    # A library module imports what it uses at its top, so the import
    # statements show the whole module graph and no cycle hides in a function
    # body. The CLI alone defers its imports, so each command loads only what
    # it runs.
    def imports_electrovac(node):
        if isinstance(node, ast.ImportFrom):
            return node.level > 0 or node.module.split(".")[0] == "electrovac"
        return isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "electrovac" for alias in node.names)

    found = set()
    for path in sorted((SRC / "electrovac").glob("*.py")):
        if path.name == "cli.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(imports_electrovac(node) for node in ast.walk(fn)):
                    found.add(f"{path.stem}.{fn.name}")
    assert sorted(found) == []


def test_all_exports_no_submodules():
    modules = [name for name in electrovac.__all__
               if isinstance(getattr(electrovac, name), types.ModuleType)]
    assert modules == []
    assert {"rn_data", "verify_all", "RadialProfile", "ElectrovacError"} <= set(electrovac.__all__)


def test_every_export_has_a_caller():
    # A public name that nothing in the library, its tests or its benchmark
    # reads is dead weight: each must appear outside __init__.py and outside
    # the line that defines it. The EXPORTS table below lists every name, so
    # it is no caller.
    root = SRC.parent
    files = [p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py")
             if p.name != "__init__.py" and "out" not in p.relative_to(root).parts]
    text = "\n".join(p.read_text() for p in files)
    text, tables = re.subn(r"^EXPORTS = \{$.*?^\}$", "", text, flags=re.M | re.S)
    assert tables == 1
    unused = []
    for name in electrovac.__all__:
        uses = re.findall(rf"^.*\b{name}\b.*$", text, flags=re.M)
        defining = re.compile(rf"^\s*(def|class)\s+{name}\b|^{name}\s*[:=]")
        if not [line for line in uses if not defining.match(line)]:
            unused.append(name)
    assert unused == []


# Each public name by the submodule that defines it.
EXPORTS = {
    "errors": ["DegeneracyError", "DomainError", "ElectrovacError", "NumericsError",
               "ParameterError"],
    "geometry": ["FrameTensor2", "HypersurfaceGeometry", "SphericalStaticData",
                 "contracted_gauss_residual", "coupling_constant", "default_tolerance",
                 "grad_norm", "hessian_radial",
                 "horizon_gradient_limit", "laplacian_radial", "level_set_geometry",
                 "ricci_radial", "richardson_limit", "scalar_curvature", "scalar_curvature_d1"],
    "models": ["BallStaticExample", "IsotropicChart", "IsotropicPoint", "RNParameters",
               "flat_data", "isotropic_inverse", "perturbed_potential_data",
               "phi_identity_residual", "rn_data", "rn_horizon", "rn_r0"],
    "photon": ["Classification", "PhotonRoot", "PhotonSphereResult", "QuasilocalReport",
               "RejectedRoot", "boundary_residual", "classify_configuration",
               "photon_sphere_radii", "quasilocal_check", "scan_photon_spheres"],
    "profiles": ["RadialProfile", "constant_profile", "tabulated_profile"],
    "residuals": ["EQUATION_TAGS", "GridSpec", "ResidualReport", "TagResult", "default_grid",
                  "euclidean_ball_residuals", "residual_identities", "residual_master",
                  "residual_pem", "residual_system", "residual_traced", "verify_all"],
    "variational": ["CriticalityResult", "Perturbation", "QuadratureConfig", "criticality_test",
                    "euler_lagrange_integral", "evaluate_functional", "pohozaev_residual",
                    "sphere_area", "surface_gravity"],
}

LOADED = """
def loaded(argv):
    import contextlib, io
    import electrovac, electrovac.cli
    code = None
    if argv is not None:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = electrovac.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    # Whether numpy ran, not whether some module is bound to its name:
    # numpy._core is loaded only by numpy's own import.
    return {"code": code, "numpy": "numpy._core" in sys.modules,
            "electrovac": sorted(m for m in sys.modules if m.split(".")[0] == "electrovac")}
"""
PARSER_ONLY = ["electrovac", "electrovac.cli", "electrovac.errors"]
SUB = ["--n", "3", "--m", "1", "--q", "0.5"]


def loaded_after(argv):
    """Exit code, whether numpy is loaded, and the electrovac modules loaded
    after a fresh interpreter imports electrovac and its CLI and, unless argv
    is None, runs argv through main."""
    return run_fresh(LOADED + f"print(json.dumps(loaded({argv!r})))")


@pytest.mark.parametrize("argv, code", [
    (None, None), (["--help"], 0), (["classify", "--help"], 0), (["verify", "--help"], 0),
    (["functional", "--help"], 0), (["bogus"], 2),
], ids=["import", "help", "classify-help", "verify-help", "functional-help", "bogus"])
def test_import_help_and_usage_errors_load_no_numpy(argv, code):
    assert loaded_after(argv) == {"code": code, "numpy": False, "electrovac": PARSER_ONLY}


def _modules(*names):
    return sorted(PARSER_ONLY + [f"electrovac.{name}" for name in names])


VERIFY = _modules("geometry", "models", "profiles", "residuals")
TABLE = _modules("geometry", "profiles", "residuals")
TABLES = {  # columns past r, and the comment line
    "TABLE5": (("A", "V", "Emag", "Psi"), "# r A V Emag Psi"),
    "TABLE4": (("A", "V", "Emag"), "# r A V Emag"),
    "DECLINED": (("A", "V", "Emag", "Psi"), "# r A V Emag \N{GREEK CAPITAL LETTER PSI}"),
}


@pytest.mark.parametrize("argv, modules, numpy", [
    (["classify", *SUB], _modules("geometry", "models", "photon", "profiles"), False),
    (["verify", *SUB], VERIFY, False),
    (["verify", *SUB, "--boundary", "3.0", "--format", "text"], VERIFY, False),
    (["verify", *SUB, "--grid-count", "1001"], VERIFY, True),
    (["verify", "--n", "3", "--profile", "TABLE5"], TABLE, False),
    (["verify", "--n", "3", "--profile", "TABLE4"], TABLE, False),
    (["verify", "--n", "3", "--profile", "DECLINED"], TABLE, True),
    (["functional", *SUB, "--annulus", "3", "6"],
     _modules("geometry", "models", "profiles", "variational"), True),
], ids=["classify", "verify", "verify-boundary-text", "verify-1001", "verify-profile",
        "verify-profile-4", "verify-profile-declined", "functional"])
def test_each_command_loads_only_the_modules_it_runs(argv, modules, numpy, tmp_path):
    # classify needs neither residuals nor variational, verify neither
    # variational nor photon, and functional neither residuals nor photon;
    # verify on a table needs no models either. classify reads only scalar
    # radii, in Python floats, so it loads no numpy, and neither does verify
    # at most 1000 radii, which it walks in Python floats, on closed-form
    # data or on a plain ASCII table, which it reads in them. A table with a
    # non-ASCII byte, even in a comment, is numpy's to read.
    for arg in set(argv) & set(TABLES):
        names, header = TABLES[arg]
        table = tmp_path / "family.dat"
        data = electrovac.rn_data(electrovac.RNParameters(3, 1.0, 0.5))
        rs = np.geomspace(2.2, 12.0, 400)
        np.savetxt(table, np.column_stack([rs, *(getattr(data, name)(rs) for name in names)]),
                   header=header, comments="", encoding="utf-8")
        argv = [str(table) if a == arg else a for a in argv]
    got = loaded_after(argv)
    assert got["code"] in (0, 1) and got["numpy"] == numpy
    assert got["electrovac"] == modules


def test_first_array_reads_from_many_threads_get_numpy_whole():
    # profiles' numpy stand-in imports numpy on the first attribute read;
    # eight threads making that read at once each wait for the whole module.
    got = run_fresh("""
        import threading
        from electrovac import RNParameters, rn_data
        data = rn_data(RNParameters(3, 1.0, 0.5))
        before = "numpy._core" in sys.modules
        out, start = [], threading.Barrier(8)

        def read():
            start.wait(timeout=30)
            try:
                out.append(float(data.V([3.0, 4.0])[1]))
            except Exception as exc:
                out.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        print(json.dumps({"before": before, "alive": any(t.is_alive() for t in threads),
                          "out": out, "want": float(data.V(4.0))}))
    """)
    assert got["before"] is False and got["alive"] is False
    assert got["out"] == [got["want"]] * 8


def test_all_is_the_public_table_and_a_star_import_binds_each_name():
    got = run_fresh("""
        import electrovac
        names = list(electrovac.__all__)
        ns = {}
        exec("from electrovac import *", ns)
        print(json.dumps({"all": names, "bound": sorted(n for n in ns if n != "__builtins__")}))
    """)
    want = sorted(name for names in EXPORTS.values() for name in names)
    assert len(want) == 65
    assert got == {"all": want, "bound": want}


def test_each_name_is_its_modules_object():
    got = run_fresh(f"""
        import importlib
        import electrovac
        exports = {EXPORTS!r}
        print(json.dumps([[module, name] for module, names in exports.items() for name in names
                          if getattr(electrovac, name) is not getattr(
                              importlib.import_module("electrovac." + module), name)]))
    """)
    assert got == []


def test_an_unknown_attribute_raises_attribute_error_naming_it():
    got = run_fresh("""
        import electrovac
        try:
            electrovac.no_such_name
        except AttributeError as exc:
            print(json.dumps(str(exc)))
    """)
    assert got == "module 'electrovac' has no attribute 'no_such_name'"


def test_library_defaults_reach_the_reports_unrestated():
    # The CLI writes no grid or quadrature default: an option not given is
    # not passed, and GridSpec and QuadratureConfig supply it.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                    os.environ.get("PYTHONPATH")])))
    reports = {}
    for command, extra in (("verify", []), ("functional", ["--annulus", "3", "6"])):
        res = subprocess.run([sys.executable, "-m", "electrovac.cli", command, *SUB, *extra],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        reports[command] = json.loads(res.stdout)
    grid, default = reports["verify"]["results"]["grid"], electrovac.GridSpec(1.0, 2.0)
    assert grid.startswith(f"{default.count} {default.spacing}-spaced radii")
    assert reports["functional"]["tolerances"]["quadrature"] == electrovac.QuadratureConfig().tol


def test_a_fresh_verify_prints_what_the_array_path_prints(tmp_path):
    # A fresh process walks each grid in Python floats; this process, which
    # has numpy, runs the array blocks. A walk that fell back to the blocks
    # would print the same reports but load numpy, so one process runs
    # closed-form data for n 3-7 in every regime, with and without a
    # photon-sphere boundary, and a 5-column plain table.
    runs = [["verify", "--n", "3", "--m", "1", "--q", "0", "--boundary", "3.0"]]
    for n in range(3, 8):
        for m, q in ((1.0, 0.5), (1.0, -1.0), (0.7, 1.1)):
            argv = ["verify", "--n", str(n), "--m", repr(m), "--q", repr(q)]
            roots = electrovac.photon_sphere_radii(electrovac.RNParameters(n, m, q)).roots
            runs += [argv] + [argv + ["--boundary", repr(roots[-1].r)] for _ in roots[-1:]]
    data = electrovac.rn_data(electrovac.RNParameters(4, 1.0, 0.5))
    rs = np.geomspace(1.05 * data.domain[0] + 0.1, 20.0, 400)
    table = tmp_path / "n4-5.dat"
    np.savetxt(table, np.column_stack([rs, *(getattr(data, name)(rs) for name in ("A", "V", "Emag", "Psi"))]))
    runs.append(["verify", "--n", "4", "--profile", str(table)])
    got = run_fresh(f"""
        import contextlib, io
        import electrovac.cli
        outs = []
        for argv in {runs!r}:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                outs.append([electrovac.cli.main(argv), out.getvalue()])
        print(json.dumps({{"outs": outs, "numpy": "numpy._core" in sys.modules}}))
    """)
    want = []
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            want.append([electrovac.cli.main(argv), out.getvalue()])
    assert len(runs) == 27 and got == {"outs": want, "numpy": False}


def test_a_fresh_table_verify_prints_what_the_array_path_prints(tmp_path):
    # A fresh process reads each plain table in Python floats and walks its
    # grid in them, with no numpy; this process reads the same reports
    # through the array blocks.
    runs = []
    for n, m, q in ((3, 1.0, 0.5), (4, 1.5, -0.9), (5, 2.0, 1.1), (6, 1.0, 0.0), (7, 0.8, 0.3)):
        data = electrovac.rn_data(electrovac.RNParameters(n, m, q))
        rs = np.geomspace(1.05 * data.domain[0] + 0.1, 20.0, 400)
        for names in (("A", "V", "Emag"), ("A", "V", "Emag", "Psi")):
            table = tmp_path / f"n{n}-{len(names) + 1}.dat"
            np.savetxt(table, np.column_stack([rs, *(getattr(data, name)(rs) for name in names)]))
            for spacing in ("log", "linear"):
                runs.append(["verify", "--n", str(n), "--profile", str(table),
                             "--grid-spacing", spacing])
    got = run_fresh(f"""
        import contextlib, io
        import electrovac.cli
        outs = []
        for argv in {runs!r}:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                outs.append([electrovac.cli.main(argv), out.getvalue()])
        print(json.dumps({{"outs": outs, "numpy": "numpy._core" in sys.modules}}))
    """)
    want = []
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            want.append([electrovac.cli.main(argv), out.getvalue()])
    assert got == {"outs": want, "numpy": False}
