"""Package-level contracts: what importing electrovac loads and exports.

electrovac imports no scipy module: table profiles are built with a numpy
spline, the isotropic inverse is solved in closed form, and the photon-sphere
scan refines its brackets with numpy. Each check runs in a fresh interpreter,
because this test process has long since imported scipy, the spline's test
oracle.
"""

import json
import os
import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import electrovac

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


def test_all_exports_no_submodules():
    modules = [name for name in electrovac.__all__
               if isinstance(getattr(electrovac, name), types.ModuleType)]
    assert modules == []
    assert {"rn_data", "verify_all", "RadialProfile", "ElectrovacError"} <= set(electrovac.__all__)


def test_every_export_has_a_caller():
    # A public name that nothing in the library, its tests or its benchmark
    # reads is dead weight: each must appear outside __init__.py and outside
    # the line that defines it.
    root = SRC.parent
    files = [p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py")
             if p.name != "__init__.py" and "out" not in p.relative_to(root).parts]
    text = "\n".join(p.read_text() for p in files)
    unused = []
    for name in electrovac.__all__:
        uses = re.findall(rf"^.*\b{name}\b.*$", text, flags=re.M)
        defining = re.compile(rf"^\s*(def|class)\s+{name}\b|^{name}\s*[:=]")
        if not [line for line in uses if not defining.match(line)]:
            unused.append(name)
    assert unused == []
