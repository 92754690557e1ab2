"""Package-level contracts: what importing electrovac loads and exports.

scipy is imported only where a root finder needs it, so no CLI command pays
for it: table profiles are built with numpy. Each check runs in a fresh
interpreter, because this test process has long since imported scipy.
"""

import json
import os
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
        import contextlib, io, os, tempfile
        import numpy as np
        import electrovac, electrovac.cli
        from electrovac import RNParameters, rn_data
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
        print(json.dumps({"after_import": after_import, "codes": codes,
                          "after_commands": scipy_modules()}))
    """)
    assert got["after_import"] == []
    assert got["codes"] == [0, 0, 0, 0]
    assert got["after_commands"] == []


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


# Each lazy import site, called as the first scipy user in a fresh process,
# must still import what it needs and return the right answer.
LAZY_SITES = {
    "scan_photon_spheres": """
        import math
        from electrovac import RNParameters, rn_data, scan_photon_spheres
        data = rn_data(RNParameters(3, 1.0, 0.5))
        before = scipy_modules()
        got = scan_photon_spheres(data)
        # u^2 - 3 m u + 2 q^2 = 0 at n = 3; only the larger root is admissible
        want = [(3.0 + math.sqrt(9.0 - 8.0 * 0.25)) / 2.0]
    """,
    "isotropic_inverse": """
        import math
        from electrovac import RNParameters, isotropic_inverse
        before = scipy_modules()
        got = [isotropic_inverse(RNParameters(3, 1.0, 0.0), 4.0)]
        # Schwarzschild, m = 1: r = s (1 + 1/(2s))^2 inverts to this
        want = [(3.0 + math.sqrt(8.0)) / 2.0]
    """,
}


@pytest.mark.parametrize("site", sorted(LAZY_SITES))
def test_lazy_scipy_sites_work_as_first_scipy_user(site):
    got = run_fresh(LAZY_SITES[site] + """
        print(json.dumps({"before": before, "got": got, "want": want,
                          "after": scipy_modules()}))
    """)
    assert got["before"] == []
    assert got["got"] == pytest.approx(got["want"], rel=1e-10)
    assert got["after"] != []


def test_all_exports_no_submodules():
    modules = [name for name in electrovac.__all__
               if isinstance(getattr(electrovac, name), types.ModuleType)]
    assert modules == []
    assert {"rn_data", "verify_all", "RadialProfile", "ElectrovacError"} <= set(electrovac.__all__)
