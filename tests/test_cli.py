import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from report_compare import assert_json_equal

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "electrovac.cli", *args],
        capture_output=True, text=True, env=env,
    )


def write_table(path, n=3, m=1.0, q=0.5, lo=2.2, hi=12.0, count=2400, corrupt=False):
    from electrovac import RNParameters, rn_data

    data = rn_data(RNParameters(n, m, q))
    rs = np.geomspace(lo, hi, count)
    cols = np.column_stack([
        rs,
        [data.A(r) for r in rs],
        [data.V(r) for r in rs],
        [data.Emag(r) for r in rs],
        [data.Psi(r) for r in rs],
    ])
    if corrupt:
        cols[:, 2] *= 1.0 + 0.05 * np.sin(rs / 5.0)
    np.savetxt(path, cols, header="r A V Emag Psi")


def test_classify_matches_golden():
    res = run_cli("classify", "--n", "3", "--m", "1.0", "--q", "0.5")
    assert res.returncode == 0
    want = json.loads((GOLDEN / "classify_sub_extremal.json").read_text())
    assert_json_equal(json.loads(res.stdout), want)


def test_verify_matches_golden():
    res = run_cli("verify", "--n", "3", "--m", "1.0", "--q", "0.0", "--boundary", "3.0")
    assert res.returncode == 0
    want = json.loads((GOLDEN / "verify_schwarzschild.json").read_text())
    assert_json_equal(json.loads(res.stdout), want)


def test_functional_matches_golden():
    res = run_cli("functional", "--n", "3", "--m", "1.0", "--q", "0.5",
                  "--annulus", "3.0", "6.0")
    assert res.returncode == 0
    want = json.loads((GOLDEN / "functional_sub_extremal.json").read_text())
    assert_json_equal(json.loads(res.stdout), want)


def test_reruns_are_byte_identical():
    a = run_cli("classify", "--n", "3", "--m", "1.0", "--q", "1.05")
    b = run_cli("classify", "--n", "3", "--m", "1.0", "--q", "1.05")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    c = run_cli("verify", "--n", "4", "--m", "1.0", "--q", "0.5")
    d = run_cli("verify", "--n", "4", "--m", "1.0", "--q", "0.5")
    assert c.stdout == d.stdout


def test_exit_code_two_on_bad_parameters():
    assert run_cli("verify", "--n", "2", "--m", "1.0").returncode == 2
    assert run_cli("verify", "--n", "3", "--m", "-1.0").returncode == 2
    assert run_cli("verify", "--n", "3", "--m", "1.0", "--lam", "0.1").returncode == 2
    assert run_cli("functional", "--n", "3", "--m", "1.0", "--q", "0.5",
                   "--annulus", "6.0", "3.0").returncode == 2
    # a mass or charge whose square overflows is a usage error, not an empty domain
    for m, q, name in (("1e300", "0", "mass"), ("1e160", "0", "mass"), ("1.0", "1e200", "charge")):
        res = run_cli("verify", "--n", "3", "--m", m, "--q", q)
        assert res.returncode == 2
        assert name in res.stderr and "Traceback" not in res.stderr


def test_exit_code_three_on_missing_table():
    res = run_cli("verify", "--profile", "/nonexistent/table.dat", "--n", "3")
    assert res.returncode == 3
    assert "not found" in res.stderr


def test_good_table_verifies_at_loose_tolerance(tmp_path):
    table = tmp_path / "family.dat"
    write_table(table)
    res = run_cli("verify", "--profile", str(table), "--n", "3")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["verdict"] == "pass"
    assert doc["results"]["tolerance"] == 1e-5


def test_corrupt_table_fails_with_hessian_equation_flagged(tmp_path):
    table = tmp_path / "broken.dat"
    write_table(table, corrupt=True)
    res = run_cli("verify", "--profile", str(table), "--n", "3")
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["verdict"] == "fail"
    assert doc["results"]["equations"]["E1"]["passed"] is False


def test_tolerance_environment_override(tmp_path):
    table = tmp_path / "broken.dat"
    write_table(table, corrupt=True)
    res = run_cli("verify", "--profile", str(table), "--n", "3",
                  env_extra={"ELECTROVAC_TOL": "1e-2"})
    assert res.returncode == 0
    assert json.loads(res.stdout)["results"]["tolerance"] == 1e-2


def test_tolerance_flag_beats_environment():
    res = run_cli("verify", "--n", "3", "--m", "1.0", "--tol", "1e-3",
                  env_extra={"ELECTROVAC_TOL": "1e-12"})
    assert res.returncode == 0
    assert json.loads(res.stdout)["results"]["tolerance"] == 1e-3


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("classify", "--n", "3", "--m", "1.0", "--q", "0.5", "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "classify"
    assert doc["verdict"] == "pass"


def test_text_format_renders_verdict():
    res = run_cli("classify", "--n", "3", "--m", "1.0", "--q", "1.05", "--format", "text")
    assert res.returncode == 0
    assert "verdict: pass" in res.stdout
    assert "photon spheres: 2" in res.stdout


def test_verify_grid_overrides():
    res = run_cli("verify", "--n", "3", "--m", "1.0", "--q", "0.5",
                  "--grid-lo", "2.5", "--grid-hi", "40.0", "--grid-count", "200",
                  "--grid-spacing", "linear")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert "200 linear-spaced radii" in doc["results"]["grid"]


def test_classify_reports_failure_when_counts_disagree():
    # super-extremal with no admissible roots still passes (counts agree at 0)
    res = run_cli("classify", "--n", "3", "--m", "0.5", "--q", "1.0")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["results"]["count"] == 0
    assert doc["results"]["counts_agree"] is True
