import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

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
    # a reversed or empty annulus is named as such, not as the default bump
    # derived from it
    for annulus in (("6.0", "3.0"), ("3.0", "3.0")):
        res = run_cli("functional", "--n", "3", "--m", "1.0", "--q", "0.5", "--annulus", *annulus)
        assert res.returncode == 2, annulus
        assert "annulus endpoints out of order" in res.stderr and "bump" not in res.stderr
    # a mass or charge whose square overflows is a usage error, not an empty domain;
    # so is one whose term of the photon-sphere discriminant (n m)^2 - 4(n-1) q^2
    # overflows, which ended classify in an OverflowError or "discriminant": -Infinity
    for command, n, m, q, name in (
            ("verify", "3", "1e300", "0", "mass"), ("verify", "3", "1e160", "0", "mass"),
            ("verify", "3", "1.0", "1e200", "charge"), ("classify", "3", "5e153", "0", "mass"),
            ("classify", "7", "1.3e154", "1e150", "mass"),
            ("classify", "5", "4.677351245980863e-256", "7.325555962603106e+153", "charge")):
        res = run_cli(command, "--n", n, f"--m={m}", f"--q={q}")
        assert res.returncode == 2, (command, n, m, q)
        assert name in res.stderr and "Traceback" not in res.stderr
    # just inside the bound the quadratic is finite and raises no warning
    res = run_cli("classify", "--n", "3", "--m", "4e153", "--q", "0",
                  env_extra={"PYTHONWARNINGS": "error"})
    assert res.returncode == 0
    assert 1e308 < json.loads(res.stdout)["results"]["discriminant"] < np.inf


def test_exit_code_three_on_missing_table():
    res = run_cli("verify", "--profile", "/nonexistent/table.dat", "--n", "3")
    assert res.returncode == 3
    assert "not found" in res.stderr


@pytest.mark.parametrize("text", ["", "# r A V Emag\n\n  # nothing else\n",
                                  "# r A V Emag \N{GREEK CAPITAL LETTER PSI}\n"],
                         ids=["empty", "comments-only", "non-ascii-comment"])
def test_a_table_with_no_data_rows_exits_three_without_a_warning(tmp_path, text):
    # numpy's loadtxt warned "input contained no data" and read one column,
    # so the command went on to "must have 4 or 5 columns ..., got 1", and
    # under -W error ended in a traceback. The non-ASCII comment sends the
    # table to numpy's reader, which warns; the plain ones never reach it.
    table = tmp_path / "empty.dat"
    table.write_text(text, encoding="utf-8")
    res = run_cli("verify", "--n", "3", "--profile", str(table),
                  env_extra={"PYTHONWARNINGS": "error"})
    assert (res.returncode, res.stdout, res.stderr) == (
        3, "", f"error: table {table} has no data rows\n")


def test_a_table_the_plain_reader_declines_gets_numpys_error_line(tmp_path, capsys):
    # float() reads "1_0" and Arabic-Indic digits, which numpy's reader
    # refuses; a missing file and a compressed suffix are numpy's to open.
    from electrovac.cli import main

    good = "1.0 1.0 1.0 0.0\n2.0 1.0 1.0 0.0\n"
    cases = {"underscore.dat": good + "3.0 1_0 1.0 0.0\n",
             "arabic.dat": good + "3.0 \N{ARABIC-INDIC DIGIT ONE} 1.0 0.0\n",
             "plain.dat.gz": good, "missing.dat": None}
    for name, text in cases.items():
        path = tmp_path / name
        if text is not None:
            path.write_text(text, encoding="utf-8")
        try:
            np.loadtxt(str(path), comments="#", ndmin=2)
        except ValueError as exc:
            want = f"error: unreadable table {path}: {exc}\n"
        except OSError as exc:
            want = f"error: {exc}\n"
        else:
            raise AssertionError(f"numpy read {name}")
        assert main(["verify", "--n", "3", "--profile", str(path)]) == 3, name
        assert capsys.readouterr() == ("", want), name


@pytest.mark.parametrize("comment", ["# r A V Emag\n", "# r A V Emag \N{GREEK CAPITAL LETTER PSI}\n"],
                         ids=["plain", "non-ascii-comment"])
def test_a_table_on_a_pipe_verifies_as_its_file_does(tmp_path, comment):
    # A pipe can be read only once, so the plain reader leaves it to numpy;
    # reading it first left numpy an empty stream and "has no data rows".
    table = tmp_path / "family.dat"
    write_table(table)
    text = comment + table.read_text()
    table.write_text(text, encoding="utf-8")
    from_file = run_cli("verify", "--profile", str(table), "--n", "3")
    piped = subprocess.run(
        [sys.executable, "-m", "electrovac.cli", "verify", "--profile", "/dev/stdin", "--n", "3"],
        input=text, capture_output=True, encoding="utf-8")
    assert from_file.returncode == 0
    assert (piped.returncode, piped.stderr) == (0, "")
    assert piped.stdout == from_file.stdout.replace(json.dumps(str(table)), '"/dev/stdin"')


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


def test_identity_tolerance_must_be_finite_and_non_negative(capsys, monkeypatch):
    # nan failed every tag and wrote "tolerance": NaN, not strict JSON; inf
    # passed every residual; -1 failed every tag. 0 demands exact zeros, as
    # the flat-ball report's own tolerance does, and still gives a report.
    from electrovac.cli import main

    sub = ["--n", "3", "--m", "1", "--q", "0.5"]
    for command in (["classify", *sub], ["verify", *sub]):
        for value in ("nan", "inf", "-1"):
            for argv, env in (([*command, "--tol", value], None), (command, value)):
                if env is None:
                    monkeypatch.delenv("ELECTROVAC_TOL", raising=False)
                else:
                    monkeypatch.setenv("ELECTROVAC_TOL", env)
                assert main(argv) == 2, (argv, env)
                out, err = capsys.readouterr()
                assert out == "" and err.count("\n") == 1 and err.startswith("error: "), (argv, env)
    monkeypatch.delenv("ELECTROVAC_TOL", raising=False)
    assert main(["verify", *sub, "--tol", "0"]) in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    assert doc["tolerances"] == {"identity": 0.0} and doc["results"]["tolerance"] == 0.0


def test_cosmological_constant_must_be_finite(tmp_path, capsys):
    # A table with --lam nan or inf reached the residuals and exited 3 with
    # "non-finite residual for E1"; the data constructor now refuses it.
    from electrovac.cli import main

    table = tmp_path / "t.dat"
    write_table(table)
    for value in ("nan", "inf", "-inf"):
        assert main(["verify", "--n", "3", "--profile", str(table), f"--lam={value}"]) == 2, value
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: cosmological constant lam must be finite, got {value}\n")


def test_functional_has_no_identity_tolerance(capsys):
    # functional parsed --tol but never read it: its verdict rests on the
    # criticality, divergence-identity and quadrature tolerances.
    from electrovac.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["functional", "--n", "3", "--m", "1", "--q", "0.5", "--annulus", "3", "6",
              "--tol", "1e-3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --tol 1e-3" in err


def test_an_all_zero_ladder_writes_a_null_slope(capsys):
    # Every rung of this ladder is exactly 0, so there is no log-log slope:
    # the report wrote NaN, which is not JSON, and the text "slope: nan".
    from electrovac.cli import main

    argv = ["functional", "--n", "4", "--m", "0.004753092365147026",
            "--q=-0.0020097349238832247",
            "--annulus", "0.14833040148834498", "1483304014.8834498", "--pert-mode", "radial"]

    def no_constant(name):
        raise AssertionError(f"{name} in the JSON report")

    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().out, parse_constant=no_constant)
    results = doc["results"]
    assert [row["derivative"] for row in results["derivative_table"]] == [0.0] * 4
    assert results["slope"] is None and results["critical"] is False
    assert doc["verdict"] == "fail"
    assert main([*argv, "--format", "text"]) == 1
    text = capsys.readouterr().out
    assert "slope: undefined\n" in text and "verdict: fail\n" in text


def test_default_grid_is_the_grid_verify_uses_on_a_table(tmp_path, capsys):
    # default_grid on a table ran past its end, to 100 max(1, lo); verify
    # --profile stayed off the spline edges with a rule of its own.
    from electrovac import default_grid
    from electrovac.cli import load_table, main

    table = tmp_path / "family.dat"
    write_table(table)
    assert main(["verify", "--profile", str(table), "--n", "3"]) == 0
    grid = default_grid(load_table(str(table), n=3, lam=0.0))
    assert json.loads(capsys.readouterr().out)["results"]["grid"] == grid.describe()
    assert (grid.lo, grid.hi) == (2.2 * 1.01, 12.0 * 0.99)


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


def test_explicit_grid_when_the_default_grid_is_empty(tmp_path):
    # The default grid of a table on [5.0, 5.09] is empty, 1.01 lo > 0.99 hi,
    # and so is that of closed-form data whose scale puts r_scale / 2 above
    # 100; it used to be validated, and refused, even when both bounds were given.
    table = tmp_path / "narrow.dat"
    write_table(table, lo=5.0, hi=5.09, count=40)
    res = run_cli("verify", "--profile", str(table), "--n", "3")
    assert res.returncode == 3 and "bad grid interval [5.05, 5.039" in res.stderr
    for bounds, want in ((["--grid-lo", "5.01", "--grid-hi", "5.08"], "[5.01, 5.08]"),
                         (["--grid-lo", "5.01"], "[5.01, 5.0391]")):
        res = run_cli("verify", "--profile", str(table), "--n", "3", *bounds)
        assert res.returncode in (0, 1), res.stderr
        assert want in json.loads(res.stdout)["results"]["grid"]
    closed_form = ["verify", "--n", "3", "--m", "1000", "--q", "2000"]
    res = run_cli(*closed_form)
    assert res.returncode == 3 and "bad grid interval [1000.0, 100.0]" in res.stderr
    res = run_cli(*closed_form, "--grid-lo", "300", "--grid-hi", "1e5")
    assert res.returncode == 0, res.stderr
    assert "[300, 100000]" in json.loads(res.stdout)["results"]["grid"]


@pytest.mark.parametrize("count, message", [
    ("10000000000", "grid count 10000000000 above the limit 1000000"),
    ("1000001", "grid count 1000001 above the limit 1000000"),
    ("1", "grid needs at least 2 points"),
])
def test_grid_count_out_of_range_is_a_domain_error(count, message, capsys):
    # 1e10 radii ended in a numpy memory-error traceback.
    from electrovac.cli import main

    code = main(["verify", "--n", "3", "--m", "1", "--q", "0.5", "--grid-count", count])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and message in err and "Traceback" not in err


FLOAT_OPTIONS = [
    ("classify", ["--m", "--q", "--tol"]),
    ("verify", ["--m", "--q", "--tol", "--grid-lo", "--grid-hi", "--lam", "--boundary"]),
    ("functional", ["--m", "--q", "--annulus", "--pert-center", "--pert-width", "--quad-tol"]),
]


@pytest.mark.parametrize("command, option", [
    (command, option) for command, options in FLOAT_OPTIONS for option in options])
def test_negative_float_options_parse_in_both_forms(command, option):
    # argparse before Python 3.13 read "-1e-05" as an unknown option, so
    # "--q -1e-05" exited 2 with "expected one argument".
    from electrovac.cli import build_parser

    parser = build_parser()
    dest = option[2:].replace("-", "_")
    for text in ("-1e-05", "-1E+00", "-2.5e3", "-.5e-1", "-3.", "-0.5", "-7"):
        if option == "--annulus":
            # Both values of the pair; --annulus=... takes only one.
            args = parser.parse_args([command, "--n", "3", option, "4.5", text, "--q", text])
            assert args.annulus == [4.5, float(text)] and args.q == float(text)
            continue
        required = ["--annulus", "3", "6"] if command == "functional" else []
        spaced = parser.parse_args([command, "--n", "3", *required, option, text])
        joined = parser.parse_args([command, "--n", "3", *required, f"{option}={text}"])
        assert spaced == joined and getattr(spaced, dest) == float(text)


@pytest.mark.parametrize("command, extra", [
    ("classify", []),
    ("verify", []),
    ("functional", ["--annulus", repr(3.0), repr(6.0)]),
])
def test_small_negative_charge_as_the_benchmark_passes_it(command, extra, capsys):
    # The cold CLI benchmark passes --q repr(q); a drawn q < 0 with |q| < 1e-4
    # prints in exponent form.
    from electrovac.cli import main

    q = -5.2e-05
    assert repr(q) == "-5.2e-05"
    outputs = []
    for charge in (["--q", repr(q)], [f"--q={q!r}"]):
        assert main([command, "--n", "3", "--m", repr(1.0), *charge, *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and json.loads(outputs[0])["params"]["q"] == q


def test_classify_reports_failure_when_counts_disagree():
    # super-extremal with no admissible roots still passes (counts agree at 0)
    res = run_cli("classify", "--n", "3", "--m", "0.5", "--q", "1.0")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["results"]["count"] == 0
    assert doc["results"]["counts_agree"] is True


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("q_over_m", [0.0, 0.1])
def test_huge_mass_runs_without_runtime_warnings(n, q_over_m, capsys):
    # r^(2k+1) and its kin overflow a float at m = 1e150; the profiles form
    # powers of 1/r instead, so these finish cleanly.
    from electrovac.cli import main

    m = 1e150
    args = ["--n", str(n), "--m", repr(m), "--q", repr(q_over_m * m)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for command in ("verify", "classify"):
            assert main([command, *args]) == 0, command
            assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


@pytest.mark.parametrize("args, message", [
    pytest.param(["verify", "--n", "3", "--m", "1e-300", "--q", "1e-301"],
                 "profile second derivative is non-finite inside the domain", id="verify"),
    pytest.param(["functional", "--n", "3", "--m", "1e-150", "--q", "1e-100",
                  "--annulus", "1e-100", "2e-100"], "non-finite integrand", id="functional"),
    pytest.param(["functional", "--n", "4", "--m", "1", "--q", "0.5",
                  "--annulus", "1.2e93", "7e93"], "non-finite integral", id="huge-annulus"),
    pytest.param(["functional", "--n", "3", "--m", "1", "--q", "0.5", "--annulus", "2", "1e307",
                  "--pert-center", "5", "--pert-width", "1"],
                 "annulus [2.0, 1e+307] too wide for the quadrature", id="wide-annulus"),
])
def test_extreme_scale_numerics_errors_print_only_the_error_line(args, message):
    # Jet parts and integrands overflow at the tiny scales, and the norm's
    # quadrature sum on the huge annulus. The numpy warnings they raised
    # used to reach stderr before the error line, and under
    # -W error::RuntimeWarning ended the command in a traceback; the huge
    # annulus exited 0 with "pert_norm": Infinity, and the wide one, whose
    # panel shares overflow, ended in an OverflowError traceback.
    for env_extra in (None, {"PYTHONWARNINGS": "error::RuntimeWarning"}):
        res = run_cli(*args, env_extra=env_extra)
        assert (res.returncode, res.stdout, res.stderr) == (3, "", f"error: {message}\n"), env_extra


def test_dimension_bound_exits_two_with_one_error_line(tmp_path, capsys):
    # n = 343 is the largest dimension whose unit-sphere area is a finite
    # float. Before, n = 344 and a 401-digit n ended in an OverflowError
    # traceback, a 309-digit n blamed the mass, and a table with n = 2 exited 3.
    from electrovac.cli import main

    table = tmp_path / "t.dat"
    write_table(table, count=40)
    huge = "1" + "0" * 400
    cases = [
        (["functional", "--n", "344", "--m", "1", "--annulus", "1.5", "3"], "at most 343"),
        (["classify", "--n", huge, "--m", "1"], "at most 343"),
        (["classify", "--n", "1" + "0" * 308, "--m", "1"], "at most 343"),
        (["verify", "--profile", str(table), "--n", huge], "at most 343"),
        (["verify", "--profile", str(table), "--n", "2"], "integer >= 3"),
    ]
    for argv, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), argv[:2]
        assert err.startswith("error: dimension must be") and err.count("\n") == 1, argv[:2]
        assert message in err, argv[:2]


@pytest.mark.parametrize("extra, message", [
    pytest.param(["--pert-width", "1e-300"], "round onto the center", id="narrow-bump"),
    pytest.param(["--pert-center", "1e-160", "--pert-width", "1e-170"], "6/halfwidth^2",
                 id="underflowing-bump"),
    pytest.param(["--annulus", "1e199", "1e201"], "halfwidth^2 overflows", id="overflowing-bump"),
    pytest.param(["--quad-nodes", "101"], "nodes per panel", id="quad-nodes"),
    pytest.param(["--quad-panels", "5462"], "panels x nodes", id="quad-panels"),
])
def test_degenerate_functional_input_is_a_usage_error(extra, message, capsys):
    # Before: a 1e-300 bump halfwidth left no node inside the support, warned
    # twice (overflow in the bump) and wrote "slope": NaN with exit 1; a
    # 2.5e200 halfwidth (the default for that annulus) ended in a RuntimeWarning;
    # an unbounded node count asks leggauss for a nodes x nodes matrix. Values
    # just past the quadrature caps raise before any rule is built.
    from electrovac.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["functional", "--n", "3", "--m", "1", "--q", "0.5",
                     "--annulus", "3", "6", *extra])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and "NaN" not in err and message in err


def test_overflowing_field_squares_end_in_one_error_line(tmp_path):
    # |E|^2 overflows on this table. The residual pass warned "overflow
    # encountered in multiply" and "invalid value encountered in subtract"
    # before the error line, and under -W error ended in a traceback.
    from electrovac import NumericsError, default_grid, verify_all
    from electrovac.cli import load_table

    table = tmp_path / "huge_e.dat"
    rs = np.linspace(1.0, 2.0, 50)
    np.savetxt(table, np.column_stack([rs, np.ones(50), np.ones(50), np.full(50, 1e200)]))
    args = ["verify", "--n", "3", "--profile", str(table)]
    for env_extra in (None, {"PYTHONWARNINGS": "error"}):
        res = run_cli(*args, env_extra=env_extra)
        assert (res.returncode, res.stdout, res.stderr) == (
            3, "", "error: non-finite residual for E1\n"), env_extra
    data = load_table(str(table), n=3, lam=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="non-finite residual for E1"):
            verify_all(data, default_grid(data))


@pytest.mark.parametrize("extra", [[], ["--grid-count", "2000"]], ids=["walk", "blocks"])
def test_a_table_whose_slopes_overflow_names_the_profile(tmp_path, extra):
    # A 1e300 sample 1e-12 past its neighbour overflows a secant slope, which
    # leaves the spline's coefficients non-finite. Building it warned
    # "overflow encountered in divide"; now both the float walk and the array
    # blocks end in the profile's own error line, and nothing else.
    rs = np.linspace(1.0, 2.0, 50)
    rs[20] = rs[19] + 1e-12
    table = tmp_path / "steep.dat"
    np.savetxt(table, np.column_stack([rs, np.ones(50), np.ones(50),
                                       np.where(np.arange(50) == 20, 1e300, 0.0)]))
    res = run_cli("verify", "--n", "3", "--profile", str(table), *extra,
                  env_extra={"PYTHONWARNINGS": "error"})
    assert (res.returncode, res.stdout, res.stderr) == (
        3, "", "error: profile value is non-finite inside the domain\n")


def test_readers_at_huge_radii_run_without_warnings():
    # At r = 1e200 and 1e308, r*r overflows in ricci_kernel and in R_S, and
    # both end finite (x/inf = 0). The readers warned "overflow encountered
    # in multiply" each time, and under -W error ended in a traceback.
    from electrovac import (RNParameters, boundary_residual, contracted_gauss_residual,
                            level_set_geometry, quasilocal_check, ricci_radial, rn_data,
                            scalar_curvature_d1)

    res = run_cli("verify", "--n", "3", "--m", "1", "--q", "0.5", "--boundary", "1e308",
                  env_extra={"PYTHONWARNINGS": "error"})
    assert (res.returncode, res.stderr) == (0, "")
    assert json.loads(res.stdout)["params"]["boundary"] == 1e308
    data = rn_data(RNParameters(3, 1.0, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for reader in (level_set_geometry, ricci_radial, scalar_curvature_d1, boundary_residual,
                       quasilocal_check, contracted_gauss_residual):
            reader(data, 1e200)
    assert ricci_radial(data, 1e200).tangential == 0.0


def test_a_nan_radius_is_outside_the_domain():
    # Both domain comparisons are False at NaN, so a NaN radius passed the
    # domain check and failed later as "profile value is non-finite".
    from electrovac import DomainError, RNParameters, rn_data

    res = run_cli("verify", "--n", "3", "--m", "1", "--q", "0.5", "--boundary", "nan")
    assert (res.returncode, res.stdout, res.stderr) == (
        3, "", "error: radius nan outside data domain (1.8660254037844386, inf)\n")
    # An infinite annulus edge is named before the default bump derived from
    # it, whose infinite center exited 2 naming a bump that was never given.
    res = run_cli("functional", "--n", "3", "--m", "1", "--q", "0.5", "--annulus", "3", "inf")
    assert (res.returncode, res.stdout, res.stderr) == (
        3, "", "error: radius inf outside data domain (1.8660254037844386, inf)\n")
    data = rn_data(RNParameters(3, 1.0, 0.5))
    with pytest.raises(DomainError, match="radius nan outside open domain"):
        data.jets(np.array([3.0, np.nan]), 1)

