"""Each output check fires on a wrong answer, and the harness pieces behave.

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

import copy
import math

import numpy as np
import pytest

from perfbench import oracle, run, spans, workloads


def codes(problems):
    return {code for code, _ in problems}


def classify_doc(n, m, q):
    radii = oracle.photon_radii(n, m, q)
    return {"verdict": "pass",
            "results": {"regime": oracle.regime(m, q), "predicted_count": len(radii),
                        "photon_spheres": [{"r": r} for r in radii]}}


def test_photon_radii_match_known_landmarks():
    assert oracle.photon_radii(3, 1.0, 0.0) == [3.0]
    assert oracle.horizon(3, 1.0, 0.0) == 2.0
    assert oracle.surface_gravity(3, 1.0, 0.0) == 0.25
    assert len(oracle.photon_radii(3, 1.0, 1.05)) == 2
    assert oracle.photon_radii(3, 0.5, 1.0) == []


def test_classify_check_fires():
    doc = classify_doc(4, 1.0, 1.1)
    assert oracle.check_classify(doc, 0, 4, 1.0, 1.1) == []
    off = copy.deepcopy(doc)
    off["results"]["photon_spheres"][1]["r"] *= 1.0 + 1e-9
    assert codes(oracle.check_classify(off, 0, 4, 1.0, 1.1)) == {"radius"}
    short = copy.deepcopy(doc)
    short["results"]["photon_spheres"].pop()
    assert "count" in codes(oracle.check_classify(short, 0, 4, 1.0, 1.1))
    assert codes(oracle.check_classify(doc, 1, 4, 1.0, 1.1)) == {"exit"}
    assert "regime" in codes(oracle.check_classify(doc, 0, 4, 1.0, 0.5))
    assert "report" in codes(oracle.check_classify(None, 3, 4, 1.0, 1.1))


def verify_doc(tags):
    return {"verdict": "pass", "results": {"equations": {
        t: {"max_residual": 1e-12, "passed": True} for t in tags}}}


def test_verify_and_table_checks_fire():
    doc = verify_doc(oracle.FULL_TAGS)
    assert oracle.check_verify(doc, 0, with_boundary=True) == []
    assert "tags" in codes(oracle.check_verify(doc, 0, with_boundary=False))
    bad = copy.deepcopy(doc)
    bad["results"]["equations"]["E1"]["passed"] = False
    assert "verdict" in codes(oracle.check_verify(bad, 0, with_boundary=True))
    nan = copy.deepcopy(doc)
    nan["results"]["equations"]["PEM3"]["max_residual"] = math.nan
    assert "finite" in codes(oracle.check_verify(nan, 0, with_boundary=True))

    table = verify_doc(oracle.FULL_TAGS - oracle.BOUNDARY_TAGS)
    assert oracle.check_table(table, 0) == []
    table_fail = copy.deepcopy(table)
    table_fail["verdict"] = "fail"
    assert oracle.check_table(table_fail, 1) == []
    assert codes(oracle.check_table(table, 1)) == {"exit"}
    assert codes(oracle.check_table(table, 3)) == {"exit"}
    table_nan = copy.deepcopy(table)
    table_nan["results"]["equations"]["E2"]["max_residual"] = math.inf
    assert codes(oracle.check_table(table_nan, 0)) == {"finite"}


def functional_doc(critical=True, refined=1e-9, slope=2.0, poho=1e-15, value=3.0):
    ok = critical and poho <= 1e-7
    return {"verdict": "pass" if ok else "fail",
            "tolerances": {"criticality": 1e-4},
            "results": {"critical": critical, "refined_derivative": refined, "slope": slope,
                        "pohozaev_residual": poho, "value": value}}


def test_functional_check_fires_and_separates_the_known_defect():
    assert oracle.check_functional(functional_doc(), 0, 1e-7) == []
    slope_only = oracle.check_functional(functional_doc(critical=False, slope=1.3), 1, 1e-7)
    assert codes(slope_only) == {"slope"} and oracle.unexplained(slope_only) == []
    crit = oracle.check_functional(functional_doc(critical=False, refined=1e-3), 1, 1e-7)
    assert codes(crit) == {"criticality"}
    assert codes(oracle.check_functional(functional_doc(poho=1e-6), 1, 1e-7)) == {"pohozaev"}
    assert codes(oracle.check_functional(functional_doc(), 1, 1e-7)) == {"exit"}


def test_dense_and_variational_checks_fire():
    report = {"passed": True, "equations": {"E1": {"max_residual": 0.0, "passed": True}}}
    assert oracle.check_dense(report, perturbed=False) == []
    assert codes(oracle.check_dense(report, perturbed=True)) == {"verdict"}

    good = dict(value=1.0, critical=True, refined=1e-9, crit_tol=1e-4, slope=2.0,
                pert_norm=10.0, poho=1e-15, poho_tol=1e-7, el=1e-12)
    assert oracle.check_variational(**good) == []
    known = oracle.check_variational(**{**good, "critical": False, "slope": 1.67})
    assert codes(known) == {"slope"} and oracle.unexplained(known) == []
    assert codes(oracle.check_variational(**{**good, "critical": False, "refined": 1e-3})) \
        == {"criticality"}
    assert codes(oracle.check_variational(**{**good, "poho": 1e-6})) == {"pohozaev"}
    assert codes(oracle.check_variational(**{**good, "el": 1e-3})) == {"euler_lagrange"}


def test_photon_check_passes_on_the_library_and_fires_on_each_wrong_answer():
    inp = next(workloads.photon_inputs(np.random.default_rng(3), None))
    out = workloads.photon_op(inp, spans.NullTracer(), None)
    assert workloads.photon_check(inp, out) == []
    case = next(i for i, s in enumerate(inp["sets"]) if s["horizon"] is not None)
    data, res, klass, scan, slices, iso, grad = out[case]
    n, m, q = inp["sets"][case]["p"]
    args = dict(closed_form=[r.r for r in res.roots], predicted=klass.count, scan=scan,
                quasilocal=[(s.q1_residual, s.q2_residual, s.ric_nn_residual, s.extremality)
                            for s in slices],
                isotropic=iso, gradient=grad)
    assert oracle.check_photon(n, m, q, **args) == []

    def fired(**change):
        return codes(oracle.check_photon(n, m, q, **{**args, **change}))

    assert fired(scan=[r * (1 + 1e-7) for r in scan]) == {"scan"}
    assert fired(closed_form=[r * (1 + 1e-10) for r in args["closed_form"]]) == {"radius"}
    assert fired(scan=[]) == {"count"}
    assert fired(predicted=klass.count + 1) == {"count"}
    assert fired(quasilocal=[(1e-8, None, 0.0, "sub-extremal")]) == {"quasilocal"}
    assert fired(quasilocal=[(0.0, 0.0, 0.0, "super-extremal")]) == {"extremality"}
    assert fired(isotropic=[(r, s * (1 + 1e-8)) for r, s in iso]) == {"isotropic"}
    assert fired(gradient=grad + 1e-5) == {"horizon_gradient"}
    assert fired(gradient=None) == {"horizon_gradient"}


def test_in_process_operations_pass_their_checks():
    rng = np.random.default_rng(0)
    for name in ("verify_dense", "variational_sweep", "photon_roots"):
        wl = workloads.WORKLOADS[name]
        inputs = wl.inputs(rng, None)
        for _ in range(4):  # the fourth verify_dense input is perturbed
            inp = next(inputs)
            assert wl.check(inp, wl.op(inp, spans.NullTracer(), None)) == []


def test_radial_probe_counts_the_known_defect_and_records_other_failures(monkeypatch):
    slope = [("slope", "not critical")]
    wrong = [("criticality", "refined derivative above tolerance")]
    monkeypatch.setattr(workloads, "radial_criticality_probe",
                        lambda rng: [[], slope, slope + wrong, wrong, []])
    tally = run.Tally()
    assert run.radial_false_fails(None, tally) == 1
    assert (tally.attempted, tally.failed, tally.correct) == (4, 2, False)


def test_tail_percentile_keeps_ten_samples_above_it():
    xs = [float(i) for i in range(1, 101)]
    value, pct, beyond = run.tail(xs)
    assert pct == pytest.approx(90.0) and beyond == 10
    assert run.tail([1.0, 2.0, 3.0])[1] == 50.0


def test_tracer_self_time_subtracts_children():
    tr = spans.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    (outer, inner) = tr.spans
    self_outer, self_inner = tr.self_times()
    assert inner[3] == 0 and outer[3] == -1
    assert self_inner == pytest.approx(inner[2] - inner[1])
    assert self_outer == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))


def test_parse_importtime_takes_outermost_entries():
    rows = [(100, 100, 0, "encodings"), (50, 50, 2, "numpy.core"), (20, 200, 1, "numpy"),
            (30, 30, 3, "scipy._lib"), (40, 400, 2, "scipy.optimize"),
            (10, 700, 1, "electrovac.models"), (5, 1000, 0, "electrovac"),
            (7, 7, 0, "electrovac.cli")]
    text = "import time: self [us] | cumulative | imported package\n" + "\n".join(
        f"import time: {own:>9} | {cum:>10} | {'  ' * depth}{name}"
        for own, cum, depth, name in rows)
    got = spans.parse_importtime(text)
    assert got["cli.import.total_s"] == pytest.approx(1007e-6)
    assert got["cli.import.numpy_s"] == pytest.approx(200e-6)
    assert got["cli.import.scipy_s"] == pytest.approx(400e-6)


def test_missing_source_tree_is_refused(monkeypatch):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-checkout" / "src")
    with pytest.raises(run.BenchError):
        run.load_electrovac()


def test_malformed_report_is_a_failed_check_not_a_crash():
    inp = {"kind": "classify", "p": (3, 1.0, 0.0)}
    problems = run.checked(workloads.cli_check, inp, (0, '{"verdict": "pass", "results": {}}'))
    assert codes(problems) == {"report"}
