"""Independent closed forms and the per-operation output checks.

Everything here is written from the defining formulas of the charged static
family, not from electrovac's code paths: V^2, the horizon, the photon-sphere
quadratic in u = r^(n-2), the isotropic chart's r(s) and the surface gravity.

Each ``check_*`` returns a list of ``(code, message)`` problems; an empty list
means the output is right. An operation with any problem counts as failed.
Problem codes listed in ``KNOWN_DEFECTS`` are library defects that the
benchmark records rather than hides: they count as failed operations but do
not make the run incorrect. Every other code does.
"""

from __future__ import annotations

import math

# criticality_test's log-log slope fit runs over round-off when the
# derivative ladder is already at the noise floor (radial bumps at small
# third variation), returning a false "not critical" although the refined
# derivative is inside its tolerance.
KNOWN_DEFECTS = {
    "slope": "criticality slope fit over round-off: refined derivative within "
             "tolerance but slope outside [1.8, 2.2]",
}

# Tolerances of the acceptance criteria the workloads reuse.
RADIUS_REL = 1e-12        # closed-form photon-sphere radii (criterion 02 oracle)
SCAN_REL = 1e-8           # sign-change scan vs closed form (criterion 02)
QUASILOCAL_ABS = 1e-9     # slice identities at photon spheres (criterion 04)
ISOTROPIC_REL = 1e-10     # isotropic round trip (criterion 05)
GRADIENT_ABS = 1e-6       # horizon gradient limit vs surface gravity (criterion 03)
EL_REL = 1e-5             # |first variation| <= EL_REL * perturbation norm

FULL_TAGS = frozenset({
    "E1", "E2", "E3a", "E3b", "E4", "TE1", "TE2", "NE1", "NE2", "AE1",
    "TRACE_AE", "PEM1", "PEM2", "PEM3", "PEM4", "NPEM1",
})
BOUNDARY_TAGS = frozenset({"E4", "TE2", "PEM4"})


def regime(m: float, q: float) -> str:
    if m > abs(q):
        return "sub-extremal"
    if m == abs(q):
        return "extremal"
    return "super-extremal"


def v_squared(n: int, m: float, q: float, r: float) -> float:
    u = r ** (n - 2)
    return 1.0 - 2.0 * m / u + q * q / (u * u)


def horizon(n: int, m: float, q: float):
    if m < abs(q):
        return None
    return (m + math.sqrt(m * m - q * q)) ** (1.0 / (n - 2))


def domain_edge(n: int, m: float, q: float) -> float:
    h = horizon(n, m, q)
    return 0.0 if h is None else h


def char_radius(n: int, m: float, q: float) -> float:
    return max(m, abs(q)) ** (1.0 / (n - 2))


def photon_radii(n: int, m: float, q: float) -> list[float]:
    """Ascending radii above the horizon where u^2 - n m u + (n-1) q^2 = 0."""
    disc = n * n * m * m - 4.0 * (n - 1) * q * q
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    edge = domain_edge(n, m, q)
    out = []
    for u in sorted({(n * m - s) / 2.0, (n * m + s) / 2.0}):
        if u <= 0.0:
            continue
        r = u ** (1.0 / (n - 2))
        if r > edge and v_squared(n, m, q, r) > 0.0:
            out.append(r)
    return out


def isotropic_branch_start(n: int, m: float, q: float) -> float:
    k = n - 2
    if m >= abs(q):
        return (math.sqrt(m * m - q * q) / 2.0) ** (1.0 / k)
    return ((abs(q) - m) / 2.0) ** (1.0 / k)


def isotropic_area_radius(n: int, m: float, q: float, s: float) -> float:
    """r(s) = s ((1 + (m+q)/2u)(1 + (m-q)/2u))^(1/(n-2)), u = s^(n-2)."""
    k = n - 2
    u = s ** k
    return s * ((1.0 + (m + q) / (2.0 * u)) * (1.0 + (m - q) / (2.0 * u))) ** (1.0 / k)


def surface_gravity(n: int, m: float, q: float) -> float:
    """|grad V| at the horizon: W'(r_h)/2 with W = V^2."""
    k = n - 2
    rh = horizon(n, m, q)
    return k * (m / rh ** (k + 1) - q * q / rh ** (2 * k + 1))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def unexplained(problems) -> list:
    return [p for p in problems if p[0] not in KNOWN_DEFECTS]


def check_criticality(critical: bool, refined: float, tol: float, slope: float) -> list:
    # Closed-form data solves the static system, so it must be critical.
    if critical:
        return []
    if abs(refined) <= tol:
        return [("slope", f"not critical: slope {slope!r} with |refined| "
                          f"{abs(refined):.3e} <= {tol:.3e}")]
    return [("criticality", f"refined derivative {refined!r} above {tol!r}")]


def _exit(rc: int, want: int) -> list:
    return [] if rc == want else [("exit", f"exit code {rc}, expected {want}")]


# ---------------------------------------------------------------------------
# cold CLI reports


def check_classify(doc, rc: int, n: int, m: float, q: float) -> list:
    problems = _exit(rc, 0)
    if doc is None:
        return problems + [("report", "no JSON report")]
    res = doc["results"]
    if doc["verdict"] != "pass":
        problems.append(("verdict", f"verdict {doc['verdict']}"))
    if res["regime"] != regime(m, q):
        problems.append(("regime", f"regime {res['regime']}, expected {regime(m, q)}"))
    want = photon_radii(n, m, q)
    got = [s["r"] for s in res["photon_spheres"]]
    if len(got) != len(want) or res["predicted_count"] != len(want):
        problems.append(("count", f"radii {got} / predicted {res['predicted_count']}, "
                                  f"expected {want}"))
    else:
        for a, b in zip(got, want):
            if _rel(a, b) > RADIUS_REL:
                problems.append(("radius", f"photon sphere {a!r}, expected {b!r}"))
    return problems


def _tag_problems(equations: dict, tags) -> list:
    problems = []
    if set(equations) != set(tags):
        problems.append(("tags", f"tags {sorted(equations)}, expected {sorted(tags)}"))
    for tag, entry in equations.items():
        if not math.isfinite(entry["max_residual"]):
            problems.append(("finite", f"{tag} residual {entry['max_residual']!r}"))
    return problems


def check_verify(doc, rc: int, with_boundary: bool) -> list:
    problems = _exit(rc, 0)
    if doc is None:
        return problems + [("report", "no JSON report")]
    eqs = doc["results"]["equations"]
    tags = FULL_TAGS if with_boundary else FULL_TAGS - BOUNDARY_TAGS
    problems += _tag_problems(eqs, tags)
    failing = [t for t, e in eqs.items() if not e["passed"]]
    if doc["verdict"] != "pass" or failing:
        problems.append(("verdict", f"verdict {doc['verdict']}, failing tags {failing}"))
    return problems


def check_table(doc, rc: int) -> list:
    """Spline-backed data: the verdict is limited by the table, so only a
    complete report with finite residuals and a consistent exit is required."""
    if rc not in (0, 1):
        return [("exit", f"exit code {rc}, expected 0 or 1")]
    if doc is None:
        return [("report", "no JSON report")]
    problems = _tag_problems(doc["results"]["equations"], FULL_TAGS - BOUNDARY_TAGS)
    if (doc["verdict"] == "pass") != (rc == 0):
        problems.append(("exit", f"verdict {doc['verdict']} with exit code {rc}"))
    return problems


def check_functional(doc, rc: int, poho_tol: float) -> list:
    if doc is None:
        return _exit(rc, 0) + [("report", "no JSON report")]
    res = doc["results"]
    problems = check_criticality(res["critical"], res["refined_derivative"],
                                 doc["tolerances"]["criticality"], res["slope"])
    if not res["pohozaev_residual"] <= poho_tol:
        problems.append(("pohozaev", f"residual {res['pohozaev_residual']!r} > {poho_tol!r}"))
    if not math.isfinite(res["value"]):
        problems.append(("value", f"functional value {res['value']!r}"))
    return problems + _exit(rc, 1 if problems else 0)


# ---------------------------------------------------------------------------
# in-process results


def check_dense(report: dict, perturbed: bool) -> list:
    """verify_all on a dense grid: exact data passes, bumped data fails."""
    problems = []
    if report["passed"] == perturbed:
        what = "perturbed data passed" if perturbed else "exact data failed"
        failing = [t for t, e in report["equations"].items() if not e["passed"]]
        problems.append(("verdict", f"{what} (failing tags {failing})"))
    for tag, entry in report["equations"].items():
        if not math.isfinite(entry["max_residual"]):
            problems.append(("finite", f"{tag} residual {entry['max_residual']!r}"))
    return problems


def check_variational(value: float, critical: bool, refined: float, crit_tol: float,
                      slope: float, pert_norm: float, poho: float, poho_tol: float,
                      el: float) -> list:
    problems = check_criticality(critical, refined, crit_tol, slope)
    if not poho <= poho_tol:
        problems.append(("pohozaev", f"residual {poho!r} > {poho_tol!r}"))
    if not abs(el) <= EL_REL * pert_norm:
        problems.append(("euler_lagrange", f"|EL| {abs(el):.3e} > {EL_REL * pert_norm:.3e}"))
    if not math.isfinite(value):
        problems.append(("value", f"functional value {value!r}"))
    return problems


def check_photon(n: int, m: float, q: float, *, closed_form, predicted: int, scan,
                 quasilocal, isotropic, gradient) -> list:
    """closed_form: library radii; scan: sign-change roots; quasilocal: list of
    (q1, q2 or None, ric, extremality); isotropic: list of (r, s); gradient:
    horizon gradient limit or None."""
    want = photon_radii(n, m, q)
    problems = []
    if not (len(closed_form) == len(scan) == predicted == len(want)):
        problems.append(("count", f"closed form {len(closed_form)}, scan {len(scan)}, "
                                  f"predicted {predicted}, expected {len(want)}"))
    else:
        for a, s, b in zip(closed_form, scan, want):
            if _rel(a, b) > RADIUS_REL:
                problems.append(("radius", f"closed-form root {a!r}, expected {b!r}"))
            if _rel(s, b) > SCAN_REL:
                problems.append(("scan", f"scan root {s!r}, expected {b!r}"))
    for q1, q2, ric, extremality in quasilocal:
        worst = max(q1, ric, 0.0 if q2 is None else q2)
        if not worst <= QUASILOCAL_ABS:
            problems.append(("quasilocal", f"slice residual {worst:.3e}"))
        if m > abs(q) and extremality != "sub-extremal":
            problems.append(("extremality", f"slice flagged {extremality}"))
    s_b = isotropic_branch_start(n, m, q)
    for r, s in isotropic:
        back = isotropic_area_radius(n, m, q, s)
        if s < s_b or not _rel(back, r) <= ISOTROPIC_REL:
            problems.append(("isotropic", f"s = {s!r} maps to r = {back!r}, expected {r!r}"))
    if m > abs(q):
        kappa = surface_gravity(n, m, q)
        if gradient is None or not abs(gradient - kappa) <= GRADIENT_ABS:
            problems.append(("horizon_gradient", f"limit {gradient!r}, expected {kappa!r}"))
    return problems
