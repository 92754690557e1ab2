"""Span recording for the traced run, and the per-layer metrics built from it.

Spans are recorded from the benchmark's own files: around each call the
workloads make into electrovac's public functions, and through wrappers that
``instrument`` installs on a few module attributes for the length of the
traced phase (the library itself carries no tracing). Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import re
import statistics
from time import perf_counter

import numpy as np

MODULES = ("cli", "models", "profiles", "geometry", "residuals", "photon", "variational")

# Layers reported with .calls, .busy_s and .p50_s.
TIMED = (
    "cli.load_table",
    "models.rn_data",
    "models.isotropic_inverse",
    "profiles.grid_eval",
    "profiles.scalar_eval",
    "geometry.grid_ops",
    "geometry.level_set_geometry",
    "geometry.horizon_gradient_limit",
    "residuals.verify_all",
    "residuals.report",
    "photon.photon_sphere_radii",
    "photon.classify_configuration",
    "photon.scan_photon_spheres",
    "photon.quasilocal_check",
    "variational.quad_points",
    "variational.radial_integral",
    "variational.evaluate_functional",
    "variational.criticality_test",
    "variational.pohozaev_residual",
    "variational.euler_lagrange_integral",
)
FAMILIES = ("residual_system", "residual_master", "residual_traced",
            "residual_pem", "residual_identities")
CLI_COMMANDS = ("classify", "verify", "functional", "verify_table")


class NullTracer:
    """Untraced runs: spans cost one attribute lookup and a no-op context."""

    op = None
    _null = contextlib.nullcontext()

    def span(self, name, points=0):
        return self._null


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, error, points]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name, points=0):
        idx = len(self.spans)
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else -1,
               self.op, False, points]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, scalar_arg=None):
        """fn traced under name; with scalar_arg, only calls whose argument at
        that position is a scalar radius are traced."""
        def traced(*args, **kwargs):
            if scalar_arg is not None and np.ndim(args[scalar_arg]) != 0:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        out = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                out[rec[3]] -= rec[2] - rec[1]
        return out

    def dump(self, path):
        fields = ("name", "start", "end", "parent", "op", "error", "points", "self")
        with open(path, "w") as fh:
            for rec, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps(dict(zip(fields, [*rec, self_s]))) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route calls the library makes internally through traced wrappers."""
    from electrovac import cli, photon, variational

    targets = [
        (variational, "radial_integral", "variational.radial_integral", None),
        (variational.QuadratureConfig, "points", "variational.quad_points", None),
        (cli, "load_table", "cli.load_table", None),
        (photon, "boundary_residual", "photon.boundary_residual.scalar", 1),
        (photon, "level_set_geometry", "geometry.level_set_geometry", 1),
    ]
    saved = []
    try:
        for owner, attr, name, scalar_arg in targets:
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, scalar_arg))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def _durations(spans, name):
    return [rec[2] - rec[1] for rec in spans if rec[0] == name]


def p50(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spans, cli_cold: dict, cli_main: dict, imports: dict,
                  match: tuple[int, int], overhead_frac: float) -> dict:
    """Per-layer metric name -> (value, unit).

    cli_cold and cli_main map each CLI command to its fresh-process and
    in-process main() latencies, imports holds the cli.import.* seconds,
    match is (matched, expected) photon-sphere counts for the scan."""
    out = {}
    for name, value in imports.items():
        out[name] = (value, "s")
    for cmd in CLI_COMMANDS:
        out[f"cli.cold.{cmd}.p50_s"] = (p50(cli_cold[cmd]), "s")
        out[f"cli.main.{cmd}.p50_s"] = (p50(cli_main[cmd]), "s")
    for name in TIMED:
        d = _durations(spans, name)
        out[f"{name}.calls"] = (len(d), "count")
        out[f"{name}.busy_s"] = (sum(d), "s")
        out[f"{name}.p50_s"] = (p50(d), "s")
    for name in ("profiles.grid_eval", "geometry.grid_ops"):
        out[f"{name}.points"] = (sum(rec[6] for rec in spans if rec[0] == name), "count")
    families = 0.0
    for fam in FAMILIES:
        busy = sum(_durations(spans, f"residuals.{fam}"))
        out[f"residuals.{fam}.busy_s"] = (busy, "s")
        families += busy
    out["residuals.families.busy_s"] = (families, "s")
    verify_busy = out["residuals.verify_all.busy_s"][0]
    out["residuals.shared_ratio"] = (verify_busy / families if families else 0.0, "ratio")
    scalar = _durations(spans, "photon.boundary_residual.scalar")
    out["photon.boundary_residual.calls"] = (len(scalar), "count")
    out["photon.boundary_residual.scalar_p50_s"] = (p50(scalar), "s")
    out["photon.scan_photon_spheres.match_ratio"] = (
        match[0] / match[1] if match[1] else 0.0, "ratio")
    for mod in MODULES:
        out[f"{mod}.errors"] = (
            sum(1 for rec in spans if rec[5] and rec[0].split(".")[0] == mod), "count")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


def parse_importtime(text: str) -> dict:
    """Seconds spent importing electrovac, numpy and scipy.

    ``-X importtime`` prints one line per module in post-order, indented two
    spaces per nesting level. A package's cost is the cumulative time of its
    outermost entries: those with no ancestor of the same package.
    """
    pending: list[tuple[int, dict]] = []
    for line in text.splitlines():
        mt = _IMPORT_LINE.match(line)
        if not mt:
            continue
        depth = (len(mt.group(3)) - 1) // 2
        node = {"name": mt.group(4), "cum": int(mt.group(2)) * 1e-6, "children": []}
        while pending and pending[-1][0] > depth:
            node["children"].insert(0, pending.pop()[1])
        pending.append((depth, node))
    roots = [node for _, node in pending]

    def outermost(nodes, pkg):
        total = 0.0
        for node in nodes:
            name = node["name"]
            if name == pkg or name.startswith(pkg + "."):
                total += node["cum"]
            else:
                total += outermost(node["children"], pkg)
        return total

    return {
        "cli.import.total_s": outermost(roots, "electrovac"),
        "cli.import.numpy_s": outermost(roots, "numpy"),
        "cli.import.scipy_s": outermost(roots, "scipy"),
    }
