"""Run one benchmark workload against the electrovac in this checkout's src/.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload is a closed loop: one client, one operation in flight, the
next operation starts when the last one ends. Every operation's output is
checked against ``oracle``. Times are scaled to a reference speed
(``speed``). With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics from recorded spans.
Human-readable lines come first; the last line of standard output is one JSON
object {correct, attempted, failed, metrics}. Results, and the spans of a
traced run, are also written under perfbench/out/. Workloads, metrics and the
layer each metric belongs to are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT))

from perfbench.oracle import KNOWN_DEFECTS, unexplained  # noqa: E402
from perfbench.speed import REFERENCE_S, reference_time, scaled  # noqa: E402
from perfbench.spans import (  # noqa: E402
    CLI_COMMANDS,
    NullTracer,
    Tracer,
    instrument,
    layer_metrics,
    p50,
    parse_importtime,
)

SETUP_IMPORTS = 7           # timed fresh-interpreter imports per run; setup_s is their median
CLI_COLD_ROUNDS = 2         # cold runs of each CLI command in a traced run
TAIL_BEYOND = 10            # samples a tail percentile must have above it
IMPORTTIME_RUNS = 3
CLI_MAIN_ROUNDS = 5         # in-process main() calls per command in a traced run
MIN_TRACED_OPS = 2
SUBPROCESS_TIMEOUT_S = 60
IMPORT_CODE = "import electrovac, electrovac.cli"
STREAMS = {"cli_cold": 1, "verify_dense": 2, "variational_sweep": 3, "photon_roots": 4,
           "tables": 5, "radial_probe": 6}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Tally:
    """Checked operations. Failures whose every problem is a known library
    defect count as failed but leave the run correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.codes: Counter = Counter()
        self.examples: list = []

    def record(self, problems):
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if not unexplained(problems):
            self.known += 1
        self.codes.update(code for code, _ in problems)
        if len(self.examples) < 20:
            self.examples.append(problems)

    @property
    def correct(self) -> bool:
        return self.failed == self.known


def checked(check, inp, out) -> list:
    try:
        return check(inp, out)
    except (KeyError, TypeError, ValueError) as exc:  # a report missing what the check reads
        return [("report", f"malformed output: {type(exc).__name__}: {exc}")]


def run_one(wl, inp, ctx, tr, tally, probe=False, on_output=None):
    """One checked operation; returns its (wall, scaled) latency, or None if
    it raised. The scaling reads the speed just before and just after."""
    tr.op = tally.attempted
    before = reference_time()
    t0 = perf_counter()
    try:
        with tr.span(f"op.{wl.name}"):
            out = wl.op(inp, tr, ctx)
    except Exception as exc:  # a library error is a failed operation, not a crash
        tally.record([("exception", f"{type(exc).__name__}: {exc}")])
        return None
    wall = perf_counter() - t0
    ref = 0.5 * (before + reference_time())
    tally.record(checked(wl.check, inp, out))
    if probe and wl.probe is not None:
        try:
            wl.probe(inp, out, tr)
        except Exception:  # counted through the span's error flag
            pass
    if on_output is not None:
        on_output(inp, out)
    return wall, scaled(wall, ref)


def run_phase(wl, inputs, ctx, tr, tally, seconds, min_ops=0, probe=False, on_output=None):
    """Closed loop for `seconds` (and at least min_ops operations).

    Returns [(kind, wall, scaled)] latencies of the operations that returned,
    and the elapsed wall time."""
    samples = []
    attempts = 0
    start = perf_counter()
    while perf_counter() - start < seconds or attempts < min_ops:
        inp = next(inputs)
        attempts += 1
        latency = run_one(wl, inp, ctx, tr, tally, probe, on_output)
        if latency is not None:
            samples.append((inp.get("kind", wl.name), *latency))
    return samples, perf_counter() - start


def tail(latencies):
    """(value, percentile, samples above it) for the highest percentile with
    TAIL_BEYOND samples above it, but never below the median."""
    pct = max(50.0, 100.0 * (1.0 - TAIL_BEYOND / len(latencies)))
    value = float(np.percentile(latencies, pct))
    return value, pct, sum(1 for x in latencies if x > value)


def _subprocess(ctx, argv, **kwargs):
    return subprocess.run([ctx.python, *argv], cwd=ctx.root, env=ctx.env, capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S, **kwargs)


def time_setup(ctx) -> list[tuple[float, float]]:
    """(wall, scaled) times of fresh interpreters importing electrovac and its CLI."""
    _subprocess(ctx, ["-c", IMPORT_CODE], check=True)  # untimed: writes bytecode caches
    times = []
    for _ in range(SETUP_IMPORTS):
        before = reference_time()
        t0 = perf_counter()
        _subprocess(ctx, ["-c", IMPORT_CODE], check=True)
        wall = perf_counter() - t0
        times.append((wall, scaled(wall, 0.5 * (before + reference_time()))))
    return times


def import_times(ctx) -> dict:
    runs = [parse_importtime(_subprocess(ctx, ["-X", "importtime", "-c", IMPORT_CODE],
                                         check=True).stderr)
            for _ in range(IMPORTTIME_RUNS)]
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


def cli_main_latencies(ctx, inputs, tr, tally) -> dict:
    """In-process electrovac.cli.main() per command; the first round warms up."""
    from electrovac import cli
    from perfbench.workloads import cli_check

    out = {kind: [] for kind in CLI_COMMANDS}
    for i in range(len(CLI_COMMANDS) * (CLI_MAIN_ROUNDS + 1)):
        inp = next(inputs)
        buf = io.StringIO()
        tr.op = tally.attempted
        t0 = perf_counter()
        try:
            with tr.span(f"cli.main.{inp['kind']}"), redirect_stdout(buf):
                rc = cli.main(inp["argv"])
        except Exception as exc:
            tally.record([("exception", f"{type(exc).__name__}: {exc}")])
            continue
        if i >= len(CLI_COMMANDS):
            out[inp["kind"]].append(perf_counter() - t0)
        tally.record(checked(cli_check, inp, (rc, buf.getvalue())))
    return out


def cold_cli_latencies(ctx, inputs, tally) -> dict:
    """Fresh-process CLI latencies, CLI_COLD_ROUNDS per command."""
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS["cli_cold"]
    out = {kind: [] for kind in CLI_COMMANDS}
    for _ in range(CLI_COLD_ROUNDS * len(CLI_COMMANDS)):
        inp = next(inputs)
        latency = run_one(wl, inp, ctx, NullTracer(), tally)
        if latency is not None:
            out[inp["kind"]].append(latency[1])
    return out


def untraced(wl, args, ctx, rng, tally):
    setup = time_setup(ctx)
    inputs = wl.inputs(rng(wl.name), ctx)
    null = NullTracer()
    if wl.name != "cli_cold":
        run_phase(wl, inputs, ctx, null, tally, 0.0, min_ops=1)  # warm-up, not timed
    samples, elapsed = run_phase(wl, inputs, ctx, null, tally, args.seconds)
    if not samples:
        raise BenchError(f"no {wl.name} operation completed")
    walls = [w for _, w, _ in samples]
    latencies = [x for _, _, x in samples]
    # cli_cold's worker is each CLI child: RUSAGE_CHILDREN holds the largest one.
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_cold" else resource.RUSAGE_SELF
    tail_s, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(x for _, x in setup), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    wall = {"setup_s": statistics.median(w for w, _ in setup),
            "op_p50_s": statistics.median(walls), "ops_per_s": len(walls) / elapsed}
    info = {"setup_samples_s": setup, "ops": len(latencies), "elapsed_s": elapsed,
            "tail_percentile": pct, "tail_samples_above": beyond, "wall": wall}
    lines = [f"times are scaled to one reference loop taking {REFERENCE_S * 1e3:.3g} ms; "
             "wall clock: " + ", ".join(f"{k} {v:.4g}" for k, v in wall.items()),
             f"op_tail_s is p{pct:.2f} of {len(latencies)} operations, "
             f"{beyond} samples above it"]
    if wl.name == "cli_cold":
        by_kind = {kind: [x for k, _, x in samples if k == kind] for kind in CLI_COMMANDS}
        info["command_latencies_s"] = by_kind
        lines += [f"{kind}: p50 {p50(xs):.4f} s over {len(xs)} cold runs"
                  for kind, xs in by_kind.items()]
    return metrics, info, lines


def radial_false_fails(rng, tally) -> int:
    """Known slope-fit false fails among the radial-bump criticality draws.

    The other draws go into the tally as checked operations, so a draw with
    any other problem counts as failed."""
    from perfbench.workloads import radial_criticality_probe

    known = 0
    for problems in radial_criticality_probe(rng):
        if problems and not unexplained(problems):
            known += 1
        else:
            tally.record(problems)
    return known


def traced(wl, args, ctx, rng, tally):
    from perfbench.workloads import RADIAL_PROBE_DRAWS, WORKLOADS, cli_inputs, scan_matches

    tracer = Tracer()
    null = NullTracer()
    in_process = [w for w in WORKLOADS.values() if w.name != "cli_cold"]
    streams = {w.name: w.inputs(rng(w.name), ctx) for w in WORKLOADS.values()}
    for w in in_process:
        run_phase(w, streams[w.name], ctx, null, tally, 0.0, min_ops=1)  # warm-up
    quarter = args.seconds / 4.0
    base, _ = run_phase(wl, streams[wl.name], ctx, null, tally, quarter, min_ops=MIN_TRACED_OPS)

    matches = [0, 0]

    def count_matches(inp, out):
        found, want = scan_matches(inp, out)
        matches[0] += found
        matches[1] += want

    on_output = {"photon_roots": count_matches}

    with instrument(tracer):
        with_trace, _ = run_phase(wl, streams[wl.name], ctx, tracer, tally, quarter,
                                  min_ops=MIN_TRACED_OPS, probe=True,
                                  on_output=on_output.get(wl.name))
        others = [w for w in in_process if w is not wl]
        for w in others:
            run_phase(w, streams[w.name], ctx, tracer, tally, 2.0 * quarter / len(others),
                      min_ops=MIN_TRACED_OPS, probe=True, on_output=on_output.get(w.name))
        cli_main = cli_main_latencies(ctx, cli_inputs(rng("cli_cold"), ctx), tracer, tally)
    cold = cold_cli_latencies(ctx, cli_inputs(rng("cli_cold"), ctx), tally)
    imports = import_times(ctx)
    untraced_p50 = p50([x for *_, x in base])
    overhead = p50([x for *_, x in with_trace]) / untraced_p50 - 1.0 if untraced_p50 else 0.0
    metrics = layer_metrics(tracer.spans, cold, cli_main, imports, tuple(matches), overhead)
    radial = radial_false_fails(rng("radial_probe"), tally)
    metrics["variational.criticality_radial.false_fails"] = (radial, "count")
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.dump(spans_path)
    info = {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
            "untraced_ops": len(base), "traced_ops": len(with_trace)}
    lines = [f"{len(tracer.spans)} spans written to {info['spans_file']}; "
             f"overhead from {len(base)} untraced and {len(with_trace)} traced operations",
             f"radial-bump criticality_test: {radial} of {RADIAL_PROBE_DRAWS} draws "
             f"false 'not critical' ({KNOWN_DEFECTS['slope']})"]
    return metrics, info, lines


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "electrovac").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, electrovac_file) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "electrovac_file": electrovac_file,
    }


def load_electrovac() -> str:
    """Import electrovac from this checkout's src/, or refuse to run."""
    if not (SRC / "electrovac" / "__init__.py").is_file():
        raise BenchError(f"no electrovac package under {SRC}")
    sys.path.insert(0, str(SRC))
    import electrovac

    path = Path(electrovac.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise BenchError(f"electrovac resolved to {path}, outside {SRC}")
    return str(path)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cli_cold", "verify_dense", "variational_sweep", "photon_roots"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        electrovac_file = load_electrovac()
        from perfbench.workloads import WORKLOADS, Context, write_tables

        def rng(stream):
            return np.random.default_rng([args.seed, STREAMS[stream]])

        tables = write_tables(rng("tables"), OUT / f"tables-seed{args.seed}")
        ctx = Context(root=ROOT, python=sys.executable,
                      env=dict(os.environ, PYTHONPATH=str(SRC)), tables=tables)
        wl = WORKLOADS[args.workload]
        tally = Tally()
        run = traced if args.trace else untraced
        metrics, info, lines = run(wl, args, ctx, rng, tally)
    except (BenchError, ImportError, OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    envinfo = environment(args, electrovac_file)
    frac = tally.failed / tally.attempted
    print("env " + json.dumps(envinfo))
    print(f"fail_frac = {tally.failed}/{tally.attempted} = {frac:.4f}; "
          f"known library defects {tally.known}, unexplained {tally.failed - tally.known}")
    for code, count in sorted(tally.codes.items()):
        note = KNOWN_DEFECTS.get(code, "unexplained")
        print(f"  problem {code}: {count} ({note})")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"env": envinfo, "result": result, "info": info,
              "known_failed": tally.known, "problem_codes": dict(tally.codes),
              "problem_examples": tally.examples}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
