"""Benchmark runner for ologdb.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports the library from ``src/``.
One process, one thread, one client in a closed loop: each op starts when
the previous one has returned.  Op ``i`` uses inputs generated from
(seed, workload, i), so no two ops share an input.

Before timing it runs the CLI on the bundled fixtures twice per command
(``olog validate``, ``migrate`` in both modes, ``lattice``, ``pushout``)
and fails the run if an exit code is non-zero or the two outputs differ.

With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer ones (see README.md).  Every metric is printed by name with
its unit, and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "ologdb" / "fixtures"
TRACES = HERE / "traces"

# The loop ends once the op windows add up to --seconds of wall time, but
# not before MIN_OPS ops, so the tail percentile has samples beyond it.  The
# wall limit keeps a much slower program inside the run's time budget.
MIN_OPS = 20
WALL_LIMIT_S = 120.0
SETUP_REPEATS = 9
TAIL_BEYOND = 10
PEAK_OPS = 3

# Arguments with a dot in them name files in the fixture directory.
SMOKE_COMMANDS = (
    ["validate", "S.olog", "DS.json"],
    ["migrate", "psi.json", "DA.json", "--mode", "colimit"],
    ["migrate", "psi.json", "DA.json", "--mode", "disjoint"],
    ["lattice", "E.spec", "lattice.asserted", "--schema", "S.olog"],
    ["pushout", "phi_core.json", "psi_core.json"],
)

# Self-time spans, in the order they are reported.
SPANS = (
    "instance.instance_from_json", "instance.validate", "instance.apply_update",
    "specfiber.satisfies", "instance.elements", "migration.sigma.colimit",
    "migration.sigma.disjoint", "instance.instance_to_json",
    "migration.check_translation", "schema.congruence_closure",
    "dsl.parse_schema", "specfiber.parse_specification",
    "specfiber.entailment_order", "specfiber.render_hasse", "specfiber.closure",
    "colimit.pushout_sets", "colimit.verify_universal", "colimit.pushout_schemas",
    "dsl.serialize_schema",
)
# A call's time minus the replayed public sub-steps it makes internally.
REST = {
    "migration.sigma.colimit.rest_ms": (
        "migration.sigma.colimit",
        ("instance.validate", "migration.check_translation", "schema.congruence_closure"),
    ),
    "specfiber.entailment_order.rest_ms": (
        "specfiber.entailment_order", ("specfiber.closure",),
    ),
}
COUNTS = {
    "instance.rows_in": "count", "instance.violations_out": "count",
    "specfiber.counterexamples_out": "count", "instance.elements_morphisms_out": "count",
    "migration.rows_out.colimit": "count", "migration.rows_out.disjoint": "count",
    "schema.paths": "count", "schema.classes": "count",
    "migration.comma_copies": "count", "migration.rows_out_per_copy": "ratio",
    "specfiber.facts": "count", "specfiber.relation_pairs": "count",
    "specfiber.hasse_edges": "count", "colimit.elements_in": "count",
    "colimit.classes_out": "count",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import ologdb from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "ologdb" / "__init__.py").is_file():
        fail(f"no ologdb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ologdb

    if Path(ologdb.__file__).resolve().parent != SRC / "ologdb":
        fail(f"imported ologdb from {ologdb.__file__}, not from {SRC}")
    import setup_probe
    import workloads

    return setup_probe, workloads


def smoke() -> List[str]:
    """Run each CLI command twice in process; report any difference."""
    from ologdb.cli import main

    problems = []
    for command in SMOKE_COMMANDS:
        argv = [command[0]] + [str(FIXTURES / a) if "." in a else a for a in command[1:]]
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main(argv)
            if code != 0:
                problems.append(f"olog {' '.join(command)} exited {code}")
            outputs.append(buffer.getvalue())
        if outputs[0] != outputs[1] or not outputs[0]:
            problems.append(f"olog {' '.join(command)} is not deterministic")
    return problems


def setup_seconds(files: List[Path]) -> Tuple[float, float]:
    """Median set-up time over fresh interpreters (see setup_probe.py), at
    reference speed and as measured."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")] + [str(f) for f in files],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=False)
        if done.returncode != 0:
            fail(f"set-up probe failed:\n{done.stderr}")
        setup, kernel = map(float, done.stdout.split()[-2:])
        scaled.append(setup * reference.NOMINAL_S / kernel)
        raw.append(setup)
    return statistics.median(scaled), statistics.median(raw)


def op_rng(seed: int, workload: str, i: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{i}")


class Loop:
    """Outcome of the timed closed loop."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0  # summed wall time of the op windows
        # Op times of passed ops at reference speed, and untraced ones as measured.
        self.latencies: Dict[str, List[float]] = {"untraced": [], "traced": []}
        self.raw: List[float] = []
        self.scale: Dict[int, float] = {}  # reference speed / machine speed, per op
        self.traced_ops: List[int] = []


def run_op(workload, inp, rec) -> Tuple[Optional[dict], float]:
    """One op and its wall time; the output is None if the op raised."""
    start = time.perf_counter()
    try:
        with rec.span("op"):
            out = workload.run(inp, rec)
    except Exception:  # a failing op is counted against the run, not fatal
        traceback.print_exc()
        return None, time.perf_counter() - start
    return out, time.perf_counter() - start


def check_op(workload, inp, out: Optional[dict]) -> List[str]:
    if out is None:
        return ["raised"]
    try:
        return workload.check(inp, out)
    except Exception:  # a broken output can break the check too
        traceback.print_exc()
        return ["check raised"]


def timed_loop(workload, seed: int, seconds: float, started: float,
               recorder_for: Callable[[int], object]) -> Loop:
    """Ops back to back until their wall time adds up to ``seconds``.

    Between ops, outside the clock: input generation, a garbage collection,
    the reference kernel right before and right after the op, the output
    check and, for traced ops, the replay.
    """
    from spans import NULL

    loop = Loop()
    run_op(workload, workload.make_input(op_rng(seed, workload.name, -1)), NULL)
    i = 0
    while (loop.wall < seconds or i < MIN_OPS) and (
            i == 0 or time.monotonic() - started < WALL_LIMIT_S):
        rec = recorder_for(i)
        inp = workload.make_input(op_rng(seed, workload.name, i))
        if rec is not NULL:
            rec.op = i
        gc.collect()
        before = reference.seconds()
        out, elapsed = run_op(workload, inp, rec)
        scale = reference.NOMINAL_S / ((before + reference.seconds()) / 2)
        problems = check_op(workload, inp, out)
        loop.attempted += 1
        loop.wall += elapsed
        loop.scale[i] = scale
        if problems:
            loop.failed += 1
            print(f"op {i} failed: {'; '.join(problems)}", file=sys.stderr)
        else:
            kind = "untraced" if rec is NULL else "traced"
            loop.latencies[kind].append(elapsed * scale)
            if rec is NULL:
                loop.raw.append(elapsed)
            else:
                loop.traced_ops.append(i)
                with rec.span("replay"):
                    workload.replay(inp, out, rec)
        i += 1
    return loop


def median(values) -> float:
    """The median, or 0 when every op failed (the run is then not correct)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(latencies: List[float]) -> Tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its value."""
    if not latencies:
        return 0.0, 0.0
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def end_to_end(files: List[Path], loop: Loop) -> Tuple[Dict, List[str]]:
    lat = loop.latencies["untraced"]
    percentile, tail_s = tail(lat)
    passed = loop.attempted - loop.failed
    setup, setup_raw = setup_seconds(files)
    metrics = {
        "op_p50_ms": (median(lat) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "ops_per_s": (passed / sum(lat) if lat else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup, "s"),
        "ok_op_share": (passed / loop.attempted, "share"),
    }
    raw = loop.raw
    notes = [
        f"op_tail_ms is p{percentile:.1f}: the {TAIL_BEYOND + 1}th slowest of {len(lat)} ops",
        "times are at reference speed; as measured on the wall clock: "
        f"op p50 {median(raw) * 1000:.1f} ms, "
        f"tail {tail(raw)[1] * 1000:.1f} ms, {passed / loop.wall:.3f} ops/s, "
        f"setup {setup_raw:.4f} s",
        f"machine speed / reference speed, median over ops: "
        f"{1 / median(loop.scale.values()):.3f}",
    ]
    return metrics, notes


def per_layer(loop: Loop, rec, peaks) -> Tuple[Dict, List[str]]:
    """Medians over traced ops of span self times (at reference speed) and
    counts, and over the tracemalloc ops of span peaks."""
    self_s = rec.self_seconds()
    ops = loop.traced_ops

    def ms(i: int, name: str) -> float:
        return self_s[i].get(name, 0.0) * loop.scale[i] * 1000

    metrics: Dict[str, Tuple[float, str]] = {}
    for name in SPANS:
        metrics[f"{name}.ms"] = (median([ms(i, name) for i in ops]), "ms")
    for metric, (whole, parts) in REST.items():
        metrics[metric] = (median([
            ms(i, whole) - sum(ms(i, p) for p in parts) if whole in self_s[i] else 0.0
            for i in ops]), "ms")
    per_op: Dict[int, Dict[str, float]] = {}
    for op, name, value in rec.counts:
        per_op.setdefault(op, {})[name] = value
    for name, unit in COUNTS.items():
        metrics[name] = (median([per_op.get(i, {}).get(name, 0) for i in ops]), unit)
    peak_ops = sorted({op for op, _, _ in peaks.peaks})
    for name in SPANS:
        metrics[f"{name}.peak_kib"] = (median([
            max((b for op, n, b in peaks.peaks if op == i and n == name), default=0) / 1024
            for i in peak_ops]), "KiB")
    untraced = median(loop.latencies["untraced"])
    metrics["trace.overhead_ratio"] = (
        median(loop.latencies["traced"]) / untraced if untraced else 0.0, "ratio")
    notes = [f"traced ops: {len(loop.latencies['traced'])}, untraced ops: "
             f"{len(loop.latencies['untraced'])}, tracemalloc ops: {len(peak_ops)}",
             "span times are at reference speed"]
    return metrics, notes


def peak_pass(workload, seed: int) -> object:
    """Run a few fresh ops under tracemalloc for the spans' peak memory."""
    from spans import PeakRecorder

    peaks = PeakRecorder()
    tracemalloc.start()
    try:
        for k in range(PEAK_OPS):
            i = 1_000_000 + k
            inp = workload.make_input(op_rng(seed, workload.name, i))
            peaks.op = i
            gc.collect()
            out, _ = run_op(workload, inp, peaks)
            if out is not None:
                with peaks.span("replay"):
                    workload.replay(inp, out, peaks)
    finally:
        tracemalloc.stop()
    return peaks


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "migrate", "lattice", "glue"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    setup_probe, workloads = import_library()
    from spans import NULL, Recorder

    cls = workloads.WORKLOADS[args.workload]
    files = [FIXTURES / f for f in cls.fixtures]
    schemas, translations = setup_probe.load(files)
    workload = cls(schemas, translations, FIXTURES)

    problems = smoke()
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)

    if args.trace:
        rec = Recorder()
        loop = timed_loop(workload, args.seed, args.seconds, started,
                          lambda i: rec if i % 2 else NULL)
        peaks = peak_pass(workload, args.seed)
        metrics, notes = per_layer(loop, rec, peaks)
        TRACES.mkdir(exist_ok=True)
        out = TRACES / f"{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({**rec.to_dict(), "peaks": [
            {"op": op, "name": n, "bytes": b} for op, n, b in peaks.peaks]}))
        notes.append(f"spans written to {out.relative_to(ROOT)}")
    else:
        loop = timed_loop(workload, args.seed, args.seconds, started, lambda i: NULL)
        metrics, notes = end_to_end(files, loop)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {os.cpu_count()}  python {platform.python_version()}  git {git_sha()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    for note in notes:
        print(f"  ({note})")
    result = {
        "correct": not problems and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
