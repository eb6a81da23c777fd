"""lmfa benchmark: one command, three workloads, a correctness gate.

Run from the repository root:

    python3 bench/run.py --workload scripted-roundrobin --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
also runs the workload with every public lmfa layer wrapped and prints the
per-layer metrics instead. The last stdout line is the JSON result; the line
before it is the run context (machine, versions, commit, source size).
Human-readable figures go to stderr.

The golden digest list (``bench/golden.json``) pins the canonical seed's
scripted tournament logs and reports and the remote match's input trace and
state digests; every run re-creates its workload's canonical output
and compares. Regenerate the list with

    python3 bench/run.py --write-golden

only in a change that alters those outputs on purpose, and say so there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from speed import machine_speed
from tracing import Tracer, layer_metrics
from workloads import (
    CANONICAL_SEED,
    SETUP_REPEATS,
    WORKLOADS,
    Context,
    RemoteMockMatch,
    ScriptedRoundRobin,
    Stats,
    canonical_remote,
    canonical_tournament,
    check_canonical,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORK = ROOT / ".bench_work"


def median(values: List[float]) -> float:
    """Median; 0 for no values (a run the gate fails)."""
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values (a run the gate fails)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure(workload, seconds: float, tracer=None):
    """Run iterations for ``seconds`` of wall time (at least two).

    The machine's speed is sampled between iterations, so each iteration's
    times are scaled by the mean of the samples on either side of it.
    """
    stats = Stats()
    if tracer is not None:
        scope = tracer.installed()
    elif workload.tick_timer is not None:
        scope = workload.tick_timer(stats.tick_s)
    else:
        scope = nullcontext()
    start = time.perf_counter()
    speed = machine_speed()
    with scope:
        while stats.iterations < 2 or time.perf_counter() - start < seconds:
            mark = stats.mark()
            workload.iteration(stats, tracer)
            after = machine_speed()
            stats.end_iteration(mark, (speed + after) / 2)
            speed = after
    return stats


def end_to_end(setup: List[float], stats) -> Dict[str, Tuple[float, str]]:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (median(setup), "s"),
        "frames_per_s": (median(stats.ref_fps), "frames/s"),
        "tick_ms.p50": (percentile(stats.ref_tick_s, 50) * 1000, "ms"),
        "tick_ms.p95": (percentile(stats.ref_tick_s, 95) * 1000, "ms"),
        "report_us_per_frame": (median(stats.ref_report_s_per_frame) * 1e6, "us/frame"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "io_bytes_per_frame": (stats.io_bytes / max(stats.frames, 1), "B/frame"),
    }


def raw_figures(setup: List[float], stats) -> Dict[str, float]:
    """The same times in plain wall-clock units, for the stderr summary."""
    return {
        "setup_s": median(setup),
        "frames_per_s": stats.frames / stats.wall_s,
        "tick_ms.p50": percentile(stats.tick_s, 50) * 1000,
        "tick_ms.p95": percentile(stats.tick_s, 95) * 1000,
        "report_us_per_frame": median(stats.report_s_per_frame) * 1e6,
    }


def run_context() -> dict:
    import numpy
    import requests

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "lmfa").rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "requests": requests.__version__,
        "commit": commit,
        "src_lmfa_lines": src_lines,
    }


def timed_setups(workload) -> Tuple[List[float], List[float]]:
    """Set the workload up SETUP_REPEATS times: (reference, raw) seconds each."""
    ref, raw = [], []
    for i in range(SETUP_REPEATS):
        if i:
            workload.close()
        before = machine_speed()
        t0 = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - t0
        raw.append(elapsed)
        ref.append(elapsed * (before + machine_speed()) / 2)
    return ref, raw


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    ctx = Context(SRC, seed, work)
    workload = WORKLOADS[name](ctx)
    gate = Stats()
    try:
        setup, setup_raw = timed_setups(workload)
        workload.prepare(gate)
        gate.op(check_canonical(ctx, workload, json.loads(GOLDEN.read_text())))
        plain = measure(workload, seconds)
        metrics = end_to_end(setup, plain)
        raw = raw_figures(setup_raw, plain)
        phases = [gate, plain]
        if trace:
            tracer = Tracer()
            traced = measure(workload, seconds, tracer)
            phases.append(traced)
            metrics = layer_metrics(tracer, traced.iterations)
            plain_fps = median(plain.ref_fps)
            metrics["trace.overhead"] = (
                median(traced.ref_fps) / plain_fps if plain_fps else 0.0,
                "ratio",
            )
            raw = {}
            steps = tracer.totals()[0].get("engine.step", (0, 0.0, 0.0))[0]
            if steps != traced.frames:
                traced.op([f"engine.step calls {steps} != {traced.frames} frames in logs"])
    finally:
        workload.close()

    problems = [p for phase in phases for p in phase.problems]
    for p in problems[:20]:
        print(f"gate: {p}", file=sys.stderr)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for key, (value, unit) in metrics.items():
        wall = f"  (wall clock {raw[key]:.6g})" if key in raw else ""
        print(f"{name:>20} {key:<48} {value:>14.6g} {unit}{wall}", file=sys.stderr)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_golden(work: Path) -> None:
    ctx = Context(SRC, CANONICAL_SEED, work)
    tournament, problems = canonical_tournament(ctx)
    mocks = ctx.start_mocks()
    try:
        remote, remote_problems = canonical_remote(ctx, mocks)
    finally:
        for mock in mocks:
            mock.close()
    problems += remote_problems
    if problems:
        raise SystemExit("canonical run failed the gate:\n" + "\n".join(problems))
    doc = {
        "canonical_seed": CANONICAL_SEED,
        "regenerate": "python3 bench/run.py --write-golden",
        ScriptedRoundRobin.name: tournament,
        RemoteMockMatch.name: remote,
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true", help="regenerate bench/golden.json")
    args = parser.parse_args(argv)
    if not (SRC / "lmfa" / "cli.py").is_file():
        print(f"error: lmfa sources not found under {SRC}", file=sys.stderr)
        return 2
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    work = WORK / str(os.getpid())
    try:
        if args.write_golden:
            write_golden(work)
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps({"context": run_context()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
