"""Seeded inputs and the three workloads.

Each workload drives lmfa through ``lmfa.cli.main`` in a closed loop: one
CLI invocation at a time, in this process, with at most two threads. The
workload seed picks the random bots' seeds, the config seed and the mock
reply sequence; lmfa itself only ever sees the generated files.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from gate import (
    REPORT_FILES,
    check_beats_by_knockout,
    check_remote_log,
    check_replays,
    check_report_regen,
    cli,
    cli_problem,
    compare_reports,
    diff_digests,
    file_digests,
    load_log,
    masked_log,
    replay_problem,
    trace_digests,
)
from mockd import MockProcess
from tracing import Tracer, decision_ticks, match_ticks

CANONICAL_SEED = 1
SETUP_REPEATS = 3
# reports timed per iteration where the report is not part of the workload itself
REPORT_REPEATS = 5

SCRIPTED_MATCH_FRAMES = 5940
# A full-length remote-vs-remote match takes about 17 s on a 2-core machine;
# a third of the length keeps several matches in one run while leaving the
# per-decision work (render, encode, wire JSON, HTTP, extraction) unchanged.
REMOTE_MATCH_FRAMES = 1980
DECISION_INTERVAL = 40

# Facing-relative chords only: both players get the same stream, so any
# absolute direction would break the mirror oracle.
REPLY_CHORDS = (
    "A", "B", "C", "Forward", "Back", "Jump", "Crouch", "Block",
    "Forward + A", "Forward + B", "Back + B", "Down + A", "Crouch + B",
    "Jump + Forward", "Jump + Back", "Down + Forward",
)
REPLY_PREAMBLE = (
    "The opponent is closing the distance.",
    "I am ahead on health, so I can play safe.",
    "A fireball may still be on screen.",
    "They keep jumping in.",
    "Pressure works best up close.",
    "I should not whiff a slow move here.",
)
REPLY_LAST_LINE = ("{cmd}", "Command: {cmd}", "`{cmd}`", "So my move is: {cmd}.")


def write_json(path: Path, doc) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def scripted_inputs(seed: int, dest: Path) -> Tuple[Path, Path]:
    """Config and 6-agent roster: idle, rushdown, zoner and 3 random bots."""
    rng = random.Random(f"scripted:{seed}")
    config = {
        "lmfa_config": 1,
        "match_length_frames": SCRIPTED_MATCH_FRAMES,
        "decision_interval_frames": DECISION_INTERVAL,
        "seed": rng.randrange(2**31),
    }
    agents = [
        {"id": "idle", "kind": "scripted", "policy": "idle"},
        {"id": "rushdown", "kind": "scripted", "policy": "rushdown"},
        {"id": "zoner", "kind": "scripted", "policy": "zoner"},
    ] + [
        {"id": f"random{i}", "kind": "scripted", "policy": "random", "seed": rng.randrange(1, 2**31)}
        for i in (1, 2, 3)
    ]
    return (
        write_json(dest / "config.json", config),
        write_json(dest / "agents.json", {"lmfa_agents": 1, "agents": agents}),
    )


def remote_replies(seed: int) -> Tuple[List[str], List[str]]:
    """One reply per decision tick: reasoning lines, then a command line.

    Returns (replies, commands) where commands[k] is the command text that
    replies[k] carries.
    """
    rng = random.Random(f"remote:{seed}")
    ticks = -(-REMOTE_MATCH_FRAMES // DECISION_INTERVAL)
    replies, commands = [], []
    for _ in range(ticks):
        cmd = ", ".join(rng.choice(REPLY_CHORDS) for _ in range(rng.randint(1, 3)))
        reasoning = rng.sample(REPLY_PREAMBLE, rng.randint(1, 3))
        last = rng.choice(REPLY_LAST_LINE).format(cmd=cmd)
        replies.append("\n".join(reasoning + [last]))
        commands.append(cmd)
    return replies, commands


def remote_inputs(seed: int, dest: Path, urls: Tuple[str, str]) -> Tuple[Path, Path, Path]:
    """Config, two remote agents (lmfa and chat wire formats), reply file."""
    rng = random.Random(f"remote-config:{seed}")
    config = {
        "lmfa_config": 1,
        "match_length_frames": REMOTE_MATCH_FRAMES,
        "decision_interval_frames": DECISION_INTERVAL,
        "seed": rng.randrange(2**31),
    }
    agents = [
        {"id": "wire-lmfa", "kind": "remote", "endpoint": urls[0], "model_name": "mock-a",
         "wire_format": "lmfa", "timeout_ms": 10000, "max_retries": 1},
        {"id": "wire-chat", "kind": "remote", "endpoint": urls[1], "model_name": "mock-b",
         "wire_format": "chat", "timeout_ms": 10000, "max_retries": 1},
    ]
    replies, _ = remote_replies(seed)
    return (
        write_json(dest / "config.json", config),
        write_json(dest / "agents.json", {"lmfa_agents": 1, "agents": agents}),
        write_json(dest / "replies.json", replies),
    )


def normalized_commands(commands: List[str]) -> List[str]:
    from lmfa.actions import parse

    return [parse(c).normalized for c in commands]


# -- run bookkeeping ----------------------------------------------------


@dataclass
class Stats:
    """What a measured phase did: timed work, latencies and gate outcomes.

    Raw wall times accumulate during an iteration; ``end_iteration`` scales
    that iteration's times by the machine speed measured around it (see
    speed.py) into the reference-second lists the metrics come from.
    """

    iterations: int = 0
    frames: int = 0
    wall_s: float = 0.0
    tick_s: List[float] = field(default_factory=list)
    report_s_per_frame: List[float] = field(default_factory=list)
    io_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    ref_fps: List[float] = field(default_factory=list)
    ref_tick_s: List[float] = field(default_factory=list)
    ref_report_s_per_frame: List[float] = field(default_factory=list)

    def op(self, problems: List[str], count: int = 1) -> None:
        """Record ``count`` operations, failing as many as there are problems."""
        self.attempted += count
        self.failed += min(len(problems), count)
        self.problems.extend(problems)

    def mark(self) -> Tuple[int, float, int, int]:
        return self.frames, self.wall_s, len(self.tick_s), len(self.report_s_per_frame)

    def end_iteration(self, mark: Tuple[int, float, int, int], speed: float) -> None:
        frames, wall_s, ticks, reports = mark
        self.ref_fps.append((self.frames - frames) / ((self.wall_s - wall_s) * speed))
        self.ref_tick_s.extend(t * speed for t in self.tick_s[ticks:])
        self.ref_report_s_per_frame.extend(t * speed for t in self.report_s_per_frame[reports:])
        self.iterations += 1


class Context:
    def __init__(self, src: Path, seed: int, work: Path) -> None:
        self.src = src
        self.seed = seed
        self.work = work
        self._n = 0

    def fresh(self, prefix: str) -> Path:
        """A path under the work directory that does not exist yet."""
        self._n += 1
        return self.work / f"{prefix}-{self._n}"

    def cold_import(self) -> None:
        """``import lmfa.cli`` in a fresh interpreter."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), env.get("PYTHONPATH", "")) if p
        )
        subprocess.run([sys.executable, "-c", "import lmfa.cli"], env=env, check=True)

    def start_mocks(self) -> List[MockProcess]:
        mocks = [MockProcess(fmt, self.src) for fmt in ("lmfa", "chat")]
        try:
            for mock in mocks:
                mock.ready()
        except BaseException:
            for mock in mocks:
                mock.close()
            raise
        return mocks


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def log_frames(path: Path) -> int:
    return len(load_log(path)["input_trace"])


def timed_cli(*argv: str) -> Tuple[float, Optional[int], str, str]:
    """``cli`` with its wall time, starting from a collected heap so that
    garbage left by gate work is not collected on the clock."""
    gc.collect()
    t0 = time.perf_counter()
    code, out, err = cli(*argv)
    return time.perf_counter() - t0, code, out, err


def untraced(tracer: Optional[Tracer]):
    return tracer.paused() if tracer is not None else nullcontext()


# -- workloads ----------------------------------------------------------


class Workload:
    name = ""
    # times decision ticks into Stats.tick_s when tracing is off, if set
    tick_timer: Optional[Callable[[List[float]], object]] = None

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        """Timed as setup_s, repeated; must leave the workload ready to run."""
        raise NotImplementedError

    def prepare(self, stats: Stats) -> None:
        """Untimed reference runs the gate compares iterations against."""

    def iteration(self, stats: Stats, tracer: Optional[Tracer]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what setup started; called between setup repeats and at exit."""


def timed_reports(
    ctx: Context,
    stats: Stats,
    tracer: Optional[Tracer],
    log_dir: Path,
    frames: int,
    check: Callable[[Path], List[str]],
) -> None:
    """Time REPORT_REPEATS runs of ``lmfa report --out`` over ``log_dir``,
    whose logs hold ``frames`` frames; ``check`` judges each output."""
    for _ in range(REPORT_REPEATS):
        rep = ctx.fresh("report")
        argv = ("report", str(log_dir), "--out", str(rep))
        elapsed, code, _, err = timed_cli(*argv)
        stats.report_s_per_frame.append(elapsed / max(frames, 1))
        with untraced(tracer):
            stats.op(cli_problem(argv, code, err) or check(rep))
            shutil.rmtree(rep)


def tournament_argv(config: Path, agents: Path, out: Path, parallel: int) -> Tuple[str, ...]:
    return (
        "tournament", "--config", str(config), "--agents", str(agents),
        "--out", str(out), "--matches-per-pair", "2", "--parallel", str(parallel),
    )


class ScriptedRoundRobin(Workload):
    """The operator's main path. Engine, digest chain, bots, parse/resolve and
    log writing dominate; nothing is rendered or sent over HTTP. The only
    workload where ``--parallel`` scheduling shows."""

    name = "scripted-roundrobin"
    tick_timer = staticmethod(match_ticks)

    def setup(self) -> None:
        self.ctx.cold_import()
        self.config, self.agents = scripted_inputs(self.ctx.seed, self.ctx.fresh("inputs"))

    def prepare(self, stats: Stats) -> None:
        ref = self.ctx.fresh("serial-reference")
        argv = tournament_argv(self.config, self.agents, ref, parallel=1)
        code, _, err = cli(*argv)
        problems = cli_problem(argv, code, err)
        stats.op(problems)
        if problems:
            self.reference, self.frames = {}, 0
            return
        self.reference = file_digests(ref)
        logs = sorted(ref.glob("match_*.json"))
        self.frames = sum(log_frames(p) for p in logs)
        stats.op(check_replays(logs), len(logs))
        stats.op(check_beats_by_knockout(ref, "rushdown", "idle"))
        stats.op(check_report_regen(ref, self.ctx.fresh("reference-report")))

    def iteration(self, stats: Stats, tracer: Optional[Tracer]) -> None:
        out = self.ctx.fresh("tournament")
        argv = tournament_argv(self.config, self.agents, out, parallel=2)
        elapsed, code, _, err = timed_cli(*argv)
        stats.wall_s += elapsed
        stats.frames += self.frames
        with untraced(tracer):
            stats.op(
                cli_problem(argv, code, err)
                or diff_digests(self.reference, file_digests(out), "output vs serial reference")
            )
            stats.io_bytes += dir_bytes(out)
        timed_reports(self.ctx, stats, tracer, out, self.frames, lambda rep: compare_reports(out, rep))
        with untraced(tracer):
            shutil.rmtree(out)


class RemoteMockMatch(Workload):
    """The remote path. Render, annotate, base64, wire JSON, HTTP and command
    extraction dominate and the engine is a few percent; compact observation
    payloads show here and nowhere else."""

    name = "remote-mock-match"
    tick_timer = staticmethod(decision_ticks)

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.mocks: List[MockProcess] = []
        replies, commands = remote_replies(ctx.seed)
        self.replies = replies
        self.expected = normalized_commands(commands)
        self.first_log: Optional[str] = None
        self.first_reports: Optional[Dict[str, str]] = None

    def setup(self) -> None:
        self.ctx.cold_import()
        self.mocks = self.ctx.start_mocks()
        urls = tuple(m.url for m in self.mocks)
        self.config, self.agents, self.replies_path = remote_inputs(
            self.ctx.seed, self.ctx.fresh("inputs"), urls
        )

    def close(self) -> None:
        for mock in self.mocks:
            mock.close()
        self.mocks = []

    def iteration(self, stats: Stats, tracer: Optional[Tracer]) -> None:
        with untraced(tracer):
            for mock in self.mocks:
                mock.load(self.replies_path)
        out = self.ctx.fresh("match")
        argv = ("run-match", "--config", str(self.config), "--agents", str(self.agents),
                "--out", str(out))
        elapsed, code, _, err = timed_cli(*argv)
        stats.wall_s += elapsed
        with untraced(tracer):
            problems = cli_problem(argv, code, err)
            if problems:
                stats.op(problems)
                return
            (log_path,) = out.glob("match_*.json")
            log = load_log(log_path)
            served = [m.stats() for m in self.mocks]
            problems = check_remote_log(
                log, self.replies, self.expected, [s["requests"] for s in served]
            )
            masked = masked_log(log)
            if self.first_log is None:
                self.first_log = masked
                problems += replay_problem(log_path)
            elif masked != self.first_log:
                problems.append("log differs from the first iteration beyond latency_ms")
            stats.op(problems, max(len(log["decisions"]), 1))
            frames = len(log["input_trace"])
            stats.frames += frames
            stats.io_bytes += sum(s["bytes"] for s in served) + dir_bytes(out)
        timed_reports(self.ctx, stats, tracer, out, frames, self.check_reports)
        with untraced(tracer):
            shutil.rmtree(out)

    def check_reports(self, rep: Path) -> List[str]:
        reports = file_digests(rep, REPORT_FILES)
        if self.first_reports is None:
            self.first_reports = reports
        return diff_digests(self.first_reports, reports, "report vs first iteration")


class ReplayReport(Workload):
    """The verifier's read path: engine and digest chain with no agents, plus
    log parsing and aggregation. Set against scripted-roundrobin it separates
    engine gains from bot and log-writing gains."""

    name = "replay-report"

    def setup(self) -> None:
        self.ctx.cold_import()
        config, agents = scripted_inputs(self.ctx.seed, self.ctx.fresh("inputs"))
        self.logs = self.ctx.fresh("logs")
        argv = tournament_argv(config, agents, self.logs, parallel=1)
        code, _, err = cli(*argv)
        self.setup_problems = cli_problem(argv, code, err)

    def prepare(self, stats: Stats) -> None:
        stats.op(self.setup_problems)
        self.frames = {p: log_frames(p) for p in sorted(self.logs.glob("match_*.json"))}
        self.log_bytes = sum(p.stat().st_size for p in self.frames)

    def iteration(self, stats: Stats, tracer: Optional[Tracer]) -> None:
        gc.collect()
        for path, frames in self.frames.items():
            t0 = time.perf_counter()
            problems = replay_problem(path)
            elapsed = time.perf_counter() - t0
            stats.wall_s += elapsed
            stats.frames += frames
            stats.tick_s.append(elapsed * DECISION_INTERVAL / frames)
            stats.op(problems)
        rep = self.ctx.fresh("report")
        argv = ("report", str(self.logs), "--out", str(rep))
        elapsed, code, _, err = timed_cli(*argv)
        stats.wall_s += elapsed
        stats.report_s_per_frame.append(elapsed / sum(self.frames.values()))
        with untraced(tracer):
            stats.op(cli_problem(argv, code, err) or compare_reports(self.logs, rep))
            # replay and report each read every log once
            stats.io_bytes += 2 * self.log_bytes + dir_bytes(rep)
            shutil.rmtree(rep)


WORKLOADS = {w.name: w for w in (ScriptedRoundRobin, RemoteMockMatch, ReplayReport)}


# -- golden digests -----------------------------------------------------


def canonical_tournament(ctx: Context) -> Tuple[dict, List[str]]:
    """File digests of the canonical-seed scripted tournament."""
    config, agents = scripted_inputs(CANONICAL_SEED, ctx.fresh("canonical-inputs"))
    out = ctx.fresh("canonical-tournament")
    argv = tournament_argv(config, agents, out, parallel=2)
    code, _, err = cli(*argv)
    problems = cli_problem(argv, code, err)
    if problems:
        return {}, problems
    digests = file_digests(out)
    shutil.rmtree(out)
    return {"files": digests}, []


def canonical_remote(ctx: Context, mocks: List[MockProcess]) -> Tuple[dict, List[str]]:
    """Trace digests of the canonical-seed remote match, which must pass the gate."""
    dest = ctx.fresh("canonical-remote")
    config, agents, replies_path = remote_inputs(CANONICAL_SEED, dest, tuple(m.url for m in mocks))
    for mock in mocks:
        mock.load(replies_path)
    out = ctx.fresh("canonical-match")
    argv = ("run-match", "--config", str(config), "--agents", str(agents), "--out", str(out))
    code, _, err = cli(*argv)
    problems = cli_problem(argv, code, err)
    if problems:
        return {}, problems
    (log_path,) = out.glob("match_*.json")
    log = load_log(log_path)
    replies, commands = remote_replies(CANONICAL_SEED)
    served = [m.stats()["requests"] for m in mocks]
    problems = check_remote_log(log, replies, normalized_commands(commands), served)
    shutil.rmtree(out)
    return trace_digests(log), problems


def check_canonical(ctx: Context, workload: Workload, golden: dict) -> List[str]:
    """Re-create the canonical-seed output of ``workload`` and compare it with
    the golden list: the remote match for the remote workload, the scripted
    tournament for the other two."""
    if isinstance(workload, RemoteMockMatch):
        name = RemoteMockMatch.name
        actual, problems = canonical_remote(ctx, workload.mocks)
        want = golden.get(name, {})
    else:
        name = ScriptedRoundRobin.name
        actual, problems = canonical_tournament(ctx)
        want = golden.get(name, {}).get("files", {})
        actual = actual.get("files", {})
    return problems + diff_digests(want, actual, f"golden {name} (seed {CANONICAL_SEED})")
