"""Operator command line: run matches and tournaments, replay, report.

Exit codes: 0 success (draws included), 2 configuration error, 3
agent/setup error, 4 replay divergence. A `report` over logs that are
not one round-robin schedule under one config and one base seed (every
seed ``base_seed + pair_index * 1000 + repeat_index``) is refused with 2
and writes no file. All commands are deterministic given their flags and
input files when every agent is scripted, and no command writes outside
its output directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from lmfa.agents.specs import AgentSetupError, load_agents_file
from lmfa.config import ConfigError, load_config_file, with_seed
from lmfa.reporting import verify_replay, write_reports
from lmfa.tourney.match import (
    MalformedLogError,
    MatchLog,
    log_filename,
    read_log,
    run_match,
    write_log,
)
from lmfa.tourney.roundrobin import (
    ReportIntegrityError,
    frames_dropped,
    pair_schedule,
    result_from_logs,
    run_round_robin,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SETUP = 3
EXIT_DIVERGENCE = 4


def _check_out_dir(path: str, force: bool) -> Path:
    """Refuse an output path that is, or lies under, something other than a
    directory (a dangling symlink too), or a non-empty directory without
    --force; the directory is made only once there is something to write,
    so a refused command leaves none behind."""
    out = Path(path)
    nearest = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
    if not nearest.is_dir():
        under = "" if nearest == out else f" is under {nearest}, which"
        raise ConfigError(f"output path {out}{under} is not a directory")
    if nearest == out and not force and any(out.iterdir()):
        raise ConfigError(f"output directory {out} is not empty (use --force to reuse)")
    return out


def _outcome_line(log: MatchLog) -> str:
    result = log.result
    if result.winner is None:
        name, health = "DRAW", "NA"
    else:
        name, health = log.agent_id(result.winner), f"{result.winner_health_fraction:.3f}"
    return f"WINNER={name} HEALTH={health} REASON={result.end_reason.value}"


def cmd_run_match(args: argparse.Namespace) -> int:
    config = load_config_file(args.config)
    if args.seed is not None:
        config = with_seed(config, args.seed)
    agents = load_agents_file(args.agents)
    if len(agents) != 2:
        raise AgentSetupError(
            f"run-match needs exactly 2 agents, found {len(agents)}"
        )
    out = _check_out_dir(args.out, args.force)
    log = run_match(agents[0], agents[1], config)
    write_log(log, out / log_filename(0, 0, log.p1_id, log.p2_id))
    print(_outcome_line(log))
    return EXIT_OK


def cmd_tournament(args: argparse.Namespace) -> int:
    config = load_config_file(args.config)
    if args.seed is not None:
        config = with_seed(config, args.seed)
    agents = load_agents_file(args.agents)
    out = _check_out_dir(args.out, args.force)
    # a report over the directory reads every match log in it, so --force
    # may overwrite only the logs of this run's schedule
    schedule = pair_schedule([a.id for a in agents], args.matches_per_pair)
    names = [log_filename(e["pair_index"], e["repeat_index"], e["p1"], e["p2"]) for e in schedule]
    foreign = sorted(p.name for p in out.glob("match_*.json") if p.name not in names)
    if foreign:
        raise ConfigError(f"output directory {out} holds other match logs: {', '.join(foreign)}")

    def write(log: MatchLog) -> MatchLog:
        write_log(log, out / log_filename(log.pair_index, log.repeat_index, log.p1_id, log.p2_id))
        return frames_dropped(log)

    # each log is written as its match ends, so an interrupted run keeps
    # every finished log whole and writes no report
    logs = run_round_robin(
        agents, config, matches_per_pair=args.matches_per_pair, parallel=args.parallel,
        on_log=write,
    )
    doc = result_from_logs(logs)
    write_reports(doc, out)
    print(f"MATCHES={len(logs)} AGENTS={len(doc['agents'])} OUT={out}")
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    verdict = verify_replay(read_log(args.log))
    if verdict.ok:
        print("REPLAY=match")
        return EXIT_OK
    print(f"replay: {verdict.detail}", file=sys.stderr)
    if verdict.kind == "result_forgery":
        print("REPLAY=result_forgery")
    else:
        print(f"REPLAY=divergence FRAME={verdict.first_divergent_frame}")
    return EXIT_DIVERGENCE


def cmd_report(args: argparse.Namespace) -> int:
    logs_dir = Path(args.logs)
    if not logs_dir.is_dir():
        raise ConfigError(f"log directory not found: {logs_dir}")
    paths = sorted(logs_dir.glob("match_*.json"))
    if not paths:
        raise ConfigError(f"no match logs in {logs_dir}")
    # report writes into the log directory by default, so a non-empty
    # --out is normal
    out = _check_out_dir(args.out or args.logs, force=True)
    # a log is checked whole as it is read; only what aggregation reads is kept
    logs = [frames_dropped(read_log(path)) for path in paths]
    # result_from_logs refuses logs that are not one round-robin schedule
    # before any file is opened, so a refused report leaves the output
    # directory as it was.
    write_reports(result_from_logs(logs), out)
    print(f"REPORTS={out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmfa",
        description="deterministic fighting arena for agent evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="match config JSON")
        p.add_argument("--agents", required=True, help="agents file JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--force", action="store_true", help="reuse non-empty out dir")

    p_match = sub.add_parser("run-match", help="run a single match")
    add_common(p_match)
    p_match.set_defaults(func=cmd_run_match)

    p_tour = sub.add_parser("tournament", help="run a round-robin tournament")
    add_common(p_tour)
    p_tour.add_argument("--matches-per-pair", type=int, default=1)
    p_tour.add_argument("--parallel", type=int, default=1)
    p_tour.set_defaults(func=cmd_tournament)

    p_replay = sub.add_parser("replay", help="verify a match log by re-simulation")
    p_replay.add_argument("log", help="match log JSON path")
    p_replay.set_defaults(func=cmd_replay)

    p_report = sub.add_parser("report", help="regenerate reports from logs")
    p_report.add_argument("logs", help="directory containing match_*.json")
    p_report.add_argument("--out", default=None, help="report output directory")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MalformedLogError, ReportIntegrityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AgentSetupError as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        return EXIT_SETUP


if __name__ == "__main__":
    raise SystemExit(main())
