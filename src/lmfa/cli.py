"""Operator command line: run matches and tournaments, replay, report.

Exit codes: 0 success (draws included), 2 configuration error, 3
agent/setup error, 4 replay divergence. A `report` over logs that are
not a round-robin schedule is refused with 2 and writes no file. All
commands are deterministic given their flags and input files when every
agent is scripted, and no command writes outside its output directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from lmfa.agents.specs import AgentSetupError, load_agents_file
from lmfa.config import ConfigError, load_config_file, with_seed
from lmfa.engine.state import RoundOutcome, Winner
from lmfa.reporting import ReportIntegrityError, verify_replay, write_reports
from lmfa.tourney.match import log_filename, read_log, run_match, write_log
from lmfa.tourney.roundrobin import (
    result_from_logs,
    run_round_robin,
    write_tournament,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SETUP = 3
EXIT_DIVERGENCE = 4


def _ensure_out_dir(path: str, force: bool) -> Path:
    out = Path(path)
    if out.exists():
        if not out.is_dir():
            raise ConfigError(f"output path {out} is not a directory")
        if any(out.iterdir()) and not force:
            raise ConfigError(
                f"output directory {out} is not empty (use --force to reuse)"
            )
    else:
        out.mkdir(parents=True)
    return out


def _outcome_line(result: RoundOutcome, p1_id: str, p2_id: str) -> str:
    if result.winner is Winner.DRAW:
        name, health = "DRAW", "NA"
    else:
        name = p1_id if result.winner is Winner.P1 else p2_id
        health = f"{result.winner_health_fraction:.3f}"
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
    out = _ensure_out_dir(args.out, args.force)
    log = run_match(agents[0], agents[1], config)
    write_log(log, out / log_filename(0, 0, log.p1_id, log.p2_id))
    print(_outcome_line(log.result, log.p1_id, log.p2_id))
    return EXIT_OK


def cmd_tournament(args: argparse.Namespace) -> int:
    config = load_config_file(args.config)
    if args.seed is not None:
        config = with_seed(config, args.seed)
    agents = load_agents_file(args.agents)
    out = _ensure_out_dir(args.out, args.force)
    result, logs = run_round_robin(
        agents,
        config,
        base_seed=config.seed,
        matches_per_pair=args.matches_per_pair,
        parallel=args.parallel,
    )
    for log in logs:
        write_log(
            log,
            out / log_filename(log.pair_index, log.repeat_index, log.p1_id, log.p2_id),
        )
    write_tournament(result, out / "tournament.json")
    write_reports(result, logs, out)
    print(f"MATCHES={len(logs)} AGENTS={len(result.agents)} OUT={out}")
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        log = read_log(args.log)
    except FileNotFoundError:
        raise ConfigError(f"log file not found: {args.log}") from None
    except (OSError, ValueError) as exc:
        # a directory or unreadable file, bad JSON, wrong schema, missing field
        raise ConfigError(f"unreadable match log {args.log}: {exc}") from exc
    verdict = verify_replay(log)
    if verdict.ok:
        print("REPLAY=match")
        return EXIT_OK
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
    logs = []
    for path in paths:
        try:
            logs.append(read_log(path))
        except (OSError, ValueError) as exc:  # as in cmd_replay
            raise ConfigError(f"unreadable match log {path}: {exc}") from exc
    result = result_from_logs(logs)
    out = Path(args.out) if args.out else logs_dir
    # write_reports checks that the logs are a round-robin schedule before
    # it writes a file, so a refused report leaves the output directory as
    # it was.
    write_reports(result, logs, out)
    write_tournament(result, out / "tournament.json")
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
    except (ConfigError, ReportIntegrityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AgentSetupError as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        return EXIT_SETUP


if __name__ == "__main__":
    raise SystemExit(main())
