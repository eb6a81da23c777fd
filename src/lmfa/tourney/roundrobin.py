"""Round-robin scheduling and tournament aggregation.

Every unordered pair plays once (or ``matches_per_pair`` times); the side
assignment alternates deterministically with the pair index and repeat
index so neither agent systematically starts as P1. Per-match seeds are
``config.seed + pair_index * 1000 + repeat_index``. Aggregation walks the
schedule once, whatever order the logs come in, so parallel execution
cannot change any report byte, and it refuses logs that are not exactly
one schedule.

With ``parallel > 1``, only matches with a remote agent go to a thread
pool, because only they wait on I/O; a scripted match is pure computation
that threads would only slow down, so those run on the calling thread
while the pool works.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from lmfa.agents.specs import AgentKind, AgentSetupError, AgentSpec, require_unique_ids
from lmfa.config import MatchConfig, config_to_dict, with_seed
from lmfa.engine.state import Player, RoundOutcome, Winner
from lmfa.tourney.match import BUTTON_NAMES, MatchLog, run_match


class ReportIntegrityError(ValueError):
    """Logs that are not one round-robin tournament; nothing is reported."""


@dataclass(frozen=True)
class PairCell:
    """Aggregated result for one unordered pair (row earlier in agent order)."""

    row: str
    col: str
    row_wins: int
    col_wins: int
    draws: int
    winner: str  # "row" | "col" | "draw"
    winner_health: Optional[int]  # internal 0-1000 scale; None for draws

    # the same 3-decimal rounding as one match's outcome
    winner_health_fraction = RoundOutcome.winner_health_fraction


@dataclass(frozen=True)
class AgentStanding:
    agent: str
    matches: int
    wins: int
    draws: int
    losses: int
    win_rate: float
    winner_health_sum: int  # tiebreak: total health retained in wins


@dataclass(frozen=True)
class TournamentResult:
    agents: Tuple[str, ...]
    cells: Tuple[PairCell, ...]
    standings: Tuple[AgentStanding, ...]  # in agents order, not ranked
    button_counts: Dict[str, Dict[str, int]]


def pair_schedule(ids: Sequence[str], matches_per_pair: int) -> List[dict]:
    """Flat schedule: one entry per match, deterministic order."""
    schedule = []
    pair_index = 0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            for k in range(matches_per_pair):
                flip = (pair_index + k) % 2 == 1
                schedule.append(
                    {
                        "pair_index": pair_index,
                        "repeat_index": k,
                        "row": ids[i],
                        "col": ids[j],
                        "p1": ids[j] if flip else ids[i],
                        "p2": ids[i] if flip else ids[j],
                    }
                )
            pair_index += 1
    return schedule


def match_seed(base_seed: int, pair_index: int, repeat_index: int) -> int:
    return base_seed + pair_index * 1000 + repeat_index


def _wins_for(log: MatchLog, agent_id: str) -> bool:
    winner = log.result.winner
    if winner is Winner.DRAW:
        return False
    return log.agent_id(Player.P1 if winner is Winner.P1 else Player.P2) == agent_id


def _aggregate_cell(row: str, col: str, logs: Sequence[MatchLog]) -> PairCell:
    row_wins = sum(_wins_for(log, row) for log in logs)
    col_wins = sum(_wins_for(log, col) for log in logs)
    draws = len(logs) - row_wins - col_wins
    if row_wins > col_wins:
        winner = "row"
    elif col_wins > row_wins:
        winner = "col"
    else:
        winner = "draw"
    healths = [
        log.result.winner_health
        for log in logs
        if log.result.winner_health is not None
        and _wins_for(log, row if winner == "row" else col)
    ]
    # multi-match cells keep the integer mean of the winner's healths
    winner_health = sum(healths) // len(healths) if winner != "draw" and healths else None
    return PairCell(row, col, row_wins, col_wins, draws, winner, winner_health)


def _where(log: MatchLog) -> str:
    return f"log {log.p1_id} vs {log.p2_id} (pair {log.pair_index}, repeat {log.repeat_index})"


def aggregate(ids: Sequence[str], logs: Sequence[MatchLog]) -> TournamentResult:
    """Fold the logs of one round-robin over ``ids`` in schedule order.

    Raises ReportIntegrityError unless the logs are exactly
    ``pair_schedule(ids, k)``, k being one more than the largest repeat
    index: each log is the entry for its ``(pair_index, repeat_index)``
    with that entry's sides, no entry comes twice, none is missing,
    every log shares one config apart from its seed, and every seed is
    ``base_seed + pair_index * 1000 + repeat_index`` for one base seed.
    """
    ids = list(ids)
    by_key: Dict[Tuple[int, int], MatchLog] = {}
    first = config_to_dict(logs[0].config) if logs else {}
    for log in logs:
        if (log.pair_index, log.repeat_index) in by_key:
            raise ReportIntegrityError(f"{_where(log)} appears twice")
        differs = [
            k for k, v in config_to_dict(log.config).items() if k != "seed" and v != first[k]
        ]
        if differs:  # seeds differ by design
            raise ReportIntegrityError(
                f"{_where(log)} differs from {_where(logs[0])} in config {differs}"
            )
        by_key[log.pair_index, log.repeat_index] = log
    repeats = 1 + max((log.repeat_index for log in logs), default=0)
    stats = {aid: {"wins": 0, "draws": 0, "losses": 0, "matches": 0, "hsum": 0} for aid in ids}
    counts = {aid: dict.fromkeys(BUTTON_NAMES.values(), 0) for aid in ids}
    cells: List[PairCell] = []
    pair_logs: List[MatchLog] = []
    missing = []
    base_seed: Optional[int] = None
    for entry in pair_schedule(ids, repeats):
        key = (entry["pair_index"], entry["repeat_index"])
        log = by_key.pop(key, None)
        if log is None:
            missing.append(f"pair {key[0]} {(entry['row'], entry['col'])} repeat {key[1]}")
        elif (log.p1_id, log.p2_id) != (entry["p1"], entry["p2"]):
            raise ReportIntegrityError(
                f"{_where(log)} should be {entry['p1']} vs {entry['p2']}"
            )
        elif base_seed is not None and log.config.seed != match_seed(base_seed, *key):
            raise ReportIntegrityError(
                f"{_where(log)} has seed {log.config.seed}, not {match_seed(base_seed, *key)}"
                f" (base seed {base_seed})"
            )
        else:
            if base_seed is None:
                base_seed = log.config.seed - match_seed(0, *key)
            pair_logs.append(log)
            for player in (Player.P1, Player.P2):
                aid = log.agent_id(player)
                s = stats[aid]
                s["matches"] += 1
                if log.result.winner is Winner.DRAW:
                    s["draws"] += 1
                elif _wins_for(log, aid):
                    s["wins"] += 1
                    s["hsum"] += log.result.winner_health or 0
                else:
                    s["losses"] += 1
                for button, n in log.button_counts[player.value].items():
                    counts[aid][button] += n
        if key[1] == repeats - 1:
            cells.append(_aggregate_cell(entry["row"], entry["col"], pair_logs))
            pair_logs = []
    outside = next(iter(by_key.values()), None)
    if outside is not None:
        raise ReportIntegrityError(f"{_where(outside)} is outside the round-robin schedule")
    if missing:
        raise ReportIntegrityError(f"no log for {'; '.join(missing)}")

    standings = tuple(
        AgentStanding(
            agent=aid,
            matches=s["matches"],
            wins=s["wins"],
            draws=s["draws"],
            losses=s["losses"],
            win_rate=(s["wins"] + 0.5 * s["draws"]) / s["matches"] if s["matches"] else 0.0,
            winner_health_sum=s["hsum"],
        )
        for aid, s in stats.items()
    )
    return TournamentResult(
        agents=tuple(ids),
        cells=tuple(cells),
        standings=standings,
        button_counts=counts,
    )


def reconstruct_agent_order(logs: Sequence[MatchLog]) -> List[str]:
    """Recover the original agent ordering from archived logs.

    Pair 0 repeat 0 is never flipped and each later pair of the first row
    introduces one new agent, so first appearance over logs in schedule
    order is the schedule's agent order; ``aggregate`` refuses any log set
    for which it is not.
    """
    order: List[str] = []
    for log in sorted(logs, key=lambda l: (l.pair_index, l.repeat_index)):
        for aid in (log.p1_id, log.p2_id):
            if aid not in order:
                order.append(aid)
    return order


def result_from_logs(logs: Sequence[MatchLog]) -> TournamentResult:
    """Rebuild the aggregate result from logs alone (no re-simulation)."""
    return aggregate(reconstruct_agent_order(logs), logs)


def run_round_robin(
    agents: Sequence[AgentSpec],
    config: MatchConfig,
    matches_per_pair: int = 1,
    parallel: int = 1,
) -> Tuple[TournamentResult, List[MatchLog]]:
    agents = [a.validated() for a in agents]
    if len(agents) < 2:
        raise AgentSetupError("a tournament needs at least 2 agents")
    require_unique_ids(agents)
    if matches_per_pair < 1:
        raise AgentSetupError("matches_per_pair must be >= 1")
    by_id = {a.id: a for a in agents}
    schedule = pair_schedule([a.id for a in agents], matches_per_pair)

    def play(entry: dict) -> MatchLog:
        return run_match(
            by_id[entry["p1"]],
            by_id[entry["p2"]],
            with_seed(config, match_seed(config.seed, entry["pair_index"], entry["repeat_index"])),
            pair_index=entry["pair_index"],
            repeat_index=entry["repeat_index"],
        )

    def waits_on_io(entry: dict) -> bool:
        return AgentKind.REMOTE in (by_id[entry["p1"]].kind, by_id[entry["p2"]].kind)

    if parallel > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            pending = [pool.submit(play, e) if waits_on_io(e) else None for e in schedule]
            played = [play(e) if f is None else None for e, f in zip(schedule, pending)]
            logs = [log if f is None else f.result() for f, log in zip(pending, played)]
    else:
        logs = [play(entry) for entry in schedule]

    return aggregate([a.id for a in agents], logs), logs


# -- serialization ----------------------------------------------------


def result_to_dict(result: TournamentResult) -> dict:
    return {
        "schema": "lmfa-tournament/1",
        "agents": list(result.agents),
        "matrix": [
            {
                "row": c.row,
                "col": c.col,
                "row_wins": c.row_wins,
                "col_wins": c.col_wins,
                "draws": c.draws,
                "winner": c.winner,
                "winner_health_fraction": (
                    None
                    if c.winner_health_fraction is None
                    else f"{c.winner_health_fraction:.3f}"
                ),
            }
            for c in result.cells
        ],
        "standings": [
            {
                "agent": s.agent,
                "matches": s.matches,
                "wins": s.wins,
                "draws": s.draws,
                "losses": s.losses,
                "win_rate": s.win_rate,
                "winner_health_sum": s.winner_health_sum,
            }
            for s in result.standings
        ],
        "button_counts": result.button_counts,
    }


def write_tournament(result: TournamentResult, path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(result_to_dict(result), sort_keys=True, separators=(",", ":")) + "\n"
    )
