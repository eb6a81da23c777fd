"""Round-robin scheduling and tournament aggregation.

Every unordered pair plays once (or ``matches_per_pair`` times); the side
assignment alternates deterministically with the pair index and repeat
index so neither agent systematically starts as P1. Per-match seeds are
``base_seed + pair_index * 1000 + repeat_index``. Aggregation folds in
pair-index order regardless of completion order, so parallel execution
cannot change any report byte.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from lmfa.agents.specs import AgentSetupError, AgentSpec, require_unique_ids
from lmfa.config import MatchConfig, with_seed
from lmfa.engine.state import HEALTH_MAX, Player, Winner
from lmfa.tourney.match import LogRecord, MatchLog, empty_button_counts, run_match


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

    @property
    def winner_health_fraction(self) -> Optional[float]:
        if self.winner_health is None:
            return None
        return round(self.winner_health / HEALTH_MAX, 3)


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


def _wins_for(log: LogRecord, agent_id: str) -> bool:
    winner = log.result.winner
    if winner is Winner.DRAW:
        return False
    return log.agent_id(Player.P1 if winner is Winner.P1 else Player.P2) == agent_id


def _aggregate_cell(row: str, col: str, logs: Sequence[LogRecord]) -> PairCell:
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


def aggregate(ids: Sequence[str], logs: Sequence[LogRecord]) -> TournamentResult:
    ids = list(ids)
    by_pair: Dict[int, List[LogRecord]] = {}
    for log in logs:
        by_pair.setdefault(log.pair_index, []).append(log)

    cells = []
    pair_index = 0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            pair_logs = sorted(
                by_pair.get(pair_index, []), key=lambda l: l.repeat_index
            )
            cells.append(_aggregate_cell(ids[i], ids[j], pair_logs))
            pair_index += 1

    stats = {aid: {"wins": 0, "draws": 0, "losses": 0, "matches": 0, "hsum": 0} for aid in ids}
    for log in logs:
        for player in (Player.P1, Player.P2):
            aid = log.agent_id(player)
            stats[aid]["matches"] += 1
            if log.result.winner is Winner.DRAW:
                stats[aid]["draws"] += 1
            elif _wins_for(log, aid):
                stats[aid]["wins"] += 1
                stats[aid]["hsum"] += log.result.winner_health or 0
            else:
                stats[aid]["losses"] += 1

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
        for aid, s in ((aid, stats[aid]) for aid in ids)
    )

    counts = {aid: dict(next(iter(empty_button_counts().values()))) for aid in ids}
    for log in logs:
        for player in (Player.P1, Player.P2):
            aid = log.agent_id(player)
            for button, n in log.button_counts[player.value].items():
                counts[aid][button] += n

    return TournamentResult(
        agents=tuple(ids),
        cells=tuple(cells),
        standings=standings,
        button_counts=counts,
    )


def reconstruct_agent_order(logs: Sequence[LogRecord]) -> List[str]:
    """Recover the original agent ordering from archived logs.

    The scheduler flips sides by (pair_index + repeat_index), so each log
    reveals its pair's (row, col) identity; walking pairs in index order
    reproduces first-appearance order.
    """
    order: List[str] = []
    for log in sorted(logs, key=lambda l: (l.pair_index, l.repeat_index)):
        flipped = (log.pair_index + log.repeat_index) % 2 == 1
        row, col = (log.p2_id, log.p1_id) if flipped else (log.p1_id, log.p2_id)
        for aid in (row, col):
            if aid not in order:
                order.append(aid)
    return order


def result_from_logs(logs: Sequence[LogRecord]) -> TournamentResult:
    """Rebuild the aggregate result from logs alone (no re-simulation)."""
    return aggregate(reconstruct_agent_order(logs), logs)


def run_round_robin(
    agents: Sequence[AgentSpec],
    config: MatchConfig,
    base_seed: Optional[int] = None,
    matches_per_pair: int = 1,
    parallel: int = 1,
) -> Tuple[TournamentResult, List[MatchLog]]:
    agents = [a.validated() for a in agents]
    if len(agents) < 2:
        raise AgentSetupError("a tournament needs at least 2 agents")
    require_unique_ids(agents)
    if matches_per_pair < 1:
        raise AgentSetupError("matches_per_pair must be >= 1")
    seed0 = config.seed if base_seed is None else base_seed
    by_id = {a.id: a for a in agents}
    schedule = pair_schedule([a.id for a in agents], matches_per_pair)

    def play(entry: dict) -> MatchLog:
        seed = seed0 + entry["pair_index"] * 1000 + entry["repeat_index"]
        return run_match(
            by_id[entry["p1"]],
            by_id[entry["p2"]],
            with_seed(config, seed),
            pair_index=entry["pair_index"],
            repeat_index=entry["repeat_index"],
        )

    if parallel > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            logs = list(pool.map(play, schedule))
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
