"""Round-robin scheduling and tournament aggregation.

Every unordered pair plays once (or ``matches_per_pair`` times); the side
assignment alternates deterministically with the pair index and repeat
index so neither agent systematically starts as P1. Per-match seeds are
``config.seed + pair_index * 1000 + repeat_index``. Aggregation walks the
schedule once, whatever order the logs come in, so parallel execution
cannot change any report byte, and it refuses logs that are not exactly
one schedule. It folds the logs straight into the ``tournament.json``
document (``lmfa-tournament/1``), the one tournament record: every report
is derived from that document and nothing else.

With ``parallel > 1``, only matches with a remote agent go to a thread
pool, because only they wait on I/O; a scripted match is pure computation
that threads would only slow down, so those run on the calling thread
while the pool works.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from lmfa.agents.specs import AgentKind, AgentSetupError, AgentSpec, require_unique_ids
from lmfa.config import MatchConfig, config_to_dict, with_seed
from lmfa.engine.state import HEALTH_MAX, Player
from lmfa.tourney.match import BUTTON_NAMES, MatchLog, run_match


class ReportIntegrityError(ValueError):
    """Logs that are not one round-robin tournament; nothing is reported."""


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
    return winner is not None and log.agent_id(winner) == agent_id


def _aggregate_cell(row: str, col: str, logs: Sequence[MatchLog]) -> dict:
    """The matrix cell of one unordered pair, row earlier in agent order."""
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
    # multi-match cells keep the integer mean of the winner's healths,
    # written to 3 decimals as one match's outcome is
    fraction = None
    if winner != "draw" and healths:
        fraction = f"{sum(healths) // len(healths) / HEALTH_MAX:.3f}"
    return dict(row=row, col=col, row_wins=row_wins, col_wins=col_wins, draws=draws,
                winner=winner, winner_health_fraction=fraction)


_MISSING_SHOWN = 5  # schedule entries a "no log for" message names


def _where(log: MatchLog) -> str:
    return f"log {log.p1_id} vs {log.p2_id} (pair {log.pair_index}, repeat {log.repeat_index})"


def aggregate(ids: Sequence[str], logs: Sequence[MatchLog]) -> dict:
    """Fold the logs of one round-robin over ``ids`` in schedule order into
    the tournament document; standings stay in ``ids`` order, not ranked.

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
    # k repeats of every pair take at least k logs; refusing here keeps a
    # forged repeat index from sizing the schedule
    if logs and repeats > len(logs):
        raise ReportIntegrityError(
            f"repeat index {repeats - 1} needs {repeats} logs per pair, more than"
            f" the {len(logs)} logs given"
        )
    # winner_health_sum, the ranking tiebreak, is the health retained in wins
    standings = {
        aid: dict(agent=aid, matches=0, wins=0, draws=0, losses=0, winner_health_sum=0)
        for aid in ids
    }
    counts = {aid: dict.fromkeys(BUTTON_NAMES.values(), 0) for aid in ids}
    cells: List[dict] = []
    pair_logs: List[MatchLog] = []
    missing = []
    base_seed: Optional[int] = None
    for entry in pair_schedule(ids, repeats):
        key = (entry["pair_index"], entry["repeat_index"])
        log = by_key.pop(key, None)
        if log is None:
            missing.append(entry)
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
                s = standings[aid]
                s["matches"] += 1
                if log.result.winner is None:
                    s["draws"] += 1
                elif _wins_for(log, aid):
                    s["wins"] += 1
                    s["winner_health_sum"] += log.result.winner_health or 0
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
        named = [
            f"pair {e['pair_index']} {(e['row'], e['col'])} repeat {e['repeat_index']}"
            for e in missing[:_MISSING_SHOWN]
        ]
        if len(missing) > _MISSING_SHOWN:
            named.append(f"and {len(missing) - _MISSING_SHOWN} more")
        raise ReportIntegrityError(f"no log for {'; '.join(named)}")

    for s in standings.values():
        s["win_rate"] = (s["wins"] + 0.5 * s["draws"]) / s["matches"] if s["matches"] else 0.0
    return {
        "schema": "lmfa-tournament/1",
        "agents": ids,
        "matrix": cells,
        "standings": list(standings.values()),
        "button_counts": counts,
    }


def result_from_logs(logs: Sequence[MatchLog]) -> dict:
    """The tournament document of archived logs (no re-simulation).

    Pair 0 repeat 0 is never flipped and each later pair of the first row
    introduces one new agent, so first appearance over logs in schedule
    order is the schedule's agent order; ``aggregate`` refuses any log set
    for which it is not.
    """
    ordered = sorted(logs, key=lambda l: (l.pair_index, l.repeat_index))
    ids = dict.fromkeys(aid for log in ordered for aid in (log.p1_id, log.p2_id))
    return aggregate(list(ids), logs)


def run_round_robin(
    agents: Sequence[AgentSpec],
    config: MatchConfig,
    matches_per_pair: int = 1,
    parallel: int = 1,
) -> List[MatchLog]:
    """Play every match of ``pair_schedule`` over ``agents``; the logs come
    in schedule order."""
    if len(agents) < 2:
        raise AgentSetupError("a tournament needs at least 2 agents")
    require_unique_ids(agents)
    if matches_per_pair < 1:
        raise AgentSetupError("matches_per_pair must be >= 1")
    if parallel < 1:
        raise AgentSetupError("parallel must be >= 1")
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
    return logs
