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
while the pool works. Each log is handed to the caller as soon as the
calling thread is free after its match ends, so a caller can write it and
let its frames go; remote logs come in the order their matches end.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import replace
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from lmfa.agents.specs import AgentKind, AgentSetupError, AgentSpec, require_unique_ids
from lmfa.config import MatchConfig, config_to_dict, with_seed
from lmfa.engine.state import HEALTH_MAX, Player
from lmfa.tourney.match import BUTTON_NAMES, MatchLog, run_match


T = TypeVar("T")


class ReportIntegrityError(ValueError):
    """Logs that are not one round-robin tournament; nothing is reported."""


def pair_schedule(ids: Sequence[str], matches_per_pair: int) -> Iterator[dict]:
    """Flat schedule, made as it is walked: one entry per match, deterministic order."""
    pair_index = 0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            for k in range(matches_per_pair):
                flip = (pair_index + k) % 2 == 1
                yield {
                    "pair_index": pair_index,
                    "repeat_index": k,
                    "row": ids[i],
                    "col": ids[j],
                    "p1": ids[j] if flip else ids[i],
                    "p2": ids[i] if flip else ids[j],
                }
            pair_index += 1


def match_seed(base_seed: int, pair_index: int, repeat_index: int) -> int:
    return base_seed + pair_index * 1000 + repeat_index


def _aggregate_cell(
    row: str, col: str, outcomes: Sequence[Tuple[Optional[str], Optional[int]]]
) -> dict:
    """The matrix cell of one unordered pair, row earlier in agent order,
    from each match's winner id (None on a draw) and winner health."""
    row_wins = sum(winner == row for winner, _ in outcomes)
    col_wins = sum(winner == col for winner, _ in outcomes)
    fraction = None
    if row_wins == col_wins:
        winner = "draw"
    else:
        winner, winner_id = ("row", row) if row_wins > col_wins else ("col", col)
        healths = [health for w, health in outcomes if w == winner_id]
        # multi-match cells keep the integer mean of the winner's healths,
        # written to 3 decimals as one match's outcome is
        fraction = f"{sum(healths) // len(healths) / HEALTH_MAX:.3f}"
    return dict(row=row, col=col, row_wins=row_wins, col_wins=col_wins,
                draws=len(outcomes) - row_wins - col_wins, winner=winner,
                winner_health_fraction=fraction)


_MISSING_SHOWN = 5  # schedule entries a "no log for" message names


def _where(log: MatchLog) -> str:
    return f"log {log.p1_id} vs {log.p2_id} (pair {log.pair_index}, repeat {log.repeat_index})"


def aggregate(ids: Sequence[str], logs: Sequence[MatchLog]) -> dict:
    """Fold the logs of one round-robin over ``ids`` in schedule order into
    the tournament document; standings stay in ``ids`` order, not ranked.

    Raises ReportIntegrityError unless the logs are exactly
    ``pair_schedule(ids, k)``, k being one more than the largest repeat
    index: each log is the entry for its ``(pair_index, repeat_index)``
    with that entry's sides, no entry comes twice, none is missing, every
    log shares one prompt version and one config apart from its seed, and
    every seed is ``base_seed + pair_index * 1000 + repeat_index`` for one
    base seed.
    """
    ids = list(ids)
    pairs = len(ids) * (len(ids) - 1) // 2
    by_key: Dict[Tuple[int, int], MatchLog] = {}
    first = config_to_dict(logs[0].config) if logs else {}
    for log in logs:
        if (log.pair_index, log.repeat_index) in by_key:
            raise ReportIntegrityError(f"{_where(log)} appears twice")
        if not (0 <= log.pair_index < pairs and log.repeat_index >= 0):
            raise ReportIntegrityError(f"{_where(log)} is outside the round-robin schedule")
        differs = [
            k for k, v in config_to_dict(log.config).items() if k != "seed" and v != first[k]
        ]
        if differs:  # seeds differ by design
            raise ReportIntegrityError(
                f"{_where(log)} differs from {_where(logs[0])} in config {differs}"
            )
        if log.prompt_version != logs[0].prompt_version:  # prompts differ: not comparable
            raise ReportIntegrityError(
                f"{_where(log)} has prompt version {log.prompt_version!r},"
                f" but {_where(logs[0])} has {logs[0].prompt_version!r}"
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
    # every log is now a distinct entry of the schedule, so one is missing
    # just when there are fewer logs than entries; only the entries the
    # message names are laid out, so made-up agent ids cannot size it
    absent = pairs * repeats - len(by_key)
    if absent:
        missing = (
            e for e in pair_schedule(ids, repeats)
            if (e["pair_index"], e["repeat_index"]) not in by_key
        )
        named = [
            f"pair {e['pair_index']} {(e['row'], e['col'])} repeat {e['repeat_index']}"
            for e in islice(missing, _MISSING_SHOWN)
        ]
        if absent > _MISSING_SHOWN:
            named.append(f"and {absent - _MISSING_SHOWN} more")
        raise ReportIntegrityError(f"no log for {'; '.join(named)}")
    # winner_health_sum, the ranking tiebreak, is the health retained in wins
    standings = {
        aid: dict(agent=aid, matches=0, wins=0, draws=0, losses=0, winner_health_sum=0)
        for aid in ids
    }
    counts = {aid: dict.fromkeys(BUTTON_NAMES.values(), 0) for aid in ids}
    cells: List[dict] = []
    outcomes: List[Tuple[Optional[str], Optional[int]]] = []
    base_seed = by_key[0, 0].config.seed if by_key else 0  # no logs: no entries
    for entry in pair_schedule(ids, repeats):
        key = (entry["pair_index"], entry["repeat_index"])
        log = by_key[key]
        if (log.p1_id, log.p2_id) != (entry["p1"], entry["p2"]):
            raise ReportIntegrityError(
                f"{_where(log)} should be {entry['p1']} vs {entry['p2']}"
            )
        if log.config.seed != match_seed(base_seed, *key):
            raise ReportIntegrityError(
                f"{_where(log)} has seed {log.config.seed}, not {match_seed(base_seed, *key)}"
                f" (base seed {base_seed})"
            )
        outcome = log.result
        winner = None if outcome.winner is None else log.agent_id(outcome.winner)
        outcomes.append((winner, outcome.winner_health))
        for player in (Player.P1, Player.P2):
            aid = log.agent_id(player)
            s = standings[aid]
            s["matches"] += 1
            if winner is None:
                s["draws"] += 1
            elif winner == aid:
                s["wins"] += 1
                s["winner_health_sum"] += outcome.winner_health
            else:
                s["losses"] += 1
            for button, n in log.button_counts[player.value].items():
                counts[aid][button] += n
        if key[1] == repeats - 1:
            cells.append(_aggregate_cell(entry["row"], entry["col"], outcomes))
            outcomes = []

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


def frames_dropped(log: MatchLog) -> MatchLog:
    """The log without its per-frame data: everything ``aggregate`` reads
    and nothing more, so a tournament's logs can be folded without keeping
    each match's frames alive."""
    return replace(log, decisions=(), input_trace=(), state_digests=())


def run_round_robin(
    agents: Sequence[AgentSpec],
    config: MatchConfig,
    matches_per_pair: int = 1,
    parallel: int = 1,
    on_log: Callable[[MatchLog], T] = lambda log: log,
) -> List[T]:
    """Play every match of ``pair_schedule`` over ``agents`` and hand each
    log to ``on_log`` on the calling thread as soon as it is free after the
    match ends; returns what ``on_log`` returned, in schedule order (by
    default the logs themselves).

    Serially the logs come in schedule order. With ``parallel > 1`` every
    remote match is queued at once and its log is handed over when the
    calling thread is between scripted matches, or once those are done, in
    the order the remote matches end. If a match or ``on_log`` raises,
    queued remote matches are cancelled, the running ones are waited for,
    and each of those that ends with a log is still handed over.
    """
    if len(agents) < 2:
        raise AgentSetupError("a tournament needs at least 2 agents")
    require_unique_ids(agents)
    if matches_per_pair < 1:
        raise AgentSetupError("matches_per_pair must be >= 1")
    if parallel < 1:
        raise AgentSetupError("parallel must be >= 1")
    by_id = {a.id: a for a in agents}
    schedule = list(pair_schedule([a.id for a in agents], matches_per_pair))

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

    if parallel == 1:
        return [on_log(play(entry)) for entry in schedule]
    handed: list = [None] * len(schedule)
    with ThreadPoolExecutor(max_workers=parallel) as pool:
        # remote futures not yet handed over, by schedule position
        pending: Dict[Future, int] = {
            pool.submit(play, e): i for i, e in enumerate(schedule) if waits_on_io(e)
        }

        def hand_over(done: Iterable[Future]) -> None:
            for future in done:
                i = pending.pop(future)
                handed[i] = on_log(future.result())

        try:
            for i, entry in enumerate(schedule):
                if not waits_on_io(entry):
                    handed[i] = on_log(play(entry))
                    hand_over([f for f in pending if f.done()])
            hand_over(as_completed(list(pending)))
        except BaseException:
            pool.shutdown(cancel_futures=True)  # waits for the running matches
            hand_over([f for f in pending if not f.cancelled() and f.exception() is None])
            raise
    return handed
