"""Single-match runner: observe -> query -> parse -> inject -> step.

Decision ticks pause the world every ``decision_interval_frames``; both
agents observe the same pre-decision state, then their compiled plans
(one chord mask per frame) feed the engine frame by frame until the next
tick (a new plan discards whatever remained of the old one). The log
captures enough to replay the match bit-exactly: config, seed, per-frame
inputs, and a digest chain over inputs and serialized states.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from lmfa.actions import resolve
from lmfa.agents.gateway import act
from lmfa.agents.remote import keep_alive
from lmfa.agents.specs import AGENT_ID, AgentKind, AgentSpec, FailureKind
from lmfa.config import (
    CONFIG_KINDS,
    ConfigError,
    MatchConfig,
    check_fields,
    config_from_dict,
    config_to_dict,
    load_document,
    write_document,
)
from lmfa.engine.buttons import EMPTY_CHORD, ENCODE, Button, encode_chord
from lmfa.engine.core import new_match, step
from lmfa.engine.state import (
    EndReason,
    GameState,
    Player,
    RoundOutcome,
    trace_line,
)
from lmfa.observe.describe import (
    ACTION_SLOTS,
    PROMPT_VERSION,
    WINDOW_SPAN,
    WireText,
    build_system_prompt,
    describe_state,
    encode_frame_base64,
    sample_window_encoded,
    window_indices,
)
from lmfa.observe.raster import annotate, render

LOG_SCHEMA = "lmfa-log/1"

# Report column names, in Button order.
BUTTON_NAMES = {b: b.name.title() for b in Button}


@dataclass(frozen=True)
class MatchLog:
    """One match log: ``run_match`` returns it, ``write_log`` stores it and
    ``read_log`` returns it again. Each field is stored under its own name,
    and ``_LOG_KINDS`` checks it. Each decision entry is the dict the log
    stores, with the fields of ``_DECISION_KINDS``: ``command`` is normalized,
    and ``plan`` holds the encoded chord per frame, from ``resolve``."""

    config: MatchConfig
    p1: str
    p2: str
    pair_index: int
    repeat_index: int
    prompt_version: str
    decisions: Sequence[dict]
    input_trace: Sequence[Sequence[str]]  # encoded chords per frame
    state_digests: Sequence[str]  # chain values d_0 .. d_F
    result: RoundOutcome
    button_counts: Dict[str, Dict[str, int]]

    def agent_id(self, player: Player) -> str:
        return self.p1 if player is Player.P1 else self.p2


def initial_digest(config: MatchConfig, initial: GameState) -> str:
    header = "|".join(
        (
            LOG_SCHEMA,
            json.dumps(config_to_dict(config), sort_keys=True),
            str(config.seed),
            trace_line(initial),
        )
    )
    return hashlib.sha256(header.encode()).hexdigest()


def chain_digest(prev: str, enc1: str, enc2: str, line: str) -> str:
    return hashlib.sha256(f"{prev}|{enc1}|{enc2}|{line}".encode()).hexdigest()


def count_buttons(input_trace: Sequence[Sequence[str]]) -> Dict[str, Dict[str, int]]:
    """Held-frame count per side and button, folded from an input trace of
    canonical chord codes: a button counts on every frame whose code holds
    its letter."""
    counts = {}
    for column, side in enumerate(Player):
        frames = Counter(row[column] for row in input_trace)  # frames per code
        counts[side.value] = {
            name: sum(n for code, n in frames.items() if b.value in code)
            for b, name in BUTTON_NAMES.items()
        }
    return counts


def run_match(
    p1: AgentSpec,
    p2: AgentSpec,
    config: MatchConfig,
    pair_index: int = 0,
    repeat_index: int = 0,
) -> MatchLog:
    """Run one full match and return its replayable log."""
    state = new_match(config)
    prompt = build_system_prompt(config)
    interval = config.decision_interval_frames

    specs = {Player.P1: p1, Player.P2: p2}
    # only frames that some decision tick's window samples are rendered, if any side is remote
    wanted = (
        {f for t in range(0, config.match_length_frames, interval) for f in window_indices(t)}
        if any(s.kind is AgentKind.REMOTE for s in specs.values())
        else set()
    )
    rendered: Dict[int, WireText] = {}
    # two remote agents on different endpoints are queried side by side;
    # agents sharing an endpoint stay serial, so it sees P1's request first
    side_by_side = (
        p1.kind is AgentKind.REMOTE
        and p2.kind is AgentKind.REMOTE
        and p1.endpoint != p2.endpoint
    )

    feed1 = feed2 = iter(())  # each plan's remaining masks
    decisions: List[dict] = []
    input_trace: List[List[str]] = []
    # P1's and P2's last ACTION_SLOTS commands, oldest first
    last_actions: Tuple[Tuple[str, ...], Tuple[str, ...]] = ((), ())
    digests = [initial_digest(config, state)]

    # each remote side keeps one connection to its endpoint for the whole
    # match. The helper thread starts only for a side-by-side query, and is
    # joined, even if the loop raises, before keep_alive closes them
    with keep_alive(), ThreadPoolExecutor(1, "lmfa-p2") as helper:
        while state.round_over is None:
            frame = state.frame
            if frame in wanted:
                rendered[frame] = encode_frame_base64(annotate(render(state), state))

            if frame % interval == 0:
                frames = ()
                if wanted:
                    frames = tuple(sample_window_encoded(rendered, frame))
                    # no later window reaches back before the next one's start
                    start = frame + interval - WINDOW_SPAN
                    rendered = {f: e for f, e in rendered.items() if f >= start}
                # both observations come from the same pre-decision state, so
                # neither decision can leak information to the other
                obs1, obs2 = (
                    describe_state(
                        state,
                        player,
                        frames=frames if specs[player].kind is AgentKind.REMOTE else (),
                        decision_index=frame // interval,
                        last_actions=last_actions,
                    )
                    for player in (Player.P1, Player.P2)
                )
                if side_by_side:
                    # P1 is queried on this thread while P2's query runs on the
                    # helper, in a copy of this context, which holds keep_alive's pool
                    pending = helper.submit(copy_context().run, act, p2, obs2, prompt)
                    chosen = (act(p1, obs1, prompt), pending.result())
                else:
                    chosen = (act(p1, obs1, prompt), act(p2, obs2, prompt))
                feeds = []
                for player, decision in zip((Player.P1, Player.P2), chosen):
                    plan = resolve(decision.command, state.fighter(player).facing)
                    decisions.append(
                        {
                            "player": player.value,
                            "decision_index": frame // interval,
                            "agent_id": specs[player].id,
                            "frame": frame,
                            "raw_reply": decision.raw_reply,
                            "command": decision.command.normalized,
                            "latency_ms": decision.latency_ms,
                            "failure": decision.failure.value if decision.failure else None,
                            "plan": [encode_chord(m) for m in plan],
                        }
                    )
                    feeds.append(iter(plan))
                feed1, feed2 = feeds
                last_actions = tuple(
                    (mine + (decision.command.normalized,))[-ACTION_SLOTS:]
                    for mine, decision in zip(last_actions, chosen)
                )

            m1, m2 = next(feed1, EMPTY_CHORD), next(feed2, EMPTY_CHORD)
            enc1, enc2 = ENCODE[m1], ENCODE[m2]
            input_trace.append([enc1, enc2])

            state = step(state, m1, m2)
            digests.append(chain_digest(digests[-1], enc1, enc2, trace_line(state)))

    return MatchLog(
        config=config,
        p1=p1.id,
        p2=p2.id,
        pair_index=pair_index,
        repeat_index=repeat_index,
        prompt_version=PROMPT_VERSION,
        decisions=decisions,
        input_trace=input_trace,
        state_digests=digests,
        result=state.round_over,
        button_counts=count_buttons(input_trace),
    )


# -- serialization ----------------------------------------------------


DRAW = "Draw"  # a drawn round's winner, as the log spells it


def outcome_to_dict(result: RoundOutcome) -> dict:
    fraction = result.winner_health_fraction
    return {
        "winner": DRAW if result.winner is None else result.winner.value,
        "winner_health": result.winner_health,
        "winner_health_fraction": None if fraction is None else f"{fraction:.3f}",
        "end_reason": result.end_reason.value,
        "frames_elapsed": result.frames_elapsed,
    }


def outcome_from_dict(data: dict) -> RoundOutcome:
    return RoundOutcome(
        winner=None if data["winner"] == DRAW else Player(data["winner"]),
        winner_health=data["winner_health"],
        end_reason=EndReason(data["end_reason"]),
        frames_elapsed=data["frames_elapsed"],
    )


def log_to_dict(log: MatchLog) -> dict:
    """The log document: the record's fields, with ``config`` and ``result``
    as dicts, plus ``schema`` and the seed once more. Its sequences are the
    log's own, not copies (``json.dumps`` writes a tuple as a list)."""
    doc = {f.name: getattr(log, f.name) for f in fields(log)}
    doc.update(
        schema=LOG_SCHEMA,
        seed=log.config.seed,
        config=config_to_dict(log.config),
        result=outcome_to_dict(log.result),
    )
    return doc


class MalformedLogError(ValueError):
    """A log is not as ``write_log`` writes it: its schema is not
    ``LOG_SCHEMA``, or a field is missing, unknown, of the wrong kind, or at
    odds with another."""


_COUNT_KINDS = {name: int for name in BUTTON_NAMES.values()}
_LOG_KINDS = {
    "schema": str,  # its value is checked first, with its own message
    "config": CONFIG_KINDS,
    "p1": str,
    "p2": str,
    "seed": int,
    "pair_index": int,
    "repeat_index": int,
    "prompt_version": str,
    "result": dict,
    "decisions": list,
    "input_trace": list,
    "state_digests": list,
    "button_counts": {p.value: _COUNT_KINDS for p in Player},
}
# a won round; a drawn one is checked against _DRAW_KINDS
_RESULT_KINDS = {
    "winner": (*(p.value for p in Player), DRAW),
    "winner_health": int,
    "winner_health_fraction": str,
    "end_reason": tuple(r.value for r in EndReason),
    "frames_elapsed": int,
}
_DRAW_KINDS = {**_RESULT_KINDS, "winner_health": (None,), "winner_health_fraction": (None,)}
# P1's and P2's entries alternate, each naming its own side's agent
_DECISION_KINDS = {
    "player": tuple(p.value for p in Player),
    "decision_index": int,
    "agent_id": str,
    "frame": int,
    "raw_reply": str,
    "command": str,
    "latency_ms": int,
    "failure": (None, *(f.value for f in FailureKind)),
    "plan": list,
}


def log_from_dict(data: dict) -> MatchLog:
    """Check that ``data`` holds what ``write_log`` writes, and return the
    log; ``log_to_dict`` of the result gives ``data`` back, so rewriting a
    log reproduces its bytes.

    The seed is stored once more at the top level, and must equal
    ``config.seed``. ``result`` must read as ``outcome_to_dict`` writes it,
    its ``winner_health_fraction`` included. ``p1`` and ``p2`` must be ids
    that an agents file accepts, since they name report rows and columns.
    The agent ids are outside the digest chain, so every decision must name
    its side's agent, P1's and P2's entries in turn: a log whose ``p1`` and
    ``p2`` were swapped is malformed, not a replayable win for the other side.

    The rows of ``input_trace`` and ``state_digests`` stay unchecked:
    replay reports a bad one as a divergence at its frame.
    """
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != LOG_SCHEMA:
        raise MalformedLogError(
            f"unsupported log schema {schema!r} (want {LOG_SCHEMA})"
        )
    check_fields(data, _LOG_KINDS, MalformedLogError, "")
    try:
        config = config_from_dict(data["config"])
    except ConfigError as exc:
        raise MalformedLogError(f"field 'config': {exc}") from None
    if data["seed"] != config.seed:
        raise MalformedLogError(f"field 'seed' is not config.seed, {config.seed}")
    for side in ("p1", "p2"):
        if not AGENT_ID.fullmatch(data[side]):
            raise MalformedLogError(f"field '{side}' does not match {AGENT_ID.pattern}")

    result = data["result"]
    kinds = _DRAW_KINDS if result.get("winner") == DRAW else _RESULT_KINDS
    check_fields(result, kinds, MalformedLogError, "result.")
    outcome = outcome_from_dict(result)
    written = {key: (value,) for key, value in outcome_to_dict(outcome).items()}
    check_fields(result, written, MalformedLogError, "result.")

    decisions = data["decisions"]
    sides = [
        {**_DECISION_KINDS, "player": (player.value,), "agent_id": (agent_id,)}
        for player, agent_id in ((Player.P1, data["p1"]), (Player.P2, data["p2"]))
    ]
    for i, entry in enumerate(decisions):
        check_fields(entry, sides[i % 2], MalformedLogError, f"decisions[{i}].")

    stored = {f.name: data[f.name] for f in fields(MatchLog)}
    return MatchLog(**dict(stored, config=config, result=outcome))


def write_log(log: MatchLog, path: Union[str, Path]) -> None:
    """Write the log whole or not at all, through ``write_document``."""
    text = json.dumps(
        log_to_dict(log), sort_keys=True, separators=(",", ":"), check_circular=False
    )
    write_document(path, text + "\n")


def read_log(path: Union[str, Path]) -> MatchLog:
    return load_document(path, "log", log_from_dict, MalformedLogError)


def log_filename(pair_index: int, repeat_index: int, p1: str, p2: str) -> str:
    return f"match_{pair_index}_{repeat_index}_{p1}_vs_{p2}.json"
