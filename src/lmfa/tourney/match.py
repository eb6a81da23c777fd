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
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from lmfa.actions import resolve
from lmfa.agents.gateway import act
from lmfa.agents.prompt import PROMPT_VERSION, build_system_prompt
from lmfa.agents.specs import AgentKind, AgentSpec
from lmfa.config import ConfigError, MatchConfig, config_from_dict, config_to_dict
from lmfa.engine.buttons import BIT, EMPTY_CHORD, ENCODE, Button, encode_chord
from lmfa.engine.core import new_match, step
from lmfa.engine.state import (
    EndReason,
    GameState,
    Player,
    RoundOutcome,
    Winner,
    trace_line,
)
from lmfa.observe.describe import ACTION_SLOTS, describe_state, encode_frame_base64
from lmfa.observe.raster import annotate, render
from lmfa.observe.window import (
    FrameHistory,
    WINDOW_SIZE,
    WINDOW_SPACING,
    sample_window_encoded,
)

LOG_SCHEMA = "lmfa-log/1"

# Report column names, in Button order.
BUTTON_NAMES = {
    Button.UP: "Up",
    Button.DOWN: "Down",
    Button.LEFT: "Left",
    Button.RIGHT: "Right",
    Button.A: "A",
    Button.B: "B",
    Button.C: "C",
    Button.START: "Start",
}


@dataclass(frozen=True)
class MatchLog:
    """One match log: ``run_match`` returns it, ``write_log`` stores it and
    ``read_log`` returns it again.

    Each decision entry is the dict the log stores: ``player``,
    ``decision_index``, ``agent_id``, ``frame``, ``raw_reply``, ``command``
    (normalized), ``latency_ms``, ``failure`` (a ``FailureKind`` value or
    None) and ``plan`` (the encoded chord per frame, from ``resolve``).
    """

    config: MatchConfig
    p1_id: str
    p2_id: str
    pair_index: int
    repeat_index: int
    prompt_version: str
    decisions: Sequence[dict]
    input_trace: Sequence[Sequence[str]]  # encoded chords per frame
    state_digests: Sequence[str]  # chain values d_0 .. d_F
    result: RoundOutcome
    button_counts: Dict[str, Dict[str, int]]

    def agent_id(self, player: Player) -> str:
        return self.p1_id if player is Player.P1 else self.p2_id


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


def count_buttons(hist1: List[int], hist2: List[int]) -> Dict[str, Dict[str, int]]:
    """Held-frame count per side and button from each side's frame count
    per chord mask."""
    counts = {}
    for side, histogram in (("P1", hist1), ("P2", hist2)):
        held = [(mask, n) for mask, n in enumerate(histogram) if n]
        counts[side] = per_button = {}
        for b, name in BUTTON_NAMES.items():
            bit = BIT[b]  # an enum-keyed lookup, kept out of the sum
            per_button[name] = sum(n for mask, n in held if mask & bit)
    return counts


def run_match(
    p1: AgentSpec,
    p2: AgentSpec,
    config: MatchConfig,
    pair_index: int = 0,
    repeat_index: int = 0,
) -> MatchLog:
    """Run one full match and return its replayable log."""
    p1 = p1.validated()
    p2 = p2.validated()
    config = config.validated()

    state = new_match(config)
    prompt = build_system_prompt(config)
    interval = config.decision_interval_frames

    specs = {Player.P1: p1, Player.P2: p2}
    needs_frames = any(s.kind is AgentKind.REMOTE for s in specs.values())
    # every-4th-frame rendering suffices when ticks land on multiples of 4
    render_every = 1 if interval % WINDOW_SPACING else WINDOW_SPACING
    # a window reaches WINDOW_SPACING*(WINDOW_SIZE-1) frames back; older
    # renders are never sampled again
    history = (
        FrameHistory(WINDOW_SPACING * (WINDOW_SIZE - 1) // render_every + 1)
        if needs_frames
        else None
    )
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
    hist1, hist2 = [0] * 256, [0] * 256  # frames per chord mask
    digests = [initial_digest(config, state)]
    tick = 0

    helper_pool = ThreadPoolExecutor(1, "lmfa-p2") if side_by_side else nullcontext()
    with helper_pool as helper:  # joins the helper thread even if the loop raises
        while state.round_over is None:
            frame = state.frame
            if history is not None and frame % render_every == 0:
                image = annotate(render(state), state)
                history.append(frame, encode_frame_base64(image))

            if frame % interval == 0:
                frames = (
                    tuple(sample_window_encoded(history, frame))
                    if history is not None
                    else ()
                )
                # both observations come from the same pre-decision state, so
                # neither decision can leak information to the other
                obs1, obs2 = (
                    describe_state(
                        state,
                        player,
                        frames=frames if specs[player].kind is AgentKind.REMOTE else (),
                        decision_index=tick,
                        last_actions=last_actions,
                    )
                    for player in (Player.P1, Player.P2)
                )
                if helper is not None:
                    # P1 is queried on this thread while P2's query runs on the helper
                    pending = helper.submit(act, p2, obs2, prompt)
                    chosen = (act(p1, obs1, prompt), pending.result())
                else:
                    chosen = (act(p1, obs1, prompt), act(p2, obs2, prompt))
                feeds = []
                for player, decision in zip((Player.P1, Player.P2), chosen):
                    plan = resolve(decision.command, state.fighter(player).facing)
                    decisions.append(
                        {
                            "player": player.value,
                            "decision_index": tick,
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
                tick += 1

            m1, m2 = next(feed1, EMPTY_CHORD), next(feed2, EMPTY_CHORD)
            enc1, enc2 = ENCODE[m1], ENCODE[m2]
            input_trace.append([enc1, enc2])
            hist1[m1] += 1
            hist2[m2] += 1

            state = step(state, m1, m2)
            digests.append(chain_digest(digests[-1], enc1, enc2, trace_line(state)))

    return MatchLog(
        config=config,
        p1_id=p1.id,
        p2_id=p2.id,
        pair_index=pair_index,
        repeat_index=repeat_index,
        prompt_version=PROMPT_VERSION,
        decisions=decisions,
        input_trace=input_trace,
        state_digests=digests,
        result=state.round_over,
        button_counts=count_buttons(hist1, hist2),
    )


# -- serialization ----------------------------------------------------


def outcome_to_dict(result: RoundOutcome) -> dict:
    fraction = result.winner_health_fraction
    return {
        "winner": result.winner.value,
        "winner_health": result.winner_health,
        "winner_health_fraction": None if fraction is None else f"{fraction:.3f}",
        "end_reason": result.end_reason.value,
        "frames_elapsed": result.frames_elapsed,
    }


def outcome_from_dict(data: dict) -> RoundOutcome:
    return RoundOutcome(
        winner=Winner(data["winner"]),
        winner_health=data["winner_health"],
        end_reason=EndReason(data["end_reason"]),
        frames_elapsed=data["frames_elapsed"],
    )


def log_to_dict(log: MatchLog) -> dict:
    """The log document; its sequences are the log's own, not copies
    (``json.dumps`` writes a tuple as a list)."""
    return {
        "schema": LOG_SCHEMA,
        "config": config_to_dict(log.config),
        "p1": log.p1_id,
        "p2": log.p2_id,
        "seed": log.config.seed,
        "pair_index": log.pair_index,
        "repeat_index": log.repeat_index,
        "prompt_version": log.prompt_version,
        "result": outcome_to_dict(log.result),
        "decisions": log.decisions,
        "input_trace": log.input_trace,
        "state_digests": log.state_digests,
        "button_counts": log.button_counts,
    }


class UnsupportedSchemaError(ValueError):
    pass


class MalformedLogError(ValueError):
    """A log of the supported schema lacks a field its consumers read, or
    holds one of the wrong type."""


_LOG_KEYS = {
    "config": dict,
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
    "button_counts": dict,
}
_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}
_WINNER_VALUES = tuple(w.value for w in Winner)
_END_REASON_VALUES = tuple(r.value for r in EndReason)
_BUTTON_SET = frozenset(BUTTON_NAMES.values())


def _is_int(value) -> bool:
    return type(value) is int  # rejects bool


def _require_keys(data: dict, keys, prefix: str = "") -> None:
    missing = [prefix + key for key in keys if key not in data]
    if missing:
        raise MalformedLogError(f"log lacks field(s): {', '.join(missing)}")


def _require(ok: bool, field: str, what: str) -> None:
    if not ok:
        raise MalformedLogError(f"log field {field!r} is not {what}")


def log_from_dict(data: dict) -> MatchLog:
    """Check the schema version and the type of every field that replay and
    reports read, and return the log. For a document that ``write_log``
    wrote, ``log_to_dict`` of the result gives it back, so rewriting a log
    reproduces its bytes.

    The seed is stored once more at the top level, and must equal
    ``config.seed``. The agent ids are outside the digest chain, so every
    decision must name its side's agent: a log whose ``p1`` and ``p2`` were
    swapped is malformed, not a replayable win for the other side. The
    decision entries are otherwise returned as written.

    The rows of ``input_trace`` stay unchecked: replay reports a bad row as
    a divergence at the frame it would have produced.
    """
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != LOG_SCHEMA:
        raise UnsupportedSchemaError(
            f"unsupported log schema {schema!r} (want {LOG_SCHEMA})"
        )
    _require_keys(data, _LOG_KEYS)
    for key, kind in _LOG_KEYS.items():
        value = data[key]
        _require(
            _is_int(value) if kind is int else isinstance(value, kind),
            key,
            _KIND_NAMES[kind],
        )
    result = data["result"]
    _require_keys(
        result, ("winner", "winner_health", "end_reason", "frames_elapsed"), "result."
    )
    _require(
        result["winner"] in _WINNER_VALUES,
        "result.winner",
        f"one of {', '.join(_WINNER_VALUES)}",
    )
    health = result["winner_health"]
    _require(
        health is None or _is_int(health), "result.winner_health", "an integer or null"
    )
    _require(
        result["end_reason"] in _END_REASON_VALUES,
        "result.end_reason",
        f"one of {', '.join(_END_REASON_VALUES)}",
    )
    _require(_is_int(result["frames_elapsed"]), "result.frames_elapsed", "an integer")
    counts = data["button_counts"]
    _require_keys(counts, ("P1", "P2"), "button_counts.")
    for side in ("P1", "P2"):
        per_button = counts[side]
        _require(
            isinstance(per_button, dict)
            and per_button.keys() <= _BUTTON_SET
            and all(_is_int(n) for n in per_button.values()),
            f"button_counts.{side}",
            "an integer count per button name",
        )
    sides = (("P1", data["p1"]), ("P2", data["p2"]))
    for i, entry in enumerate(data["decisions"]):
        if isinstance(entry, dict) and (entry.get("player"), entry.get("agent_id")) in sides:
            continue
        field = f"decisions[{i}]"
        _require(isinstance(entry, dict), field, "an object")
        player = entry.get("player")
        _require(player in ("P1", "P2"), f"{field}.player", "P1 or P2")
        agent_id = dict(sides)[player]
        _require(
            entry.get("agent_id") == agent_id,
            f"{field}.agent_id",
            f"{agent_id!r}, the log's {player.lower()}",
        )
    try:
        config = config_from_dict(data["config"])
    except ConfigError as exc:
        raise MalformedLogError(f"log field 'config': {exc}") from None
    _require(data["seed"] == config.seed, "seed", f"config.seed, {config.seed}")
    return MatchLog(
        config=config,
        p1_id=data["p1"],
        p2_id=data["p2"],
        pair_index=data["pair_index"],
        repeat_index=data["repeat_index"],
        prompt_version=data["prompt_version"],
        decisions=data["decisions"],
        input_trace=data["input_trace"],
        state_digests=data["state_digests"],
        result=outcome_from_dict(result),
        button_counts=counts,
    )


def write_log(log: MatchLog, path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(log_to_dict(log), sort_keys=True, separators=(",", ":")) + "\n"
    )


def read_log(path: Union[str, Path]) -> MatchLog:
    return log_from_dict(json.loads(Path(path).read_text()))


def log_filename(pair_index: int, repeat_index: int, p1_id: str, p2_id: str) -> str:
    return f"match_{pair_index}_{repeat_index}_{p1_id}_vs_{p2_id}.json"
