"""Single-match runner: observe -> query -> parse -> inject -> step.

Decision ticks pause the world every ``decision_interval_frames``; both
agents observe the same pre-decision state, then their compiled plans
feed the engine frame by frame until the next tick (a new plan discards
whatever remained of the old one). The log captures enough to replay the
match bit-exactly: config, seed, per-frame inputs, and a digest chain
over inputs and serialized states.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple, Union

from lmfa.actions import ActionPlan, resolve
from lmfa.agents.gateway import act
from lmfa.agents.prompt import PROMPT_VERSION, build_system_prompt
from lmfa.agents.specs import AgentKind, AgentSpec, Decision
from lmfa.config import MatchConfig, config_to_dict
from lmfa.engine import (
    Button,
    Chord,
    EMPTY_CHORD,
    EndReason,
    GameState,
    Player,
    RoundOutcome,
    Winner,
    decode_chord,
    encode_chord,
    new_match,
    record_action,
    step,
    trace_line,
)
from lmfa.engine.buttons import BIT, ENCODE, MASK_OF
from lmfa.observe.describe import describe_state, encode_frame_base64
from lmfa.observe.raster import annotate, render
from lmfa.observe.window import FrameHistory, WINDOW_SPACING, sample_window_encoded

LOG_SCHEMA = "lmfa-log/1"

BUTTON_ORDER = (
    Button.UP,
    Button.DOWN,
    Button.LEFT,
    Button.RIGHT,
    Button.A,
    Button.B,
    Button.C,
    Button.START,
)
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
class DecisionRecord:
    player: Player
    decision_index: int
    decision: Decision
    plan: ActionPlan


@dataclass(frozen=True)
class MatchLog:
    config: MatchConfig
    p1_id: str
    p2_id: str
    seed: int
    pair_index: int
    repeat_index: int
    prompt_version: str
    decisions: Tuple[DecisionRecord, ...]
    input_trace: Tuple[Tuple[str, str], ...]  # encoded chords per frame
    state_digests: Tuple[str, ...]  # chain values d_0 .. d_F
    result: RoundOutcome
    button_counts: Dict[str, Dict[str, int]]

    def agent_id(self, player: Player) -> str:
        return self.p1_id if player is Player.P1 else self.p2_id


def initial_digest(config: MatchConfig, seed: int, initial: GameState) -> str:
    header = "|".join(
        (
            LOG_SCHEMA,
            json.dumps(config_to_dict(config), sort_keys=True),
            str(seed),
            trace_line(initial),
        )
    )
    return hashlib.sha256(header.encode()).hexdigest()


def chain_digest(prev: str, enc1: str, enc2: str, line: str) -> str:
    return hashlib.sha256(f"{prev}|{enc1}|{enc2}|{line}".encode()).hexdigest()


def empty_button_counts() -> Dict[str, Dict[str, int]]:
    return {
        "P1": {BUTTON_NAMES[b]: 0 for b in BUTTON_ORDER},
        "P2": {BUTTON_NAMES[b]: 0 for b in BUTTON_ORDER},
    }


def _expand_histogram(histogram: List[int]) -> Dict[str, int]:
    """Held-frame count per button from a frame count per chord mask."""
    counts = {}
    for b in BUTTON_ORDER:
        bit = BIT[b]
        counts[BUTTON_NAMES[b]] = sum(n for mask, n in enumerate(histogram) if mask & bit)
    return counts


class _PlanFeed:
    """Streams a plan's per-frame chords; empty after exhaustion."""

    def __init__(self) -> None:
        self.chords: Tuple[Chord, ...] = ()
        self.pos = 0

    def reset(self, plan: ActionPlan) -> None:
        self.chords = plan.frame_chords()
        self.pos = 0

    def next_chord(self) -> Chord:
        if self.pos >= len(self.chords):
            return EMPTY_CHORD
        c = self.chords[self.pos]
        self.pos += 1
        return c


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
    seed = config.seed

    state = new_match(config, seed)
    prompt = build_system_prompt(config)
    interval = config.decision_interval_frames

    specs = {Player.P1: p1, Player.P2: p2}
    needs_frames = any(s.kind is AgentKind.REMOTE for s in specs.values())
    # every-4th-frame rendering suffices when ticks land on multiples of 4
    render_every = 1 if interval % WINDOW_SPACING else WINDOW_SPACING
    history = FrameHistory() if needs_frames else None

    feeds = {Player.P1: _PlanFeed(), Player.P2: _PlanFeed()}
    feed1, feed2 = feeds[Player.P1], feeds[Player.P2]
    decisions: List[DecisionRecord] = []
    input_trace: List[Tuple[str, str]] = []
    hist1, hist2 = [0] * 256, [0] * 256  # frames per chord mask
    digests = [initial_digest(config, seed, state)]
    tick = 0

    while state.round_over is None:
        frame = state.frame
        if history is not None and frame % render_every == 0:
            image = annotate(render(state), state)
            history.append(frame, image, encode_frame_base64(image))

        if frame % interval == 0:
            frames = (
                tuple(sample_window_encoded(history, frame))
                if history is not None
                else ()
            )
            # both observations come from the same pre-decision state, so
            # querying P1 first cannot leak information to P2
            observations = {
                player: describe_state(
                    state,
                    player,
                    frames=frames if specs[player].kind is AgentKind.REMOTE else (),
                    decision_index=tick,
                )
                for player in (Player.P1, Player.P2)
            }
            issued = {}
            for player in (Player.P1, Player.P2):
                decision = act(specs[player], observations[player], prompt)
                plan = resolve(decision.command, state.fighter(player).facing)
                feeds[player].reset(plan)
                decisions.append(DecisionRecord(player, tick, decision, plan))
                issued[player] = decision.command.normalized
            for player, text in issued.items():
                state = record_action(state, player, text)
            tick += 1

        c1 = feed1.next_chord()
        c2 = feed2.next_chord()
        m1, m2 = MASK_OF[c1], MASK_OF[c2]
        enc1, enc2 = ENCODE[m1], ENCODE[m2]
        input_trace.append((enc1, enc2))
        hist1[m1] += 1
        hist2[m2] += 1

        state = step(state, c1, c2)
        digests.append(chain_digest(digests[-1], enc1, enc2, trace_line(state)))

    return MatchLog(
        config=config,
        p1_id=p1.id,
        p2_id=p2.id,
        seed=seed,
        pair_index=pair_index,
        repeat_index=repeat_index,
        prompt_version=PROMPT_VERSION,
        decisions=tuple(decisions),
        input_trace=tuple(input_trace),
        state_digests=tuple(digests),
        result=state.round_over,
        button_counts={
            "P1": _expand_histogram(hist1),
            "P2": _expand_histogram(hist2),
        },
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


def _decision_to_dict(record: DecisionRecord) -> dict:
    d = record.decision
    return {
        "player": record.player.value,
        "decision_index": record.decision_index,
        "agent_id": d.agent_id,
        "frame": d.frame_issued,
        "raw_reply": d.raw_reply,
        "command": d.command.normalized,
        "latency_ms": d.latency_ms,
        "failure": d.failure.value if d.failure else None,
        "plan": [encode_chord(c) for c in record.plan.frame_chords()],
    }


def log_to_dict(log: MatchLog) -> dict:
    return {
        "schema": LOG_SCHEMA,
        "config": config_to_dict(log.config),
        "p1": log.p1_id,
        "p2": log.p2_id,
        "seed": log.seed,
        "pair_index": log.pair_index,
        "repeat_index": log.repeat_index,
        "prompt_version": log.prompt_version,
        "result": outcome_to_dict(log.result),
        "decisions": [_decision_to_dict(r) for r in log.decisions],
        "input_trace": [[a, b] for a, b in log.input_trace],
        "state_digests": list(log.state_digests),
        "button_counts": log.button_counts,
    }


class UnsupportedSchemaError(ValueError):
    pass


class MalformedLogError(ValueError):
    """A log of the supported schema lacks a field its consumers read, or
    holds one of the wrong type."""


_REQUIRED_LOG_KEYS = (
    "config",
    "p1",
    "p2",
    "seed",
    "pair_index",
    "repeat_index",
    "result",
    "input_trace",
    "state_digests",
    "button_counts",
)


def log_from_dict(data: dict) -> dict:
    """Validate the schema version and the top-level fields that replay and
    aggregation read, and return the raw dict for consumers."""
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != LOG_SCHEMA:
        raise UnsupportedSchemaError(
            f"unsupported log schema {schema!r} (want {LOG_SCHEMA})"
        )
    missing = [key for key in _REQUIRED_LOG_KEYS if key not in data]
    if missing:
        raise MalformedLogError(f"log lacks field(s): {', '.join(missing)}")
    for key in ("pair_index", "repeat_index"):
        if type(data[key]) is not int:
            raise MalformedLogError(f"log field {key!r} is not an integer")
    return data


def write_log(log: MatchLog, path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(log_to_dict(log), sort_keys=True, separators=(",", ":")) + "\n"
    )


def read_log(path: Union[str, Path]) -> dict:
    return log_from_dict(json.loads(Path(path).read_text()))


def log_filename(pair_index: int, repeat_index: int, p1_id: str, p2_id: str) -> str:
    return f"match_{pair_index}_{repeat_index}_{p1_id}_vs_{p2_id}.json"
