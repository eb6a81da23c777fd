"""State description: the versioned text template and structured features.

Template v1, exactly five lines, self-perspective resolved per player:

    TIMER: {ss} seconds
    YOU: health {h.hhh}, position ({x},{y}), facing {left|right}
    OPPONENT: health {h.hhh}, position ({x},{y}), facing {left|right}
    YOUR LAST 5 ACTIONS: {c1}; {c2}; {c3}; {c4}; {c5}
    OPPONENT LAST 5 ACTIONS: {c1}; {c2}; {c3}; {c4}; {c5}

Missing action slots render as "-", oldest first, newest last. Parsing the
text recovers the structured features exactly (round-trip tested); prompt
stability across agents depends on this template staying fixed.
"""

from __future__ import annotations

import base64
import re
from dataclasses import dataclass
from typing import Dict, Tuple

from lmfa.engine.state import HEALTH_MAX, Facing, GameState, Player
from lmfa.observe.raster import FrameImage, ppm_bytes

STATE_TEXT_VERSION = "v1"
ACTION_SLOTS = 5


@dataclass(frozen=True)
class ObservationFeatures:
    """Structured features, keyed from the receiving player's perspective."""

    timer_seconds: int
    self_health_fraction: float
    opponent_health_fraction: float
    self_position: Tuple[int, int]
    opponent_position: Tuple[int, int]
    self_facing: str  # "left" | "right"
    opponent_facing: str
    self_last_actions: Tuple[str, ...]
    opponent_last_actions: Tuple[str, ...]


@dataclass(frozen=True)
class Observation:
    """The multimodal bundle handed to one agent for one decision."""

    for_player: Player
    frame: int
    decision_index: int
    frames: Tuple[str, ...]  # base64-encoded canonical images, oldest first
    state_text: str
    features: ObservationFeatures


class WireText(str):
    """ASCII text that needs no JSON escaping, kept together with its bytes.

    ``pieces`` are the text's bytes in order. A JSON writer splices them
    between quotes instead of scanning the text and encoding it again
    (``lmfa.agents.remote.encode_wire_request``); the caller of ``of``
    guarantees that no piece holds a quote, a backslash or a control byte.
    Base64 frames are WireText, and so are their prefixed forms.
    """

    pieces: Tuple[bytes, ...]

    @classmethod
    def of(cls, *pieces: bytes) -> "WireText":
        text = cls(b"".join(pieces), "ascii")
        text.pieces = pieces
        return text

    def prefixed(self, prefix: str) -> "WireText":
        """``prefix + self``, sharing this text's bytes; built once per prefix,
        however many requests carry it (two threads racing here both build
        an equal text, and either may be kept)."""
        memo: Dict[str, WireText] = self.__dict__.setdefault("_prefixed", {})
        text = memo.get(prefix)
        if text is None:
            text = memo[prefix] = WireText.of(prefix.encode("ascii"), *self.pieces)
        return text


def encode_payload_base64(payload: bytes) -> str:
    """Standard base64, no line wrapping."""
    return base64.b64encode(payload).decode("ascii")


def encode_frame_base64(image: FrameImage) -> WireText:
    return WireText.of(base64.b64encode(ppm_bytes(image)))


def decode_frame_base64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"), validate=True)


def _facing_word(facing: Facing) -> str:
    return "right" if facing is Facing.RIGHT else "left"


def _action_slots(actions: Tuple[str, ...]) -> str:
    padded = ("-",) * (ACTION_SLOTS - len(actions)) + actions
    return "; ".join(padded)


def build_state_text(features: ObservationFeatures) -> str:
    f = features
    return "\n".join(
        (
            f"TIMER: {f.timer_seconds} seconds",
            f"YOU: health {f.self_health_fraction:.3f}, "
            f"position ({f.self_position[0]},{f.self_position[1]}), "
            f"facing {f.self_facing}",
            f"OPPONENT: health {f.opponent_health_fraction:.3f}, "
            f"position ({f.opponent_position[0]},{f.opponent_position[1]}), "
            f"facing {f.opponent_facing}",
            f"YOUR LAST 5 ACTIONS: {_action_slots(f.self_last_actions)}",
            f"OPPONENT LAST 5 ACTIONS: {_action_slots(f.opponent_last_actions)}",
        )
    )


_LINE_RE = {
    "timer": re.compile(r"^TIMER: (\d+) seconds$"),
    "you": re.compile(
        r"^YOU: health (\d\.\d{3}), position \((-?\d+),(-?\d+)\), facing (left|right)$"
    ),
    "opp": re.compile(
        r"^OPPONENT: health (\d\.\d{3}), position \((-?\d+),(-?\d+)\), facing (left|right)$"
    ),
    "yours": re.compile(r"^YOUR LAST 5 ACTIONS: (.*)$"),
    "opps": re.compile(r"^OPPONENT LAST 5 ACTIONS: (.*)$"),
}


class StateTextError(ValueError):
    pass


def _parse_actions(text: str) -> Tuple[str, ...]:
    slots = text.split("; ")
    if len(slots) != ACTION_SLOTS:
        raise StateTextError(f"expected {ACTION_SLOTS} action slots: {text!r}")
    return tuple(s for s in slots if s != "-")


def parse_state_text(text: str) -> ObservationFeatures:
    """Inverse of build_state_text; used by the coherence tests."""
    lines = text.split("\n")
    if len(lines) != 5:
        raise StateTextError("state text must have exactly 5 lines")
    m_timer = _LINE_RE["timer"].match(lines[0])
    m_you = _LINE_RE["you"].match(lines[1])
    m_opp = _LINE_RE["opp"].match(lines[2])
    m_yours = _LINE_RE["yours"].match(lines[3])
    m_opps = _LINE_RE["opps"].match(lines[4])
    if not all((m_timer, m_you, m_opp, m_yours, m_opps)):
        raise StateTextError("state text does not match template v1")
    return ObservationFeatures(
        timer_seconds=int(m_timer.group(1)),
        self_health_fraction=float(m_you.group(1)),
        opponent_health_fraction=float(m_opp.group(1)),
        self_position=(int(m_you.group(2)), int(m_you.group(3))),
        opponent_position=(int(m_opp.group(2)), int(m_opp.group(3))),
        self_facing=m_you.group(4),
        opponent_facing=m_opp.group(4),
        self_last_actions=_parse_actions(m_yours.group(1)),
        opponent_last_actions=_parse_actions(m_opps.group(1)),
    )


def describe_state(
    state: GameState,
    for_player: Player,
    frames: Tuple[str, ...] = (),
    decision_index: int = 0,
    last_actions: Tuple[Tuple[str, ...], Tuple[str, ...]] = ((), ()),
) -> Observation:
    """Build the observation for one player; frames are attached as given.

    ``last_actions`` holds P1's and P2's executed commands, oldest first;
    the newest ``ACTION_SLOTS`` of each fill the two action lines.
    """
    me = state.fighter(for_player)
    opp = state.fighter(for_player.other)
    mine, theirs = last_actions if for_player is Player.P1 else last_actions[::-1]
    features = ObservationFeatures(
        timer_seconds=state.timer_seconds,
        self_health_fraction=me.health / HEALTH_MAX,
        opponent_health_fraction=opp.health / HEALTH_MAX,
        self_position=(me.x, me.y),
        opponent_position=(opp.x, opp.y),
        self_facing=_facing_word(me.facing),
        opponent_facing=_facing_word(opp.facing),
        self_last_actions=mine[-ACTION_SLOTS:],
        opponent_last_actions=theirs[-ACTION_SLOTS:],
    )
    return Observation(
        for_player=for_player,
        frame=state.frame,
        decision_index=decision_index,
        frames=frames,
        state_text=build_state_text(features),
        features=features,
    )
