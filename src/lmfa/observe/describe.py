"""State description: the versioned text template and structured features.

Template v1, exactly five lines, self-perspective resolved per player:

    TIMER: {ss} seconds
    YOU: health {h.hhh}, position ({x},{y}), facing {left|right}
    OPPONENT: health {h.hhh}, position ({x},{y}), facing {left|right}
    YOUR LAST 5 ACTIONS: {c1}; {c2}; {c3}; {c4}; {c5}
    OPPONENT LAST 5 ACTIONS: {c1}; {c2}; {c3}; {c4}; {c5}

Missing action slots render as "-", oldest first, newest last. Parsing the
text recovers the structured features exactly (the tests hold the parser
and check the round trip); prompt stability across agents depends on this
template staying fixed. A frame, ``render``'s tuple of pixel rows, is sent
as base64 of ``PPM_HEADER`` plus those rows (``encode_frame_base64``),
the one frame container.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from lmfa.engine.state import HEALTH_MAX, Facing, GameState, Player
from lmfa.observe.raster import HEIGHT, WIDTH

ACTION_SLOTS = 5

# binary portable pixmap (P6) header; 15 bytes, a multiple of 3
PPM_HEADER = b"P6\n%d %d\n255\n" % (WIDTH, HEIGHT)


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
    """The multimodal bundle handed to one agent for one decision.

    ``state_text`` is built from ``features`` on first read and kept; a
    scripted bot reads only the features, so its ticks never build it.
    """

    for_player: Player
    frame: int
    decision_index: int
    # encode_frame_base64 of the annotated frames, oldest first
    frames: Tuple[WireText, ...]
    features: ObservationFeatures

    @cached_property
    def state_text(self) -> str:
        return build_state_text(self.features)


class WireText:
    """ASCII text that needs no JSON escaping, held as its bytes in pieces.

    ``pieces`` are the text's bytes in order; nothing joins them until a
    JSON writer splices them between quotes into a request body
    (``lmfa.agents.remote.encode_wire_request``). Whoever builds one
    guarantees that no piece holds a quote, a backslash or a control byte.
    Base64 frames are WireText, and so are their prefixed forms. A frame's
    pieces are one header piece and then one piece per pixel row, and
    equal adjacent rows share one ``bytes`` object
    (``encode_frame_base64``). ``len`` is the character count and ``str``
    the joined text. A WireText is not a ``str``: ``json.dumps`` refuses it.
    """

    __slots__ = ("pieces",)

    def __init__(self, *pieces: bytes) -> None:
        self.pieces = pieces

    def __len__(self) -> int:
        return sum(map(len, self.pieces))

    def __str__(self) -> str:
        return b"".join(self.pieces).decode("ascii")

    def prefixed(self, prefix: str) -> "WireText":
        """``prefix`` followed by this text, sharing its pieces."""
        return WireText(prefix.encode("ascii"), *self.pieces)


def encode_frame_base64(rows: Tuple[bytes, ...]) -> WireText:
    """Base64 of ``PPM_HEADER`` plus the frame's rows, one row at a time.

    Base64 turns each 3 input bytes into 4 characters independently, so
    ``b64(a + b) == b64(a) + b64(b)`` when ``len(a)`` is a multiple of 3,
    as the header and each ``WIDTH * 3``-byte row are. A run of equal rows
    (sky, floor, HUD) is encoded once and shares one piece; rows that
    ``render`` shares compare equal by identity alone.
    """
    pieces = [base64.b64encode(PPM_HEADER)]
    row = piece = None
    for nxt in rows:
        if nxt != row:
            row, piece = nxt, base64.b64encode(nxt)
        pieces.append(piece)
    return WireText(*pieces)


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


def describe_state(
    state: GameState,
    for_player: Player,
    frames: Tuple[WireText, ...] = (),
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
        features=features,
    )
