"""What an agent is shown: the system prompt, the state report, the frame
container and the window the frames are sampled from.

The system prompt (``build_system_prompt``) is one fixed text per config,
byte-identical for every agent in a run; results should cite
PROMPT_VERSION, since prompt drift would invalidate comparisons across
runs. The state report, template v1, is exactly five lines,
self-perspective resolved per player:

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
the one frame container, of media type ``PPM_MEDIA_TYPE``. Each distinct
row is encoded once, equal rows anywhere in a frame share one piece, and
a row's piece is reused by later frames that show the same row. The
window at engine frame F covers {F-36, F-32, ..., F}: ten frames at
four-frame spacing, clipped at round start, taken from the frames
rendered for the coming windows, never from re-simulation.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Tuple

from lmfa.config import MatchConfig
from lmfa.engine.state import HEALTH_MAX, Facing, GameState, Player
from lmfa.observe.raster import HEIGHT, WIDTH

ACTION_SLOTS = 5

# binary portable pixmap (P6) header; 15 bytes, a multiple of 3
PPM_HEADER = b"P6\n%d %d\n255\n" % (WIDTH, HEIGHT)
PPM_MEDIA_TYPE = "image/x-portable-pixmap"


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
    request body is streamed, one frame at a time: each block of a
    ``lmfa.agents.remote.WireBody`` joins one text's pieces after the JSON
    text before it. Whoever builds one guarantees that no piece holds a
    quote, a backslash or a control byte.
    Base64 frames are WireText, and so are their prefixed forms. A frame's
    pieces are one header piece and then one piece per pixel row, and
    equal rows anywhere in a frame share one ``bytes`` object
    (``encode_frame_base64``). ``len`` is the character count, summed once
    when the text is built, and ``str`` the joined text. A WireText is not
    a ``str``: ``json.dumps`` refuses it, and ``json.JSONEncoder`` hands it
    to the ``default`` of ``lmfa.agents.remote.encode_wire_request``, which
    writes its pieces.
    """

    __slots__ = ("pieces", "_length")

    def __init__(self, *pieces: bytes) -> None:
        self.pieces = pieces
        self._length = sum(map(len, pieces))

    def __len__(self) -> int:
        return self._length

    def __str__(self) -> str:
        return b"".join(self.pieces).decode("ascii")

    def prefixed(self, prefix: str) -> "WireText":
        """``prefix`` followed by this text, sharing its pieces."""
        text = WireText(prefix.encode("ascii"))
        text.pieces += self.pieces
        text._length += self._length
        return text


_HEADER_BASE64 = base64.b64encode(PPM_HEADER)


# Keyed by content, so frames and threads share it safely. The rows that
# come back frame after frame are the background's and the HUD band's,
# about ten at a time; fighters' and markers' rows recur only while
# they hold still. In a remote match 32 entries already got 99% of the
# hits of an unbounded cache; 64 leave room for matches rendering at once.
@lru_cache(maxsize=64)
def _row_base64(row: bytes) -> bytes:
    return base64.b64encode(row)


def encode_frame_base64(rows: Tuple[bytes, ...]) -> WireText:
    """Base64 of ``PPM_HEADER`` plus the frame's rows, one row at a time.

    Base64 turns each 3 input bytes into 4 characters independently, so
    ``b64(a + b) == b64(a) + b64(b)`` when ``len(a)`` is a multiple of 3,
    as the header and each ``WIDTH * 3``-byte row are. Each distinct row
    is encoded once, and equal rows anywhere in the frame share its piece.
    A row's piece is kept across frames, so the rows that frames share
    (background, HUD band) are encoded once for many frames.
    """
    distinct = set(rows)
    piece = dict(zip(distinct, map(_row_base64, distinct)))
    return WireText(_HEADER_BASE64, *map(piece.__getitem__, rows))


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


PROMPT_VERSION = "prompt-v1"

_TEMPLATE = """\
ARENA SYSTEM PROMPT {version}

OBJECTIVE
You control one fighter in a mirror match. Reduce your opponent's health
from 1.000 to 0.000 before the {seconds}-second timer runs out, or hold
the higher health at timeout. Health never regenerates.

OBSERVATIONS
Each decision you receive up to 10 game frames (base64-encoded binary
PPM, "P6"), oldest first, sampled every 4th engine frame, with marker
boxes labeled P1/P2 above the fighters, plus a state report in exactly
this form:
TIMER: <seconds> seconds
YOU: health <h.hhh>, position (<x>,<y>), facing <left|right>
OPPONENT: health <h.hhh>, position (<x>,<y>), facing <left|right>
YOUR LAST 5 ACTIONS: <oldest>; ...; <newest>
OPPONENT LAST 5 ACTIONS: <oldest>; ...; <newest>

ACTIONS
A command is 1-5 chords separated by commas; each chord is 1-3 tokens
joined by "+". Tokens: Up, Down, Left, Right, Forward, Back, A, B, C,
Block, Jump, Crouch. Forward and Back are relative to your facing.
Aliases: Block=C, Jump=Up, Crouch=Down.
Moves: A = punch. B = kick (longer reach). Hold C = block (reduces damage
to chip, prevents stun). Down + A = uppercut (hits jumping opponents).
Down + B = crouch kick. Down, Forward, A = fireball projectile.
Forward, Forward, C = flying kick (long advance, big damage).
Movement: Forward/Back walk. Jump leaves the ground and clears fireballs
at its peak; Jump + Forward or Jump + Back arcs sideways.

REPLY FORMAT
Reason as much as you like, then end your reply with exactly one command
on the final line, for example:
Left + A
"""


def build_system_prompt(config: MatchConfig) -> str:
    """Deterministic prompt text; identical for every agent in a run."""
    return _TEMPLATE.format(
        version=PROMPT_VERSION,
        seconds=(config.match_length_frames + 59) // 60,
    )


WINDOW_SIZE = 10
WINDOW_SPACING = 4
WINDOW_SPAN = WINDOW_SPACING * (WINDOW_SIZE - 1)  # how far back a window reaches


def window_indices(now: int) -> Tuple[int, ...]:
    """Engine frame indices sampled for a decision at frame ``now``."""
    return tuple(i for i in range(now - WINDOW_SPAN, now + 1, WINDOW_SPACING) if i >= 0)


def sample_window_encoded(rendered: Dict[int, WireText], now: int) -> List[WireText]:
    """Encoded frames at the window indices, oldest first, from ``rendered``
    (engine frame -> the ``WireText`` of ``encode_frame_base64``, returned
    as is, so a sampled frame still shares its row pieces).

    Raises KeyError if a required frame was never rendered (a runner
    scheduling bug, not a game condition).
    """
    return [rendered[i] for i in window_indices(now)]
