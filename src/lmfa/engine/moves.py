"""Move table and special-move trigger matching.

The table lives in move_table.json (shipped with the package) so tests,
docs, and the engine share one source of truth. Triggers are written in
facing-relative tokens and loaded as token masks, one per step: bit i
stands for the i-th ``CommandToken``, the way a chord mask's bit i stands
for the i-th ``Button``.

The facing rule (Forward presses Right when facing right) is one
token-to-button table per facing, and it runs one way: ``CHORDS`` turns
a token mask into the chord mask it presses. ``resolve`` compiles
commands with it, and at import it compiles every trigger step into
``TRIGGERS``, so the matcher compares a fighter's chord masks directly.

Trigger semantics:
  * A chord trigger fires when every trigger button is held this frame and
    at least one of them was freshly pressed this frame.
  * A sequence trigger additionally requires earlier steps to match fresh
    press events at strictly increasing frames, with at most
    ``gap_window_frames`` between consecutive steps.

Table order is priority order: first match wins.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from importlib import resources
from typing import Dict, Optional, Sequence, Tuple

from lmfa.engine.buttons import Button, chord
from lmfa.engine.state import PressEvent


class MoveKind(enum.Enum):
    HIGH = "high"
    LOW = "low"
    AERIAL = "aerial"
    PROJECTILE = "projectile"


class CommandToken(enum.Enum):
    """Facing-relative token of agent commands and move triggers."""

    UP = "Up"
    DOWN = "Down"
    LEFT = "Left"
    RIGHT = "Right"
    FORWARD = "Forward"
    BACK = "Back"
    A = "A"
    B = "B"
    C = "C"


# A token mask has bit i set for the i-th CommandToken.
TOKEN_BIT: Dict[CommandToken, int] = {t: 1 << i for i, t in enumerate(CommandToken)}


@dataclass(frozen=True)
class MoveDef:
    """One entry of the move table; constants are the documented stand-ins."""

    id: str
    trigger: Tuple[int, ...]  # one token mask per step
    startup: int
    active: int
    recovery: int
    damage: int
    reach: int
    kind: MoveKind
    knockback: int
    knockdown: bool
    advance_per_active_frame: int = 0
    projectile_speed: int = 0
    projectile_spawn_offset: int = 0
    projectile_hit_radius: int = 0
    projectile_clear_height: int = 0

    @property
    def total_frames(self) -> int:
        return self.startup + self.active + self.recovery

    def is_active_frame(self, t: int) -> bool:
        return self.startup <= t < self.startup + self.active

    def __post_init__(self) -> None:
        if self.startup < 1 or self.active < 1 or self.recovery < 0:
            raise ValueError(f"move {self.id}: bad frame data")
        if self.damage < 0:
            raise ValueError(f"move {self.id}: negative damage")
        if not 1 <= len(self.trigger) <= 3:
            raise ValueError(f"move {self.id}: trigger must have 1-3 steps")


def _parse_move(raw: dict) -> MoveDef:
    trigger = tuple(
        sum(TOKEN_BIT[CommandToken(tok)] for tok in set(step)) for step in raw["trigger"]
    )
    return MoveDef(**{**raw, "trigger": trigger, "kind": MoveKind(raw["kind"])})


def _load_table() -> Tuple[Tuple[MoveDef, ...], int]:
    data = json.loads(
        resources.files("lmfa.engine").joinpath("move_table.json").read_text()
    )
    if data.get("schema") != "lmfa-moves/1":
        raise ValueError("unsupported move table schema")
    return tuple(_parse_move(m) for m in data["moves"]), data["gap_window_frames"]


MOVE_TABLE, GAP_WINDOW_FRAMES = _load_table()
MOVES_BY_ID = {m.id: m for m in MOVE_TABLE}


# The facing rule, written once: the button each token presses for a
# fighter facing right (sign 1) and left (sign -1). Start has no token.
_BUTTON_OF: Dict[int, Dict[CommandToken, Button]] = {
    sign: {
        CommandToken.UP: Button.UP,
        CommandToken.DOWN: Button.DOWN,
        CommandToken.LEFT: Button.LEFT,
        CommandToken.RIGHT: Button.RIGHT,
        CommandToken.FORWARD: ahead,
        CommandToken.BACK: behind,
        CommandToken.A: Button.A,
        CommandToken.B: Button.B,
        CommandToken.C: Button.C,
    }
    for sign, ahead, behind in ((1, Button.RIGHT, Button.LEFT), (-1, Button.LEFT, Button.RIGHT))
}

# CHORDS[sign][tokens] is the chord mask a token mask presses; resolve
# compiles commands with it.
CHORDS: Dict[int, Tuple[int, ...]] = {
    sign: tuple(
        chord(*(button_of[t] for t, bit in TOKEN_BIT.items() if tokens & bit))
        for tokens in range(1 << len(CommandToken))
    )
    for sign, button_of in _BUTTON_OF.items()
}
# TRIGGERS[sign] is the move table in priority order, each move with its
# trigger steps as the chord masks they press for that facing.
TRIGGERS: Dict[int, Tuple[Tuple[MoveDef, Tuple[int, ...]], ...]] = {
    sign: tuple((move, tuple(chords[step] for step in move.trigger)) for move in MOVE_TABLE)
    for sign, chords in CHORDS.items()
}


def match_trigger(
    steps: Tuple[int, ...],
    presses: Sequence[PressEvent],
    now: int,
    held: int,
    fresh: int,
) -> bool:
    """True when a trigger, given as chord-mask steps, completes this frame.

    ``held`` and ``fresh`` are this frame's normalized chord masks.
    ``presses`` is the fighter's fresh-press history of chord masks,
    ascending by frame and including the current frame's event if any.
    """
    last = steps[-1]
    if held & last != last or not fresh & last:
        return False
    # Earlier steps: backwards-greedy over press events, strictly older frames.
    t = now
    for step in reversed(steps[:-1]):
        matched: Optional[int] = None
        for frame, pressed in reversed(presses):
            if frame >= t:
                continue
            if t - frame > GAP_WINDOW_FRAMES:
                break
            if pressed & step == step:
                matched = frame
                break
        if matched is None:
            return False
        t = matched
    return True


def first_triggered_move(
    presses: Sequence[PressEvent],
    now: int,
    facing_sign: int,
    held: int,
    fresh: int,
    fireball_available: bool,
) -> Optional[MoveDef]:
    """Scan the table in priority order; honors the one-projectile rule.

    ``held`` and ``fresh`` are normalized chord masks. A fireball trigger
    whose owner already has a live projectile is skipped, letting
    lower-priority triggers (the bare punch) claim the press instead.
    """
    if not fresh:
        return None
    for move, steps in TRIGGERS[facing_sign]:
        if move.kind is MoveKind.PROJECTILE and not fireball_available:
            continue
        if match_trigger(steps, presses, now, held, fresh):
            return move
    return None
