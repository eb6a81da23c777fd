"""Move table and special-move trigger matching.

The table lives in move_table.json (shipped with the package) so tests,
docs, and the engine share one source of truth. Triggers are written in
facing-relative tokens; the matcher translates a fighter's recent chord
masks into token masks through a per-facing table before comparing.

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
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from lmfa.engine.buttons import BIT, Button
from lmfa.engine.state import PressEvent


class MoveKind(enum.Enum):
    HIGH = "high"
    LOW = "low"
    AERIAL = "aerial"
    PROJECTILE = "projectile"
    THROW_RANGE = "throw-range"


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


TokenSet = FrozenSet[CommandToken]


@dataclass(frozen=True)
class MoveDef:
    """One entry of the move table; constants are the documented stand-ins."""

    id: str
    trigger: Tuple[TokenSet, ...]
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
    return MoveDef(
        id=raw["id"],
        trigger=tuple(
            frozenset(CommandToken(tok) for tok in step) for step in raw["trigger"]
        ),
        startup=raw["startup"],
        active=raw["active"],
        recovery=raw["recovery"],
        damage=raw["damage"],
        reach=raw["reach"],
        kind=MoveKind(raw["kind"]),
        knockback=raw["knockback"],
        knockdown=raw["knockdown"],
        advance_per_active_frame=raw.get("advance_per_active_frame", 0),
        projectile_speed=raw.get("projectile_speed", 0),
        projectile_spawn_offset=raw.get("projectile_spawn_offset", 0),
        projectile_hit_radius=raw.get("projectile_hit_radius", 0),
        projectile_clear_height=raw.get("projectile_clear_height", 0),
    )


def _load_table() -> Tuple[Tuple[MoveDef, ...], int]:
    data = json.loads(
        resources.files("lmfa.engine").joinpath("move_table.json").read_text()
    )
    if data.get("schema") != "lmfa-moves/1":
        raise ValueError("unsupported move table schema")
    return tuple(_parse_move(m) for m in data["moves"]), data["gap_window_frames"]


MOVE_TABLE, GAP_WINDOW_FRAMES = _load_table()
MOVES_BY_ID = {m.id: m for m in MOVE_TABLE}


# The engine matches triggers on integers: a token mask has bit i set for
# the i-th CommandToken, TOKENS[facing_sign][chord_mask] is the token mask
# of a chord mask, and each trigger step is precomputed as a token mask.
# Left/Right become Forward/Back depending on which way the fighter faces;
# all other buttons map one-to-one (Start has no token).

_ABSOLUTE_TOKENS = {
    Button.UP: CommandToken.UP,
    Button.DOWN: CommandToken.DOWN,
    Button.A: CommandToken.A,
    Button.B: CommandToken.B,
    Button.C: CommandToken.C,
}
_TOKEN_BIT: Dict[CommandToken, int] = {t: 1 << i for i, t in enumerate(CommandToken)}


def token_mask(tokens: TokenSet) -> int:
    mask = 0
    for tok in tokens:
        mask |= _TOKEN_BIT[tok]
    return mask


def _token_table(facing_sign: int) -> Tuple[int, ...]:
    forward, back = _TOKEN_BIT[CommandToken.FORWARD], _TOKEN_BIT[CommandToken.BACK]
    by_button = {b: _TOKEN_BIT[t] for b, t in _ABSOLUTE_TOKENS.items()}
    by_button[Button.RIGHT] = forward if facing_sign > 0 else back
    by_button[Button.LEFT] = back if facing_sign > 0 else forward
    return tuple(
        sum(tok for b, tok in by_button.items() if mask & BIT[b]) for mask in range(256)
    )


TOKENS: Dict[int, Tuple[int, ...]] = {1: _token_table(1), -1: _token_table(-1)}

# (move, trigger steps as token masks), in table order
_TRIGGER_MASKS: Tuple[Tuple[MoveDef, Tuple[int, ...]], ...] = tuple(
    (move, tuple(token_mask(step) for step in move.trigger)) for move in MOVE_TABLE
)


def match_trigger(
    steps: Tuple[int, ...],
    presses: Sequence[PressEvent],
    now: int,
    tokens: Tuple[int, ...],
    held: int,
    fresh: int,
) -> bool:
    """True when a trigger, given as token-mask steps, completes this frame.

    ``held`` and ``fresh`` are token masks of this frame's input;
    ``tokens`` is the facing's chord-to-token table. ``presses`` is the
    fighter's fresh-press history of chord masks, ascending by frame and
    including the current frame's event if any.
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
            if tokens[pressed] & step == step:
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
    tokens = TOKENS[facing_sign]
    held_tokens = tokens[held]
    fresh_tokens = tokens[fresh]
    for move, steps in _TRIGGER_MASKS:
        if move.kind is MoveKind.PROJECTILE and not fireball_available:
            continue
        if match_trigger(steps, presses, now, tokens, held_tokens, fresh_tokens):
            return move
    return None
