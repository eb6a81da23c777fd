"""Immutable game state snapshots and their canonical trace form.

Everything here is plain integer data so that serialized traces are
byte-identical across runs and machines. One line per frame:

    frame,timer,p1.health,p1.x,p1.y,p1.facing,p1.phase,p2...,projectiles

Phase codes: ``idle``, ``walk``, ``block``, ``jump:<t>``,
``move:<id>:<t>``, ``hitstun:<n>``, ``down:<n>``. Facing codes: ``R``
(toward positive x) and ``L``. Projectiles serialize as
``owner:x:y:vx`` joined by ``|``, or ``-`` when none are live.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

from lmfa.engine.buttons import MIRROR

HEALTH_MAX = 1000


class Player(enum.Enum):
    P1 = "P1"
    P2 = "P2"

    @property
    def other(self) -> "Player":
        return Player.P2 if self is Player.P1 else Player.P1


class Facing(enum.Enum):
    """Which way a fighter faces; RIGHT means toward positive x."""

    RIGHT = 1
    LEFT = -1

    @property
    def sign(self) -> int:
        return self._value_  # the member's value, without Enum's slower descriptor

    @property
    def flipped(self) -> "Facing":
        return Facing.LEFT if self is Facing.RIGHT else Facing.RIGHT


class Winner(enum.Enum):
    P1 = "P1"
    P2 = "P2"
    DRAW = "Draw"


class EndReason(enum.Enum):
    KNOCKOUT = "knockout"
    TIMEOUT = "timeout"
    DOUBLE_KO = "double_ko"


@dataclass(frozen=True, slots=True)
class Idle:
    pass


@dataclass(frozen=True, slots=True)
class Walking:
    pass


@dataclass(frozen=True, slots=True)
class Blocking:
    pass


@dataclass(frozen=True, slots=True)
class Jumping:
    t: int
    origin_x: int
    drift: int  # total horizontal displacement over the full arc


@dataclass(frozen=True, slots=True)
class MoveActive:
    move_id: str
    t: int
    hit_done: bool = False


@dataclass(frozen=True, slots=True)
class Hitstun:
    left: int


@dataclass(frozen=True, slots=True)
class KnockedDown:
    left: int


Phase = Union[Idle, Walking, Blocking, Jumping, MoveActive, Hitstun, KnockedDown]

IDLE = Idle()
WALKING = Walking()
BLOCKING = Blocking()


def phase_code(phase: Phase) -> str:
    match phase:
        case Idle():
            return "idle"
        case Walking():
            return "walk"
        case Blocking():
            return "block"
        case Jumping(t=t):
            return f"jump:{t}"
        case MoveActive(move_id=m, t=t):
            return f"move:{m}:{t}"
        case Hitstun(left=n):
            return f"hitstun:{n}"
        case KnockedDown(left=n):
            return f"down:{n}"
    raise TypeError(f"unknown phase {phase!r}")


PressEvent = Tuple[int, int]  # (frame, mask of freshly pressed buttons)


@dataclass(frozen=True, slots=True)
class FighterState:
    health: int
    x: int
    y: int
    facing: Facing
    phase: Phase
    # Input bookkeeping for the trigger matcher, as chord masks (see
    # engine.buttons); part of the state so that stepping stays a pure
    # function of (state, inputs).
    prev_chord: int = 0
    presses: Tuple[PressEvent, ...] = ()

    @property
    def actionable(self) -> bool:
        return isinstance(self.phase, (Idle, Walking, Blocking))


@dataclass(frozen=True, slots=True)
class Projectile:
    owner: Player
    x: int
    y: int
    vx: int


@dataclass(frozen=True, slots=True)
class RoundOutcome:
    winner: Winner
    winner_health: Optional[int]  # None on draws
    end_reason: EndReason
    frames_elapsed: int

    @property
    def winner_health_fraction(self) -> Optional[float]:
        if self.winner_health is None:
            return None
        return round(self.winner_health / HEALTH_MAX, 3)


@dataclass(frozen=True, slots=True)
class GameState:
    frame: int
    timer_frames: int
    arena_width: int
    p1: FighterState
    p2: FighterState
    projectiles: Tuple[Projectile, ...]
    round_over: Optional[RoundOutcome] = None

    def fighter(self, player: Player) -> FighterState:
        return self.p1 if player is Player.P1 else self.p2

    @property
    def timer_seconds(self) -> int:
        """Seconds shown on the HUD; a started second counts until it ends."""
        return (self.timer_frames + 59) // 60


def trace_line(state: GameState) -> str:
    parts = [str(state.frame), str(state.timer_frames)]
    for fs in (state.p1, state.p2):
        parts.extend(
            (
                str(fs.health),
                str(fs.x),
                str(fs.y),
                "R" if fs.facing is Facing.RIGHT else "L",
                phase_code(fs.phase),
            )
        )
    if state.projectiles:
        projs = "|".join(
            f"{'1' if p.owner is Player.P1 else '2'}:{p.x}:{p.y}:{p.vx}"
            for p in state.projectiles
        )
    else:
        projs = "-"
    parts.append(projs)
    return ",".join(parts)


def _mirror_phase(phase: Phase, width: int) -> Phase:
    if isinstance(phase, Jumping):
        return Jumping(t=phase.t, origin_x=width - phase.origin_x, drift=-phase.drift)
    return phase


def mirror_fighter(fs: FighterState, width: int) -> FighterState:
    return FighterState(
        health=fs.health,
        x=width - fs.x,
        y=fs.y,
        facing=fs.facing.flipped,
        phase=_mirror_phase(fs.phase, width),
        prev_chord=MIRROR[fs.prev_chord],
        presses=tuple((f, MIRROR[m]) for f, m in fs.presses),
    )


def mirror_outcome(outcome: Optional[RoundOutcome]) -> Optional[RoundOutcome]:
    if outcome is None:
        return None
    winner = {Winner.P1: Winner.P2, Winner.P2: Winner.P1, Winner.DRAW: Winner.DRAW}[
        outcome.winner
    ]
    return replace(outcome, winner=winner)
