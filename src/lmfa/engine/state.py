"""Immutable game state snapshots and their canonical trace form.

Everything here is plain integer data so that serialized traces are
byte-identical across runs and machines. One line per frame:

    frame,timer,p1.health,p1.x,p1.y,p1.facing,p1.phase,p2...,projectiles

Phase codes: ``idle``, ``walk``, ``block``, ``jump:<t>``,
``move:<id>:<t>``, ``hitstun:<n>``, ``down:<n>``. Facing codes: ``R``
(toward positive x) and ``L``. Projectiles serialize as
``owner:x:y:vx`` joined by ``|``, or ``-`` when none are live.

States are frozen slots dataclasses whose ``__init__`` stores each field
through its slot's descriptor (see ``_slot_writing_init``), so building
one costs about half of what the ``object.__setattr__`` calls of the
generated ``__init__`` cost.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, dataclass, fields, replace
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
ACTIONABLE = (Idle, Walking, Blocking)  # the grounded phases that take new input

# The trace code of a phase, by phase type.
PHASE_CODE = {
    Idle: lambda p: "idle",
    Walking: lambda p: "walk",
    Blocking: lambda p: "block",
    Jumping: lambda p: f"jump:{p.t}",
    MoveActive: lambda p: f"move:{p.move_id}:{p.t}",
    Hitstun: lambda p: f"hitstun:{p.left}",
    KnockedDown: lambda p: f"down:{p.left}",
}


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
        return isinstance(self.phase, ACTIONABLE)


@dataclass(frozen=True, slots=True)
class Projectile:
    owner: Player
    x: int
    y: int
    vx: int


@dataclass(frozen=True, slots=True)
class RoundOutcome:
    """How a round ended. ``winner`` and ``winner_health`` are None on a
    draw; a log writes a draw's winner as ``"Draw"``."""

    winner: Optional[Player]
    winner_health: Optional[int]
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


def _slot_writing_init(cls: type):
    """An ``__init__`` with the generated one's signature that stores each
    field through its slot's member descriptor, which ``frozen=True``
    leaves writable, instead of calling ``object.__setattr__``."""
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__}: __post_init__ is not supported")
    params, body, scope = ["self"], [], {}
    for f in fields(cls):
        if f.default_factory is not MISSING or f.kw_only or not f.init:
            raise TypeError(f"{cls.__name__}.{f.name}: unsupported field")
        scope[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            scope[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"\n    _set_{f.name}(self, {f.name})")
    exec(f"def __init__({', '.join(params)}):{''.join(body) or ' pass'}", scope)
    scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    return scope["__init__"]


for _cls in (Idle, Walking, Blocking, Jumping, MoveActive, Hitstun, KnockedDown,
             FighterState, Projectile, RoundOutcome, GameState):
    _cls.__init__ = _slot_writing_init(_cls)


_RIGHT = Facing.RIGHT  # a member lookup on an Enum class is slow
_P1 = Player.P1


def trace_line(state: GameState) -> str:
    p1 = state.p1
    p2 = state.p2
    projs = (
        "|".join(f"{'1' if p.owner is _P1 else '2'}:{p.x}:{p.y}:{p.vx}" for p in state.projectiles)
        if state.projectiles
        else "-"
    )
    return (
        f"{state.frame},{state.timer_frames},"
        f"{p1.health},{p1.x},{p1.y},{'R' if p1.facing is _RIGHT else 'L'},"
        f"{PHASE_CODE[type(p1.phase)](p1.phase)},"
        f"{p2.health},{p2.x},{p2.y},{'R' if p2.facing is _RIGHT else 'L'},"
        f"{PHASE_CODE[type(p2.phase)](p2.phase)},"
        f"{projs}"
    )


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
    if outcome is None or outcome.winner is None:
        return outcome
    return replace(outcome, winner=outcome.winner.other)
