"""Deterministic two-player engine: one pure step function over chord masks.

All arithmetic is integer; the engine consumes no randomness and no
wall-clock time, so a (config, input script) pair fully determines every
state. The per-frame order of operations is fixed:

  1. chord normalization and press-edge bookkeeping
  2. independent fighter updates (phase ticks, movement, trigger starts)
  3. projectile motion, then new spawns
  4. simultaneous hit resolution from the post-move snapshot
  5. facing re-evaluation for grounded, non-locked fighters
  6. timer decrement and round-end check

Both fighters are updated from the same pre-frame snapshot and damage is
applied to both sides at once, so no rule ever depends on player order;
this is what makes mirrored runs exact mirror images.

Quiet frames cost less. An idle fighter that holds nothing, held nothing
the frame before and has no press due to expire comes back as the same
``FighterState`` object, without a call to advance it. Each later stage
runs only when it can change something: projectiles while one is live or
spawning, hit checks (and their lists) while a projectile is live or a
move is active, a new facing for a grounded, actionable fighter that
faces away from an opponent at another x, and the round-end check at
zero health or time.

Phases advance by table lookup. At import each move gets a frame table
(total frames, an active flag per ``t``, the spawn frame and its
``MoveActive`` phase for every ``t`` and ``hit_done``), and the
``Hitstun`` and ``KnockedDown`` phases and the jump arc are built once.
Interned phases are ordinary equal values: a phase built by hand equals
and hashes like the table's, and ``step`` accepts either.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from lmfa.config import MatchConfig
from lmfa.engine.buttons import BIT, NORMALIZE, Button
from lmfa.engine.moves import (
    MOVE_TABLE,
    MOVES_BY_ID,
    MoveDef,
    MoveKind,
    first_triggered_move,
)
from lmfa.engine.state import (
    ACTIONABLE,
    BLOCKING,
    Blocking,
    EndReason,
    Facing,
    FighterState,
    GameState,
    HEALTH_MAX,
    Hitstun,
    IDLE,
    Jumping,
    KnockedDown,
    MoveActive,
    Player,
    Projectile,
    RoundOutcome,
    WALKING,
    mirror_fighter,
    mirror_outcome,
)

WALK_SPEED = 3
JUMP_FRAMES = 36
JUMP_PEAK = 80
JUMP_DRIFT = 90
HITSTUN_FRAMES = 18
KNOCKDOWN_FRAMES = 45
CHIP_DIVISOR = 10  # blocked damage lands at floor(damage / 10)
PRESS_HISTORY_FRAMES = 48

_UP = BIT[Button.UP]
_LEFT = BIT[Button.LEFT]
_RIGHT = BIT[Button.RIGHT]
_C = BIT[Button.C]
_FIREBALL = MOVES_BY_ID["fireball"]
# enum members as plain globals: a member lookup on its class is slow
_FACING_RIGHT = Facing.RIGHT
_FACING_LEFT = Facing.LEFT


class RoundOverError(Exception):
    """Raised when stepping a round that has already ended."""


def new_match(config: MatchConfig) -> GameState:
    """Symmetric initial state: full health, mirrored positions, timer set."""
    half = config.arena_width // 2
    p1 = FighterState(
        health=HEALTH_MAX,
        x=half - config.start_offset,
        y=0,
        facing=Facing.RIGHT,
        phase=IDLE,
    )
    p2 = FighterState(
        health=HEALTH_MAX,
        x=half + config.start_offset,
        y=0,
        facing=Facing.LEFT,
        phase=IDLE,
    )
    return GameState(
        frame=0,
        timer_frames=config.match_length_frames,
        arena_width=config.arena_width,
        p1=p1,
        p2=p2,
        projectiles=(),
    )


def mirror(state: GameState) -> GameState:
    """Swap players and reflect all x coordinates about the arena center."""
    w = state.arena_width
    projectiles = tuple(
        sorted(
            (
                Projectile(owner=p.owner.other, x=w - p.x, y=p.y, vx=-p.vx)
                for p in state.projectiles
            ),
            key=lambda p: p.owner.value,
        )
    )
    return replace(
        state,
        p1=mirror_fighter(state.p2, w),
        p2=mirror_fighter(state.p1, w),
        projectiles=projectiles,
        round_over=mirror_outcome(state.round_over),
    )


def _scaled_drift(drift: int, t: int) -> int:
    """Horizontal jump displacement after t frames; odd in the drift sign."""
    if drift >= 0:
        return drift * t // JUMP_FRAMES
    return -((-drift) * t // JUMP_FRAMES)


def jump_height(t: int) -> int:
    """Ballistic arc height at frame t of the jump, 0 at both ends."""
    half = JUMP_FRAMES // 2
    return (half * half - (t - half) ** 2) * JUMP_PEAK // (half * half)


def _clamp_x(x: int, width: int) -> int:
    return 0 if x < 0 else width if x > width else x


class _MoveFrames:
    """One move's frame data as tables indexed by a ``MoveActive`` phase's t."""

    __slots__ = ("move", "total", "active", "spawn_t", "phases")

    def __init__(self, move: MoveDef) -> None:
        self.move = move
        self.total = move.total_frames
        self.active = tuple(move.is_active_frame(t) for t in range(self.total))
        self.spawn_t = move.startup if move.kind is MoveKind.PROJECTILE else -1
        # phases[t][hit_done] is MoveActive(move.id, t, hit_done), built once
        self.phases = tuple(
            (MoveActive(move.id, t, False), MoveActive(move.id, t, True))
            for t in range(self.total)
        )


# Built at import so a frame looks its phases up instead of building them.
# Interned phases are ordinary values: equal to, and hashing like, a phase
# built by hand, which the engine accepts as well.
_MOVE_FRAMES = {move.id: _MoveFrames(move) for move in MOVE_TABLE}
_HITSTUN = tuple(Hitstun(n) for n in range(HITSTUN_FRAMES + 1))  # [n] is Hitstun(n)
_KNOCKED_DOWN = tuple(KnockedDown(n) for n in range(KNOCKDOWN_FRAMES + 1))
_JUMP_ARC = tuple(jump_height(t) for t in range(JUMP_FRAMES))
_PROJECTILE = MoveKind.PROJECTILE


def _advance_fighter(
    fs: FighterState,
    held: int,
    frame: int,
    width: int,
    fireball_available: bool,
) -> Tuple[FighterState, Optional[MoveDef]]:
    """Per-fighter update for one frame; returns (fighter, projectile spawn).

    ``held`` is the fighter's normalized chord mask. Depends only on the
    fighter's own state and input, never on the opponent, so both sides
    advance from the same snapshot.
    """
    presses = fs.presses
    cutoff = frame - PRESS_HISTORY_FRAMES
    if presses and presses[0][0] <= cutoff:  # ascending by frame
        presses = tuple(ev for ev in presses if ev[0] > cutoff)
    fresh = held & ~fs.prev_chord
    if fresh:
        presses = presses + ((frame, fresh),)

    x = fs.x
    y = fs.y
    phase = fs.phase
    spawn: Optional[MoveDef] = None
    kind = type(phase)

    if kind is MoveActive:
        frames = _MOVE_FRAMES[phase.move_id]
        t = phase.t + 1
        if t >= frames.total:
            phase = IDLE
        else:
            if frames.active[t]:
                move = frames.move
                if move.advance_per_active_frame:
                    x = _clamp_x(x + move.advance_per_active_frame * fs.facing.sign, width)
                if t == frames.spawn_t:
                    spawn = move
            phase = frames.phases[t][phase.hit_done]
    elif kind is Hitstun:
        left = phase.left - 1
        phase = IDLE if left < 1 else _HITSTUN[left] if left <= HITSTUN_FRAMES else Hitstun(left)
    elif kind is KnockedDown:
        left = phase.left - 1
        phase = (
            IDLE if left < 1 else _KNOCKED_DOWN[left] if left <= KNOCKDOWN_FRAMES else KnockedDown(left)
        )
    elif kind is Jumping:
        t = phase.t + 1
        x = _clamp_x(phase.origin_x + _scaled_drift(phase.drift, t), width)
        if t >= JUMP_FRAMES:
            y = 0
            phase = IDLE
        else:
            y = _JUMP_ARC[t]
            phase = Jumping(t, phase.origin_x, phase.drift)
    else:
        # Grounded and actionable: idle, walking, or blocking.
        move = first_triggered_move(
            presses, frame, fs.facing.sign, held, fresh, fireball_available
        )
        if move is not None:
            phase = _MOVE_FRAMES[move.id].phases[0][False]
        elif held & _C:
            phase = BLOCKING
        elif held & _UP:
            drift = JUMP_DRIFT if held & _RIGHT else -JUMP_DRIFT if held & _LEFT else 0
            phase = Jumping(0, x, drift)
        elif held & _RIGHT:
            x = _clamp_x(x + WALK_SPEED, width)
            phase = WALKING
        elif held & _LEFT:
            x = _clamp_x(x - WALK_SPEED, width)
            phase = WALKING
        else:
            phase = IDLE

    return (
        FighterState(fs.health, x, y, fs.facing, phase, held, presses),
        spawn,
    )


class _Hit:
    """One connecting attack: damage, knockback push, knockdown flag."""

    __slots__ = ("damage", "knockback", "direction", "knockdown")

    def __init__(self, damage: int, knockback: int, direction: int, knockdown: bool):
        self.damage = damage
        self.knockback = knockback
        self.direction = direction
        self.knockdown = knockdown


def _melee_hit(attacker: FighterState, target: FighterState) -> Optional[MoveDef]:
    """The move of an attacker in ``MoveActive`` if it connects this frame,
    else None."""
    phase = attacker.phase
    if phase.hit_done:
        return None
    frames = _MOVE_FRAMES[phase.move_id]
    move = frames.move
    if move.kind is _PROJECTILE or not frames.active[phase.t]:
        return None
    if type(target.phase) is KnockedDown:
        return None
    if target.y > 0 and move.kind is not MoveKind.AERIAL:
        return None
    dx = (target.x - attacker.x) * attacker.facing.sign
    if not 0 <= dx <= move.reach:
        return None
    return move


def _hit_done(fs: FighterState) -> FighterState:
    """An attacker whose move has connected, so it hits no more."""
    phase = fs.phase
    return FighterState(
        fs.health, fs.x, fs.y, fs.facing,
        _MOVE_FRAMES[phase.move_id].phases[phase.t][True], fs.prev_chord, fs.presses,
    )


def _resolve_damage(fs: FighterState, hits: List[_Hit], width: int) -> FighterState:
    blocking = isinstance(fs.phase, Blocking)
    health = fs.health
    x = fs.x
    knockdown = False
    for hit in hits:
        health -= hit.damage // CHIP_DIVISOR if blocking else hit.damage
        x = _clamp_x(x + hit.knockback * hit.direction, width)
        knockdown = knockdown or hit.knockdown
    health = max(0, health)
    if blocking:
        # Chip damage, pushback, no stun; the guard holds.
        return FighterState(health, x, fs.y, fs.facing, fs.phase, fs.prev_chord, fs.presses)
    if fs.y > 0:
        knockdown = True  # air hits ground the target
    phase = _KNOCKED_DOWN[KNOCKDOWN_FRAMES] if knockdown else _HITSTUN[HITSTUN_FRAMES]
    return FighterState(health, x, 0, fs.facing, phase, fs.prev_chord, fs.presses)


def _land_hits(
    p1: FighterState, p2: FighterState, projectiles: Sequence[Projectile], width: int
) -> Tuple[FighterState, FighterState, Tuple[Projectile, ...]]:
    """Both fighters after this frame's hits, and the projectiles that hit
    nothing.

    Collects all hits from the post-move snapshot, then applies both sides
    at once; simultaneous trades land for both players (double KO
    possible). Marking an attacker's hit as done changes nothing
    ``_melee_hit`` reads of it as a target, so both melee checks run first.
    """
    hits_on_p1: List[_Hit] = []
    hits_on_p2: List[_Hit] = []
    move1 = _melee_hit(p1, p2) if type(p1.phase) is MoveActive else None
    move2 = _melee_hit(p2, p1) if type(p2.phase) is MoveActive else None
    if move1 is not None:
        hits_on_p2.append(_Hit(move1.damage, move1.knockback, p1.facing.sign, move1.knockdown))
        p1 = _hit_done(p1)
    if move2 is not None:
        hits_on_p1.append(_Hit(move2.damage, move2.knockback, p2.facing.sign, move2.knockdown))
        p2 = _hit_done(p2)

    surviving: List[Projectile] = []
    for proj in projectiles:
        if proj.owner is Player.P1:
            target, hits = p2, hits_on_p2
        else:
            target, hits = p1, hits_on_p1
        if (
            type(target.phase) is not KnockedDown
            and target.y <= _FIREBALL.projectile_clear_height
            and abs(proj.x - target.x) <= _FIREBALL.projectile_hit_radius
        ):
            hits.append(
                _Hit(_FIREBALL.damage, _FIREBALL.knockback, 1 if proj.vx > 0 else -1, False)
            )
        else:
            surviving.append(proj)

    if hits_on_p1:
        p1 = _resolve_damage(p1, hits_on_p1, width)
    if hits_on_p2:
        p2 = _resolve_damage(p2, hits_on_p2, width)
    return p1, p2, tuple(surviving)


def _turned(fs: FighterState, facing: Facing) -> FighterState:
    return FighterState(fs.health, fs.x, fs.y, facing, fs.phase, fs.prev_chord, fs.presses)


def _check_round_end(
    p1: FighterState, p2: FighterState, timer: int, frame: int
) -> Optional[RoundOutcome]:
    if p1.health == 0 and p2.health == 0:
        return RoundOutcome(None, None, EndReason.DOUBLE_KO, frame)
    if p2.health == 0:
        return RoundOutcome(Player.P1, p1.health, EndReason.KNOCKOUT, frame)
    if p1.health == 0:
        return RoundOutcome(Player.P2, p2.health, EndReason.KNOCKOUT, frame)
    if timer <= 0:
        if p1.health > p2.health:
            return RoundOutcome(Player.P1, p1.health, EndReason.TIMEOUT, frame)
        if p2.health > p1.health:
            return RoundOutcome(Player.P2, p2.health, EndReason.TIMEOUT, frame)
        return RoundOutcome(None, None, EndReason.TIMEOUT, frame)
    return None


def step(state: GameState, input_p1: int, input_p2: int) -> GameState:
    """Advance exactly one frame; pure function of (state, chord masks)."""
    if state.round_over is not None:
        raise RoundOverError("cannot step a finished round")

    frame = state.frame
    width = state.arena_width
    live = state.projectiles
    fireball1 = fireball2 = True  # no projectile of the fighter's own is live
    for p in live:
        if p.owner is Player.P1:
            fireball1 = False
        else:
            fireball2 = False

    # A quiet fighter stays as it is: idle, holding nothing now or the frame
    # before, with no press due to leave its history.
    cutoff = frame - PRESS_HISTORY_FRAMES
    p1, spawn1 = state.p1, None
    held = NORMALIZE[input_p1]
    if held or p1.prev_chord or p1.phase is not IDLE or (p1.presses and p1.presses[0][0] <= cutoff):
        p1, spawn1 = _advance_fighter(p1, held, frame, width, fireball1)
    p2, spawn2 = state.p2, None
    held = NORMALIZE[input_p2]
    if held or p2.prev_chord or p2.phase is not IDLE or (p2.presses and p2.presses[0][0] <= cutoff):
        p2, spawn2 = _advance_fighter(p2, held, frame, width, fireball2)

    # Hits are checked only while a projectile is live or a move is active.
    if live or spawn1 is not None or spawn2 is not None:
        # Projectiles move before new ones spawn; off-arena shots despawn.
        moved = [
            Projectile(p.owner, p.x + p.vx, p.y, p.vx)
            for p in live
            if 0 <= p.x + p.vx <= width
        ]
        for owner, fighter, spawn in ((Player.P1, p1, spawn1), (Player.P2, p2, spawn2)):
            if spawn is not None:
                sign = fighter.facing.sign
                px = _clamp_x(fighter.x + spawn.projectile_spawn_offset * sign, width)
                moved.append(Projectile(owner, px, 0, spawn.projectile_speed * sign))
        moved.sort(key=lambda p: p.owner.value)
        p1, p2, projectiles = _land_hits(p1, p2, moved, width)
    elif type(p1.phase) is MoveActive or type(p2.phase) is MoveActive:
        p1, p2, projectiles = _land_hits(p1, p2, (), width)
    else:
        projectiles = ()

    # A grounded, actionable fighter turns toward the opponent. Exact x ties
    # keep both facings; any fixed choice would break mirror symmetry.
    p1_x = p1.x
    p2_x = p2.x
    if p1_x != p2_x:
        toward1, toward2 = (
            (_FACING_RIGHT, _FACING_LEFT) if p1_x < p2_x else (_FACING_LEFT, _FACING_RIGHT)
        )
        if p1.facing is not toward1 and p1.y == 0 and isinstance(p1.phase, ACTIONABLE):
            p1 = _turned(p1, toward1)
        if p2.facing is not toward2 and p2.y == 0 and isinstance(p2.phase, ACTIONABLE):
            p2 = _turned(p2, toward2)

    frame += 1
    timer = state.timer_frames - 1
    ended = timer <= 0 or p1.health == 0 or p2.health == 0
    return GameState(
        frame,
        timer,
        width,
        p1,
        p2,
        projectiles,
        _check_round_end(p1, p2, timer, frame) if ended else None,
    )
