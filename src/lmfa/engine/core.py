"""Deterministic two-player engine: one pure step function over chords.

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
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from lmfa.config import MatchConfig
from lmfa.engine.buttons import BIT, MASK_OF, NORMALIZE, Button, Chord
from lmfa.engine.moves import (
    MOVES_BY_ID,
    MoveDef,
    MoveKind,
    first_triggered_move,
)
from lmfa.engine.state import (
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
    Winner,
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


class EngineError(Exception):
    pass


class RoundOverError(EngineError):
    """Raised when stepping a round that has already ended."""


def new_match(config: MatchConfig) -> GameState:
    """Symmetric initial state: full health, mirrored positions, timer set."""
    config = config.validated()
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
    fresh = held & ~fs.prev_chord
    presses = fs.presses
    cutoff = frame - PRESS_HISTORY_FRAMES
    if presses and presses[0][0] <= cutoff:  # ascending by frame
        presses = tuple(ev for ev in presses if ev[0] > cutoff)
    if fresh:
        presses = presses + ((frame, fresh),)

    x = fs.x
    y = fs.y
    phase = fs.phase
    spawn: Optional[MoveDef] = None
    kind = type(phase)

    if kind is Hitstun:
        phase = IDLE if phase.left <= 1 else Hitstun(phase.left - 1)
    elif kind is KnockedDown:
        phase = IDLE if phase.left <= 1 else KnockedDown(phase.left - 1)
    elif kind is MoveActive:
        move = MOVES_BY_ID[phase.move_id]
        t = phase.t + 1
        if t >= move.total_frames:
            phase = IDLE
        else:
            if move.is_active_frame(t):
                if move.advance_per_active_frame:
                    x = _clamp_x(x + move.advance_per_active_frame * fs.facing.sign, width)
                if move.kind is MoveKind.PROJECTILE and t == move.startup:
                    spawn = move
            phase = MoveActive(move.id, t, phase.hit_done)
    elif kind is Jumping:
        t = phase.t + 1
        x = _clamp_x(phase.origin_x + _scaled_drift(phase.drift, t), width)
        if t >= JUMP_FRAMES:
            y = 0
            phase = IDLE
        else:
            y = jump_height(t)
            phase = Jumping(t, phase.origin_x, phase.drift)
    else:
        # Grounded and actionable: idle, walking, or blocking.
        move = first_triggered_move(
            presses, frame, fs.facing.sign, held, fresh, fireball_available
        )
        if move is not None:
            phase = MoveActive(move.id, 0)
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
    """The attacker's move if it connects this frame, else None."""
    phase = attacker.phase
    if not isinstance(phase, MoveActive) or phase.hit_done:
        return None
    move = MOVES_BY_ID[phase.move_id]
    if move.kind is MoveKind.PROJECTILE or not move.is_active_frame(phase.t):
        return None
    if isinstance(target.phase, KnockedDown):
        return None
    if target.y > 0 and move.kind is not MoveKind.AERIAL:
        return None
    dx = (target.x - attacker.x) * attacker.facing.sign
    if not 0 <= dx <= move.reach:
        return None
    return move


def _resolve_damage(fs: FighterState, hits: List[_Hit], width: int) -> FighterState:
    if not hits:
        return fs
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
        return replace(fs, health=health, x=x)
    if fs.y > 0:
        knockdown = True  # air hits ground the target
    phase = KnockedDown(KNOCKDOWN_FRAMES) if knockdown else Hitstun(HITSTUN_FRAMES)
    return replace(fs, health=health, x=x, y=0, phase=phase)


def _refresh_facing(fs: FighterState, opponent_x: int) -> FighterState:
    if fs.y != 0 or not fs.actionable:
        return fs
    if fs.x < opponent_x:
        facing = Facing.RIGHT
    elif fs.x > opponent_x:
        facing = Facing.LEFT
    else:
        # Exact ties keep the previous facing; any fixed choice would break
        # mirror symmetry.
        facing = fs.facing
    return fs if facing is fs.facing else replace(fs, facing=facing)


def _check_round_end(
    p1: FighterState, p2: FighterState, timer: int, frame: int
) -> Optional[RoundOutcome]:
    if p1.health == 0 and p2.health == 0:
        return RoundOutcome(Winner.DRAW, None, EndReason.DOUBLE_KO, frame)
    if p2.health == 0:
        return RoundOutcome(Winner.P1, p1.health, EndReason.KNOCKOUT, frame)
    if p1.health == 0:
        return RoundOutcome(Winner.P2, p2.health, EndReason.KNOCKOUT, frame)
    if timer <= 0:
        if p1.health > p2.health:
            return RoundOutcome(Winner.P1, p1.health, EndReason.TIMEOUT, frame)
        if p2.health > p1.health:
            return RoundOutcome(Winner.P2, p2.health, EndReason.TIMEOUT, frame)
        return RoundOutcome(Winner.DRAW, None, EndReason.TIMEOUT, frame)
    return None


def step(state: GameState, input_p1: Chord, input_p2: Chord) -> GameState:
    """Advance exactly one frame; pure function of (state, inputs)."""
    if state.round_over is not None:
        raise RoundOverError("cannot step a finished round")

    frame = state.frame
    width = state.arena_width
    owners = [p.owner for p in state.projectiles]

    p1, spawn1 = _advance_fighter(
        state.p1, NORMALIZE[MASK_OF[input_p1]], frame, width, Player.P1 not in owners
    )
    p2, spawn2 = _advance_fighter(
        state.p2, NORMALIZE[MASK_OF[input_p2]], frame, width, Player.P2 not in owners
    )

    # Projectiles move before new ones spawn; off-arena shots despawn.
    projectiles = [
        Projectile(p.owner, p.x + p.vx, p.y, p.vx)
        for p in state.projectiles
        if 0 <= p.x + p.vx <= width
    ]
    for owner, fighter, spawn in ((Player.P1, p1, spawn1), (Player.P2, p2, spawn2)):
        if spawn is not None:
            sign = fighter.facing.sign
            px = _clamp_x(fighter.x + spawn.projectile_spawn_offset * sign, width)
            projectiles.append(Projectile(owner, px, 0, spawn.projectile_speed * sign))
    projectiles.sort(key=lambda p: p.owner.value)

    # Collect all hits from the post-move snapshot, then apply both sides at
    # once; simultaneous trades land for both players (double KO possible).
    # Marking an attacker's hit as done changes nothing _melee_hit reads of
    # it as a target, so both melee checks can run first.
    hits_on_p1: List[_Hit] = []
    hits_on_p2: List[_Hit] = []
    move1 = _melee_hit(p1, p2)
    move2 = _melee_hit(p2, p1)
    if move1 is not None:
        hits_on_p2.append(_Hit(move1.damage, move1.knockback, p1.facing.sign, move1.knockdown))
        p1 = replace(p1, phase=replace(p1.phase, hit_done=True))
    if move2 is not None:
        hits_on_p1.append(_Hit(move2.damage, move2.knockback, p2.facing.sign, move2.knockdown))
        p2 = replace(p2, phase=replace(p2.phase, hit_done=True))

    surviving: List[Projectile] = []
    for proj in projectiles:
        if proj.owner is Player.P1:
            target, hits = p2, hits_on_p2
        else:
            target, hits = p1, hits_on_p1
        if (
            not isinstance(target.phase, KnockedDown)
            and target.y <= _FIREBALL.projectile_clear_height
            and abs(proj.x - target.x) <= _FIREBALL.projectile_hit_radius
        ):
            hits.append(
                _Hit(_FIREBALL.damage, _FIREBALL.knockback, 1 if proj.vx > 0 else -1, False)
            )
        else:
            surviving.append(proj)

    p1 = _resolve_damage(p1, hits_on_p1, width)
    p2 = _resolve_damage(p2, hits_on_p2, width)

    p2_x = p2.x
    p1_x = p1.x
    p1 = _refresh_facing(p1, p2_x)
    p2 = _refresh_facing(p2, p1_x)

    frame += 1
    timer = state.timer_frames - 1
    return GameState(
        frame,
        timer,
        width,
        p1,
        p2,
        tuple(surviving),
        _check_round_end(p1, p2, timer, frame),
    )
