"""Frame tables built at import against the engine as it was before them.

``step`` reads each move's frame data, and takes its ``MoveActive``,
``Hitstun`` and ``KnockedDown`` phases, from tables built once in
``lmfa.engine.core``. The interned phases must be ordinary values, the
tables must cover every move and frame, and a state whose phases were
built by hand, in ways the engine itself never builds them, must step
exactly as ``engine_oracle.step`` steps it.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Iterator, List

import pytest

import engine_oracle as oracle
from lmfa.config import MatchConfig
from lmfa.engine import core
from lmfa.engine.core import (
    HITSTUN_FRAMES,
    JUMP_DRIFT,
    JUMP_FRAMES,
    KNOCKDOWN_FRAMES,
    jump_height,
    mirror,
    new_match,
    step,
)
from lmfa.engine.moves import MOVE_TABLE, MoveKind
from lmfa.engine.state import (
    BLOCKING,
    GameState,
    Hitstun,
    Jumping,
    KnockedDown,
    MoveActive,
    Player,
    Projectile,
    trace_line,
)


def interned_phases() -> Iterator[tuple]:
    """(interned phase, the same phase built fresh) for every table entry."""
    for move in MOVE_TABLE:
        for t, pair in enumerate(core._MOVE_FRAMES[move.id].phases):
            for hit_done in (False, True):
                yield pair[hit_done], MoveActive(move.id, t, hit_done)
    for n, phase in enumerate(core._HITSTUN):
        yield phase, Hitstun(n)
    for n, phase in enumerate(core._KNOCKED_DOWN):
        yield phase, KnockedDown(n)


def test_interned_phases_are_ordinary_values():
    pairs = list(interned_phases())
    assert len(pairs) > 2 * len(MOVE_TABLE)
    for interned, fresh in pairs:
        assert interned is not fresh
        assert interned == fresh and fresh == interned
        assert hash(interned) == hash(fresh)
        assert repr(interned) == repr(fresh)
        assert {interned: 1}[fresh] == 1


def test_tables_cover_every_move_and_frame():
    assert set(core._MOVE_FRAMES) == {move.id for move in MOVE_TABLE}
    for move in MOVE_TABLE:
        frames = core._MOVE_FRAMES[move.id]
        assert frames.move is move
        assert frames.total == move.total_frames
        assert len(frames.active) == len(frames.phases) == move.total_frames
        for t in range(move.total_frames):
            assert frames.active[t] == move.is_active_frame(t)
            assert frames.phases[t] == (MoveActive(move.id, t), MoveActive(move.id, t, True))
        spawn = move.startup if move.kind is MoveKind.PROJECTILE else -1
        assert frames.spawn_t == spawn
    assert core._HITSTUN == tuple(Hitstun(n) for n in range(HITSTUN_FRAMES + 1))
    assert core._KNOCKED_DOWN == tuple(KnockedDown(n) for n in range(KNOCKDOWN_FRAMES + 1))
    assert core._JUMP_ARC == tuple(jump_height(t) for t in range(JUMP_FRAMES))


def with_phases(p1_phase, p2_phase, x1=180, x2=210, y1=0, y2=0, projectiles=()) -> GameState:
    """A state 30 units apart (inside every melee reach) holding the given
    phases, each built by the caller rather than by the engine."""
    start = new_match(MatchConfig(match_length_frames=600))
    return replace(
        start,
        p1=replace(start.p1, x=x1, y=y1, phase=p1_phase),
        p2=replace(start.p2, x=x2, y=y2, phase=p2_phase),
        projectiles=projectiles,
    )


def hand_built_states() -> List[GameState]:
    states = []
    for move in MOVE_TABLE:
        for t in range(move.total_frames):
            for hit_done in (False, True):
                states.append(with_phases(MoveActive(move.id, t, hit_done), BLOCKING))
                states.append(
                    with_phases(MoveActive(move.id, t, hit_done), Jumping(10, 210, 0), y2=60)
                )
    for extra in (1, 7, 40):
        states.append(with_phases(Hitstun(HITSTUN_FRAMES + extra), MoveActive("punch", 0)))
        states.append(
            with_phases(KnockedDown(KNOCKDOWN_FRAMES + extra), MoveActive("kick", 2, True))
        )
    for n in range(HITSTUN_FRAMES + 1):
        states.append(with_phases(Hitstun(n), KnockedDown(n)))
    for t in range(JUMP_FRAMES):
        for drift in (-JUMP_DRIFT, 0, JUMP_DRIFT):
            states.append(
                with_phases(Jumping(t, 180, drift), MoveActive("uppercut", 0), y1=jump_height(t))
            )
    fireball = Projectile(Player.P1, 150, 0, 8)
    states.append(with_phases(MoveActive("fireball", 3), Hitstun(3), projectiles=(fireball,)))
    return states + [mirror(s) for s in states]


def test_hand_built_states_step_like_the_oracle():
    rng = random.Random(1510)
    states = hand_built_states()
    # mirrored states put the attacker on P2
    assert any(type(s.p2.phase) is MoveActive and s.p2.phase.hit_done for s in states)
    for start in states:
        fast = expected = start
        for _ in range(60):
            m1, m2 = rng.choice((0, 0, rng.randrange(256))), rng.choice((0, rng.randrange(256)))
            fast = step(fast, m1, m2)
            expected = oracle.step(expected, m1, m2)
            assert fast == expected, f"from {start}: differs at frame {fast.frame}"
            assert trace_line(fast) == oracle.trace_line(expected)
            if fast.round_over is not None:
                break


@pytest.mark.parametrize("move", MOVE_TABLE, ids=lambda m: m.id)
def test_a_move_steps_into_its_interned_phase(move):
    state = with_phases(MoveActive(move.id, move.startup - 1), BLOCKING)
    after = step(state, 0, 0)
    connects = move.kind is not MoveKind.PROJECTILE and move.reach >= 30
    assert after.p1.phase is core._MOVE_FRAMES[move.id].phases[move.startup][connects]
    assert after == oracle.step(state, 0, 0)
