"""Quiet-frame fast paths against the engine as it was before them.

``engine_oracle`` keeps the earlier ``step`` (every stage on every frame)
and the ``match``-statement ``phase_code`` with its field-by-field
``trace_line``. Seeded input streams, chosen frame by frame from the live
state, drive both engines through whole matches: every state must be
equal and every trace line identical. The streams mix idle stretches, held
blocks, jumps, fireball motions, rushes and button mashing, and the test
checks that those situations, and a knockout, really occurred.
"""

from __future__ import annotations

import random
from typing import Iterator, Set

import engine_oracle as oracle
from lmfa.config import MatchConfig
from lmfa.engine.buttons import BIT, Button, chord
from lmfa.engine.core import new_match, step
from lmfa.engine.state import (
    PHASE_CODE,
    Blocking,
    EndReason,
    FighterState,
    GameState,
    Hitstun,
    Idle,
    Jumping,
    KnockedDown,
    MoveActive,
    Player,
    Walking,
    trace_line,
)

_A, _B, _C = BIT[Button.A], BIT[Button.B], BIT[Button.C]
_UP, _DOWN = BIT[Button.UP], BIT[Button.DOWN]
_LEFT, _RIGHT = BIT[Button.LEFT], BIT[Button.RIGHT]


def _toward(me: FighterState, other: FighterState) -> int:
    return _RIGHT if me.x < other.x else _LEFT


def player_stream(rng: random.Random, player: Player) -> Iterator[int]:
    """Chord masks for one fighter; receives each frame's state via send()."""
    state: GameState = yield 0
    while True:
        kind = rng.choice(("idle", "idle", "block", "jump", "fireball", "rush", "rush", "mash"))
        me, other = (state.p1, state.p2) if player is Player.P1 else (state.p2, state.p1)
        if kind == "idle":
            masks = [0] * rng.randint(10, 80)
        elif kind == "block":
            masks = [_C] * rng.randint(5, 50)
        elif kind == "jump":
            masks = [_UP | rng.choice((0, _LEFT, _RIGHT))] * rng.randint(1, 4)
        elif kind == "fireball":
            forward = _toward(me, other)
            if rng.random() < 0.2:
                forward ^= _LEFT | _RIGHT  # the wrong way: no fireball
            masks = [_DOWN] * 2 + [0] + [forward] * 2 + [0] + [_A] * 2 + [0] * rng.randint(0, 30)
        elif kind == "mash":
            masks = [rng.randrange(256) for _ in range(rng.randint(5, 30))]
        else:  # rush: walk in, then punch and kick, re-reading positions each frame
            for _ in range(rng.randint(30, 120)):
                me, other = (state.p1, state.p2) if player is Player.P1 else (state.p2, state.p1)
                if abs(me.x - other.x) > 40:
                    mask = _toward(me, other)
                else:
                    mask = rng.choice((_A, _B, 0, 0, chord(Button.DOWN, Button.A)))
                state = yield mask
            continue
        for mask in masks:
            state = yield mask


def run_against_oracle(seed: int, frames: int, seen: Set[str]) -> GameState:
    rng = random.Random(seed)
    state = new_match(MatchConfig(match_length_frames=frames, seed=seed))
    expected = state
    streams = [player_stream(random.Random(rng.random()), p) for p in (Player.P1, Player.P2)]
    for s in streams:
        next(s)
    while state.round_over is None:
        m1, m2 = (s.send(state) for s in streams)
        fast = step(state, m1, m2)
        expected = oracle.step(expected, m1, m2)
        assert fast == expected, f"seed {seed}: state differs after frame {state.frame}"
        line = trace_line(fast)
        assert line == oracle.trace_line(expected), f"seed {seed}: trace line at {fast.frame}"
        for prev, now in ((state.p1, fast.p1), (state.p2, fast.p2)):
            seen.add(type(now.phase).__name__)
            if now is prev:
                seen.add("quiet")
            if isinstance(now.phase, Blocking) and isinstance(prev.phase, Blocking):
                seen.add("held block")
        if fast.projectiles:
            seen.add("projectile")
        state = fast
    seen.add(state.round_over.end_reason.value)
    return state


def test_fast_paths_match_the_oracle_state_for_state():
    seen: Set[str] = set()
    for seed in range(12):
        run_against_oracle(seed, 3000 if seed < 8 else 300, seen)
    assert {
        "quiet",
        "held block",
        "projectile",
        Idle.__name__,
        Walking.__name__,
        Jumping.__name__,
        MoveActive.__name__,
        Hitstun.__name__,
        KnockedDown.__name__,
        EndReason.KNOCKOUT.value,
        EndReason.TIMEOUT.value,
    } <= seen, seen


def test_phase_code_table_matches_the_match_statement():
    phases = [
        Idle(), Walking(), Blocking(), Jumping(7, 100, -90), MoveActive("fireball", 3),
        MoveActive("uppercut", 11, True), Hitstun(4), KnockedDown(45),
    ]
    assert set(PHASE_CODE) == {type(p) for p in phases}
    for p in phases:
        assert PHASE_CODE[type(p)](p) == oracle.phase_code(p)
