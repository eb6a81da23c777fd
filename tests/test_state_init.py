"""Every dataclass in ``lmfa.engine.state`` keeps the dataclass contract
with its slot-writing ``__init__``, and none is left on the generated one."""

from __future__ import annotations

import copy
import dataclasses
import random

import pytest

from lmfa.config import MatchConfig
from lmfa.engine import state as state_module
from lmfa.engine.core import new_match, step
from lmfa.engine.state import (
    EndReason,
    Facing,
    FighterState,
    Hitstun,
    Jumping,
    KnockedDown,
    MoveActive,
    Player,
    Projectile,
    RoundOutcome,
)

_FIGHTER_A = FighterState(900, 120, 4, Facing.LEFT, Hitstun(5), 3, ((10, 1),))
_FIGHTER_B = FighterState(700, 260, 0, Facing.RIGHT, KnockedDown(2), 0, ())
_PROJECTILE = Projectile(Player.P2, 200, 30, -4)
_OUTCOME = RoundOutcome(Player.P1, 500, EndReason.KNOCKOUT, 1234)

# Two argument tuples per class, differing in every field.
SAMPLES = {
    "Idle": ((), ()),
    "Walking": ((), ()),
    "Blocking": ((), ()),
    "Jumping": ((3, 100, 20), (9, 140, -20)),
    "MoveActive": (("fireball", 4, True), ("jab", 1, False)),
    "Hitstun": ((5,), (11,)),
    "KnockedDown": ((7,), (30,)),
    "FighterState": (
        (900, 120, 4, Facing.LEFT, Hitstun(5), 3, ((10, 1),)),
        (700, 260, 0, Facing.RIGHT, MoveActive("jab", 2), 0, ()),
    ),
    "Projectile": ((Player.P2, 200, 30, -4), (Player.P1, 90, 12, 4)),
    "RoundOutcome": (
        (Player.P1, 500, EndReason.KNOCKOUT, 1234),
        (None, None, EndReason.TIMEOUT, 5940),
    ),
    "GameState": (
        (12, 5000, 400, _FIGHTER_A, _FIGHTER_B, (_PROJECTILE,), _OUTCOME),
        (13, 4999, 520, _FIGHTER_B, _FIGHTER_A, (), None),
    ),
}


def state_dataclasses() -> list:
    return [
        obj
        for name, obj in vars(state_module).items()
        if isinstance(obj, type)
        and name == obj.__name__
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == state_module.__name__
    ]


CLASSES = state_dataclasses()


def uses_generated_init(cls: type) -> bool:
    """True when ``cls.__init__`` is the one ``dataclass(frozen=True)``
    generates, which stores every field through ``object.__setattr__``.
    A class without fields stores nothing, so either ``__init__`` passes."""
    return "__setattr__" in cls.__init__.__code__.co_names


def build(cls: type, which: int = 0):
    return cls(*SAMPLES[cls.__name__][which])


def field_names(cls: type) -> list:
    return [f.name for f in dataclasses.fields(cls)]


def test_every_state_dataclass_has_samples():
    assert sorted(c.__name__ for c in CLASSES) == sorted(SAMPLES)


def test_guard_detects_the_generated_init():
    @dataclasses.dataclass(frozen=True, slots=True)
    class Fresh:
        a: int

    assert uses_generated_init(Fresh)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_no_state_dataclass_uses_the_generated_init(cls):
    assert not uses_generated_init(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestDataclassContract:
    def test_assigning_a_field_raises(self, cls):
        obj = build(cls)
        for name in field_names(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, getattr(build(cls, 1), name))
        assert obj == build(cls)

    def test_replace(self, cls):
        obj, other = build(cls), build(cls, 1)
        assert dataclasses.replace(obj) == obj
        for i, name in enumerate(field_names(cls)):
            args = list(SAMPLES[cls.__name__][0])
            args[i] = getattr(other, name)
            assert dataclasses.replace(obj, **{name: args[i]}) == cls(*args)
        if field_names(cls):
            every_field = {n: getattr(other, n) for n in field_names(cls)}
            assert dataclasses.replace(obj, **every_field) == other

    def test_positional_keyword_and_defaulted_construction_agree(self, cls):
        args = SAMPLES[cls.__name__][0]
        by_keyword = cls(**dict(zip(field_names(cls), args)))
        assert cls(*args) == by_keyword
        assert [getattr(by_keyword, n) for n in field_names(cls)] == list(args)
        fields = dataclasses.fields(cls)
        required = [a for f, a in zip(fields, args) if f.default is dataclasses.MISSING]
        defaults = [f.default for f in fields if f.default is not dataclasses.MISSING]
        assert cls(*required) == cls(*required, *defaults)
        assert [getattr(cls(*required), f.name) for f in fields[len(required):]] == defaults
        with pytest.raises(TypeError):
            cls(*args, "extra")

    def test_equal_objects_hash_equal(self, cls):
        a, b = build(cls), build(cls)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        if field_names(cls):
            assert a != build(cls, 1)

    def test_repr(self, cls):
        obj = build(cls)
        shown = ", ".join(f"{n}={getattr(obj, n)!r}" for n in field_names(cls))
        assert repr(obj) == f"{cls.__qualname__}({shown})"


def test_repr_literals():
    assert repr(Jumping(3, 100, 20)) == "Jumping(t=3, origin_x=100, drift=20)"
    assert repr(_PROJECTILE) == "Projectile(owner=<Player.P2: 'P2'>, x=200, y=30, vx=-4)"


def test_step_leaves_its_input_unchanged():
    rng = random.Random(11)
    state = new_match(MatchConfig(seed=3, match_length_frames=900))
    held = (0, 0)
    phases = set()
    projectiles = 0
    while state.round_over is None:
        if state.frame % 6 == 0:
            held = (rng.randrange(256), rng.randrange(256))
        before = copy.deepcopy(state)
        after = step(state, *held)
        assert state == before
        state = after
        phases |= {type(state.p1.phase), type(state.p2.phase)}
        projectiles += len(state.projectiles)
    # the walk reached moves, jumps and projectiles, not just idling
    assert {MoveActive, Jumping} <= phases and projectiles
