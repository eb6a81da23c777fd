"""Engine behavior: init, movement, moves, damage, outcomes."""

from __future__ import annotations

import dataclasses
import enum
import random
import typing

import pytest

from lmfa.config import ConfigError, MatchConfig
from lmfa.engine.buttons import Button, EMPTY_CHORD, chord
from lmfa.engine.core import RoundOverError, new_match, step
from lmfa.engine.state import (
    EndReason,
    Facing,
    GameState,
    Hitstun,
    Jumping,
    KnockedDown,
    MoveActive,
    Phase,
    Player,
)

R = Button.RIGHT
L = Button.LEFT
U = Button.UP
D = Button.DOWN
A = Button.A
B = Button.B
C = Button.C


def make_state(x1=120, x2=280, h1=1000, h2=1000, width=400, length=5940) -> GameState:
    cfg = MatchConfig(arena_width=width, match_length_frames=length, start_offset=80)
    s = new_match(cfg)
    p1 = dataclasses.replace(s.p1, x=x1, health=h1)
    p2 = dataclasses.replace(s.p2, x=x2, health=h2)
    facing1 = Facing.RIGHT if x1 <= x2 else Facing.LEFT
    p1 = dataclasses.replace(p1, facing=facing1)
    p2 = dataclasses.replace(p2, facing=facing1.flipped)
    return dataclasses.replace(s, p1=p1, p2=p2)


def run(state: GameState, script) -> GameState:
    for c1, c2 in script:
        state = step(state, c1, c2)
    return state


class TestNewMatch:
    def test_default_start_positions(self):
        s = new_match(MatchConfig())
        assert (s.p1.x, s.p2.x) == (120, 280)
        assert s.p1.health == s.p2.health == 1000
        assert s.p1.facing is Facing.RIGHT and s.p2.facing is Facing.LEFT
        assert s.timer_frames == 5940 and s.frame == 0

    def test_start_is_symmetric_under_reflection(self):
        s = new_match(MatchConfig())
        w = s.arena_width
        assert s.p1.x == w - s.p2.x
        assert s.p1.health == s.p2.health

    def test_zero_arena_width_rejected(self):
        with pytest.raises(ConfigError):
            new_match(MatchConfig(arena_width=0))

    @pytest.mark.parametrize(
        "change",
        [{"arena_width": 401}, {"start_offset": 0}, {"match_length_frames": 0}, {"best_of": 3}],
    )
    def test_an_invalid_config_cannot_be_built(self, change):
        with pytest.raises(ConfigError):
            dataclasses.replace(MatchConfig(), **change)


class TestMovement:
    def test_idle_step_decrements_timer_only(self):
        s = new_match(MatchConfig())
        s2 = step(s, EMPTY_CHORD, EMPTY_CHORD)
        assert (s2.p1.x, s2.p2.x) == (s.p1.x, s.p2.x)
        assert s2.timer_frames == s.timer_frames - 1
        assert s2.frame == 1

    def test_walk_right_ten_frames(self):
        s = new_match(MatchConfig())
        s = run(s, [(chord(R), EMPTY_CHORD)] * 10)
        assert s.p1.x == 150

    def test_walk_clamped_at_arena_edge(self):
        s = make_state(x1=2, x2=280)
        s = step(s, chord(L), EMPTY_CHORD)
        assert s.p1.x == 0

    def test_conflicting_directions_cancel(self):
        s = new_match(MatchConfig())
        s2 = step(s, chord(L, R), EMPTY_CHORD)
        assert s2.p1.x == s.p1.x

    def test_start_button_is_noop(self):
        s = new_match(MatchConfig())
        s2 = step(s, chord(Button.START), EMPTY_CHORD)
        assert s2.p1.x == s.p1.x and s2.p1.phase == step(s, EMPTY_CHORD, EMPTY_CHORD).p1.phase

    def test_jump_arc_lasts_36_frames(self):
        s = new_match(MatchConfig())
        s = step(s, chord(U), EMPTY_CHORD)
        assert isinstance(s.p1.phase, Jumping)
        peaked = False
        for _ in range(36):
            assert isinstance(s.p1.phase, Jumping)
            s = step(s, EMPTY_CHORD, EMPTY_CHORD)
            peaked = peaked or s.p1.y > 0
        assert peaked
        assert s.p1.y == 0 and not isinstance(s.p1.phase, Jumping)

    def test_forward_jump_drifts_90_units(self):
        s = new_match(MatchConfig())
        x0 = s.p1.x
        s = step(s, chord(U, R), EMPTY_CHORD)
        for _ in range(36):
            s = step(s, EMPTY_CHORD, EMPTY_CHORD)
        assert s.p1.x == x0 + 90

    def test_facing_flips_after_crossover(self):
        s = make_state(x1=200, x2=210)
        # p1 jumps forward over p2 and lands behind them
        s = step(s, chord(U, R), EMPTY_CHORD)
        for _ in range(36):
            s = step(s, EMPTY_CHORD, EMPTY_CHORD)
        assert s.p1.x > s.p2.x
        assert s.p1.facing is Facing.LEFT and s.p2.facing is Facing.RIGHT


class TestStrikes:
    def test_punch_connects_after_startup(self):
        s = make_state(x1=185, x2=215)  # dx 30 <= punch reach 40
        s = step(s, chord(A), EMPTY_CHORD)
        assert isinstance(s.p1.phase, MoveActive) and s.p1.phase.move_id == "punch"
        for _ in range(3):
            s = step(s, EMPTY_CHORD, EMPTY_CHORD)
            assert s.p2.health == 1000  # still in startup
        s = step(s, EMPTY_CHORD, EMPTY_CHORD)  # first active frame
        assert s.p2.health == 940
        assert isinstance(s.p2.phase, Hitstun)

    def test_punch_whiffs_out_of_reach(self):
        s = make_state(x1=120, x2=280)
        s = run(s, [(chord(A), EMPTY_CHORD)] + [(EMPTY_CHORD, EMPTY_CHORD)] * 13)
        assert s.p2.health == 1000

    def test_one_hit_per_move(self):
        s = make_state(x1=185, x2=215)
        s = run(s, [(chord(A), EMPTY_CHORD)] + [(EMPTY_CHORD, EMPTY_CHORD)] * 13)
        assert s.p2.health == 940  # both active frames, one hit

    def test_block_takes_chip_damage_without_stun(self):
        s = make_state(x1=175, x2=225)  # dx 50 <= kick reach 55
        script = [(chord(B), chord(C))] + [(EMPTY_CHORD, chord(C))] * 6
        s = run(s, script)
        assert s.p2.health == 1000 - 80 // 10
        assert not isinstance(s.p2.phase, Hitstun)

    def test_uppercut_is_anti_air(self):
        s = make_state(x1=185, x2=215)
        s = step(s, EMPTY_CHORD, chord(U))  # p2 jumps
        for _ in range(11):
            s = step(s, EMPTY_CHORD, EMPTY_CHORD)
        assert s.p2.y > 0
        s = step(s, chord(D, A), EMPTY_CHORD)
        assert s.p1.phase.move_id == "uppercut"
        for _ in range(7):
            s = step(s, EMPTY_CHORD, EMPTY_CHORD)
        assert s.p2.health == 880
        assert isinstance(s.p2.phase, KnockedDown)

    def test_punch_cannot_hit_airborne(self):
        s = make_state(x1=185, x2=215)
        s = step(s, EMPTY_CHORD, chord(U))
        for _ in range(9):
            s = step(s, EMPTY_CHORD, EMPTY_CHORD)
        assert s.p2.y > 0
        s = run(s, [(chord(A), EMPTY_CHORD)] + [(EMPTY_CHORD, EMPTY_CHORD)] * 5)
        assert s.p2.health == 1000

    def test_knocked_down_fighter_is_invulnerable_until_wakeup(self):
        s = make_state(x1=185, x2=215)
        # uppercut p2 into knockdown
        s = run(s, [(chord(D, A), EMPTY_CHORD)] + [(EMPTY_CHORD, EMPTY_CHORD)] * 7)
        assert isinstance(s.p2.phase, KnockedDown)
        h = s.p2.health
        x1 = s.p1.x
        # finish the uppercut's recovery, then walk in and punch while down
        s = run(s, [(EMPTY_CHORD, EMPTY_CHORD)] * 20)
        s = run(s, [(chord(R), EMPTY_CHORD)] * 4)
        s = run(s, [(chord(A), EMPTY_CHORD)] + [(EMPTY_CHORD, EMPTY_CHORD)] * 6)
        assert isinstance(s.p2.phase, KnockedDown)
        assert s.p2.health == h
        assert x1 < s.p1.x
        assert abs(s.p2.x - s.p1.x) <= 40  # punch was in reach, blocked only by the knockdown


class TestFireball:
    def fire(self, s, side_empty=EMPTY_CHORD):
        script = [
            (chord(D), side_empty),
            (EMPTY_CHORD, side_empty),
            (chord(R), side_empty),
            (EMPTY_CHORD, side_empty),
            (chord(A), side_empty),
        ]
        return run(s, script)

    def test_projectile_spawns_and_travels(self):
        s = make_state(x1=120, x2=380)
        s = self.fire(s)
        assert s.p1.phase.move_id == "fireball"
        for _ in range(10):
            s = step(s, EMPTY_CHORD, EMPTY_CHORD)
        assert len(s.projectiles) == 1
        proj = s.projectiles[0]
        assert proj.owner is Player.P1 and proj.vx == 8

    def test_projectile_hits_at_range(self):
        s = make_state(x1=120, x2=380)
        s = self.fire(s)
        for _ in range(40):
            s = step(s, EMPTY_CHORD, EMPTY_CHORD)
            if s.p2.health < 1000:
                break
        assert s.p2.health == 910
        assert not s.projectiles

    def test_projectile_blocked_for_chip(self):
        s = make_state(x1=120, x2=380)
        s = self.fire(s, side_empty=chord(C))
        for _ in range(40):
            s = step(s, EMPTY_CHORD, chord(C))
            if s.p2.health < 1000:
                break
        assert s.p2.health == 991
        assert not isinstance(s.p2.phase, Hitstun)

    def test_jump_clears_projectile(self):
        s = make_state(x1=120, x2=380)
        s = self.fire(s)
        # p2 jumps as the shot approaches; mid-arc height exceeds clearance
        for _ in range(14):
            s = step(s, EMPTY_CHORD, EMPTY_CHORD)
        s = step(s, EMPTY_CHORD, chord(U))
        for _ in range(35):
            s = step(s, EMPTY_CHORD, EMPTY_CHORD)
        assert s.p2.health == 1000
        assert not s.projectiles  # flew past and left the arena eventually

    def test_second_fireball_suppressed_while_live(self):
        s = make_state(x1=40, x2=380)
        s = self.fire(s)
        for _ in range(25):  # finish the fireball animation
            s = step(s, EMPTY_CHORD, EMPTY_CHORD)
        assert s.p1.actionable and len(s.projectiles) == 1
        # a second fireball input while the first is live falls through to punch
        s = self.fire(s)
        assert isinstance(s.p1.phase, MoveActive) and s.p1.phase.move_id == "punch"
        assert len(s.projectiles) == 1

    def test_refire_after_projectile_resolves(self):
        s = make_state(x1=40, x2=380)
        s = self.fire(s)
        for _ in range(50):
            s = step(s, EMPTY_CHORD, EMPTY_CHORD)
        assert s.p2.health == 910 and not s.projectiles
        s = self.fire(s)
        for _ in range(12):
            s = step(s, EMPTY_CHORD, EMPTY_CHORD)
        assert len(s.projectiles) == 1


class TestFlyingKickHandTrace:
    """Contact frame checked against an independent hand-trace simulation.

    The oracle below models only the documented constants (walk 3/frame,
    startup 5, active 6, 20 units advanced per active frame, reach 30,
    damage 150, no knockback) and knows nothing about the engine's code.
    """

    SCRIPT = ["R", "", "R", "", "C"]  # chords per frame, then neutral

    @staticmethod
    def hand_trace(x1: int, x2: int, frames: int = 60):
        script = TestFlyingKickHandTrace.SCRIPT + [""] * (frames - 5)
        x = x1
        prev = ""
        press_frames_right = []
        kick_started = None
        for f, keys in enumerate(script):
            if kick_started is None:
                fresh = set(keys) - set(prev)
                if "R" in fresh:
                    press_frames_right.append(f)
                if "C" in fresh:
                    earlier = [r for r in press_frames_right if r < f]
                    pairs = [
                        (r1, r2)
                        for i, r1 in enumerate(earlier)
                        for r2 in earlier[i + 1 :]
                        if r2 - r1 <= 20 and f - r2 <= 20
                    ]
                    if pairs:
                        kick_started = f
                        prev = keys
                        continue
                if "R" in keys:
                    x += 3
                prev = keys
            else:
                t = f - kick_started
                if 5 <= t <= 10:
                    x += 20
                    if x2 - x <= 30:
                        # contact resolves this frame; the post-step state
                        # carries frame index f + 1
                        return f + 1, 1000 - 150, x2
        raise AssertionError("hand trace never connected")

    def test_kick_connects_at_hand_traced_frame(self):
        x1, x2 = 125, 275  # distance 150
        contact_frame, expect_health, expect_x2 = self.hand_trace(x1, x2)

        s = make_state(x1=x1, x2=x2)
        per_frame = {"R": chord(R), "C": chord(C), "": EMPTY_CHORD}
        frame_inputs = [per_frame[k] for k in self.SCRIPT] + [EMPTY_CHORD] * 55
        first_drop = None
        for f, c1 in enumerate(frame_inputs):
            s = step(s, c1, EMPTY_CHORD)
            if first_drop is None and s.p2.health < 1000:
                first_drop = s.frame
                break
        assert first_drop == contact_frame
        assert s.p2.health == expect_health
        assert s.p2.x == expect_x2
        assert isinstance(s.p2.phase, KnockedDown)


class TestOutcome:
    def test_fresh_match_has_no_outcome(self):
        assert new_match(MatchConfig()).round_over is None

    def test_knockout_reports_winner_health_fraction(self):
        s = make_state(x1=185, x2=215, h1=250, h2=60)
        s = run(s, [(chord(A), EMPTY_CHORD)] + [(EMPTY_CHORD, EMPTY_CHORD)] * 4)
        res = s.round_over
        assert res is not None
        assert res.winner is Player.P1
        assert res.end_reason is EndReason.KNOCKOUT
        assert res.winner_health_fraction == 0.250

    def test_timeout_equal_health_is_draw(self):
        s = make_state(length=10)
        s = run(s, [(EMPTY_CHORD, EMPTY_CHORD)] * 10)
        res = s.round_over
        assert res.winner is None
        assert res.end_reason is EndReason.TIMEOUT
        assert res.winner_health_fraction is None

    def test_timeout_higher_health_wins(self):
        s = make_state(h1=1000, h2=400, length=5)
        s = run(s, [(EMPTY_CHORD, EMPTY_CHORD)] * 5)
        res = s.round_over
        assert res.winner is Player.P1 and res.end_reason is EndReason.TIMEOUT
        assert res.winner_health_fraction == 1.000

    def test_double_ko_is_draw(self):
        s = make_state(x1=185, x2=215, h1=60, h2=60)
        s = run(s, [(chord(A), chord(A))] + [(EMPTY_CHORD, EMPTY_CHORD)] * 4)
        res = s.round_over
        assert res.winner is None
        assert res.end_reason is EndReason.DOUBLE_KO

    def test_step_after_round_over_raises(self):
        s = make_state(length=1)
        s = step(s, EMPTY_CHORD, EMPTY_CHORD)
        assert s.round_over is not None
        with pytest.raises(RoundOverError):
            step(s, EMPTY_CHORD, EMPTY_CHORD)


class TestBookkeeping:
    def test_timer_seconds_rounds_up_partial_seconds(self):
        s = new_match(MatchConfig())
        assert s.timer_seconds == 99
        s = step(s, EMPTY_CHORD, EMPTY_CHORD)
        assert s.timer_seconds == 99

    def test_state_leaves_are_integers_enums_or_phases(self):
        phases = typing.get_args(Phase)

        def leaves(value):
            if isinstance(value, tuple):
                for item in value:
                    yield from leaves(item)
            elif dataclasses.is_dataclass(value) and not isinstance(value, phases):
                for field in dataclasses.fields(value):
                    yield from leaves(getattr(value, field.name))
            else:
                yield value

        rng = random.Random(917)
        buttons = list(Button)
        s = make_state(x1=150, x2=250, length=300)
        while s.round_over is None:
            c1 = chord(*rng.sample(buttons, rng.randint(0, 3)))
            c2 = chord(*rng.sample(buttons, rng.randint(0, 3)))
            s = step(s, c1, c2)
            for leaf in leaves(s):
                assert not isinstance(leaf, str), leaf
                assert leaf is None or isinstance(leaf, (int, enum.Enum, phases)), leaf

    def test_health_monotonic_and_bounded_over_random_script(self):
        rng = random.Random(4242)
        buttons = list(Button)
        s = make_state(x1=170, x2=230, length=400)
        last = (1000, 1000)
        while s.round_over is None and s.frame < 400:
            c1 = chord(*rng.sample(buttons, rng.randint(0, 3)))
            c2 = chord(*rng.sample(buttons, rng.randint(0, 3)))
            s = step(s, c1, c2)
            assert s.p1.health <= last[0] and s.p2.health <= last[1]
            assert 0 <= s.p1.x <= s.arena_width and 0 <= s.p2.x <= s.arena_width
            assert 0 <= s.timer_frames <= 5940
            last = (s.p1.health, s.p2.health)
