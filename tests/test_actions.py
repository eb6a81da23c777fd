"""Command grammar: parsing, normalization, timing, reply extraction."""

from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmfa.actions import (
    Command,
    CommandError,
    CommandToken,
    HOLD_FRAMES,
    MAX_PLAN_FRAMES,
    NoCommandFoundError,
    extract_command,
    parse,
    resolve,
)
from lmfa.engine.buttons import BIT, EMPTY_CHORD, Button, chord
from lmfa.engine.state import Facing
from test_chord_masks import token_sets

T = CommandToken


def parse_error(text: str) -> str:
    """The message of the CommandError that parsing ``text`` raises."""
    with pytest.raises(CommandError) as e:
        parse(text)
    assert type(e.value) is CommandError
    return str(e.value)


class TestParse:
    def test_chord_with_plus(self):
        cmd = parse("Left + A")
        assert token_sets(cmd.steps) == (frozenset({T.LEFT, T.A}),)
        assert cmd.normalized == "Left + A"

    def test_sequence_with_commas(self):
        cmd = parse("Down, Forward, A")
        assert token_sets(cmd.steps) == (
            frozenset({T.DOWN}),
            frozenset({T.FORWARD}),
            frozenset({T.A}),
        )
        assert cmd.normalized == "Down, Forward, A"

    def test_case_and_whitespace_insensitive(self):
        cmd = parse("forward , forward ,c")
        assert cmd.normalized == "Forward, Forward, C"
        assert token_sets(cmd.steps) == (
            frozenset({T.FORWARD}),
            frozenset({T.FORWARD}),
            frozenset({T.C}),
        )

    def test_aliases_collapse(self):
        assert parse("Block").normalized == "C"
        assert parse("Jump").normalized == "Up"
        assert parse("Crouch + B").normalized == "Down + B"

    def test_conflicting_directions_rejected(self):
        for text in ("Left + Right", "Up + Down", "Forward + Back", "Left + Forward"):
            assert parse_error(text) == "conflicting directions in chord 0"
        assert parse_error("A, Back + Right") == "conflicting directions in chord 1"

    def test_empty_command_rejected(self):
        assert parse_error("") == "empty command"
        assert parse_error("   ") == "empty command"

    def test_unknown_token_reports_token(self):
        assert parse_error("Left + Punch") == "unknown token 'Punch' at position 2"
        assert parse_error("A, B + kick") == "unknown token 'kick' at position 3"

    def test_too_many_steps(self):
        assert parse_error("A, A, A, A, A, A") == "too many steps: 6 (max 5)"

    def test_too_many_tokens_in_chord(self):
        assert parse_error("Up + A + B + C") == "too many tokens in chord 0 (max 3)"

    def test_empty_chord_segment_rejected(self):
        with pytest.raises(CommandError):
            parse("A,,B")


class TestResolve:
    def test_forward_maps_by_facing(self):
        plan_r = resolve(parse("Forward"), Facing.RIGHT)
        plan_l = resolve(parse("Forward"), Facing.LEFT)
        assert plan_r == (chord(Button.RIGHT),) * HOLD_FRAMES
        assert plan_l == (chord(Button.LEFT),) * HOLD_FRAMES

    def test_back_maps_opposite(self):
        plan = resolve(parse("Back"), Facing.RIGHT)
        assert plan == (chord(Button.LEFT),) * HOLD_FRAMES

    def test_three_step_plan_is_13_frames(self):
        plan = resolve(parse("Down, Forward, A"), Facing.RIGHT)
        assert len(plan) == 13
        assert plan[0] == chord(Button.DOWN)
        assert plan[3] == EMPTY_CHORD
        assert plan[5] == chord(Button.RIGHT)
        assert plan[10] == chord(Button.A)

    def test_facing_antisymmetry_for_relative_commands(self):
        # commands without absolute Left/Right: flipping the facing swaps
        # Left and Right in every compiled chord
        for text in ("Forward", "Back + A", "Down, Forward, A", "Forward, Forward, C"):
            cmd = parse(text)
            swap = {Button.LEFT: Button.RIGHT, Button.RIGHT: Button.LEFT}
            plan_r = resolve(cmd, Facing.RIGHT)
            plan_l = resolve(cmd, Facing.LEFT)
            assert len(plan_r) == len(plan_l)
            for mr, ml in zip(plan_r, plan_l):
                assert chord(*(swap.get(b, b) for b in Button if mr & BIT[b])) == ml

    def test_plans_bounded(self):
        plan = resolve(parse("A, B, C, Up, Down"), Facing.RIGHT)
        assert 1 <= len(plan) <= MAX_PLAN_FRAMES


def _random_valid_command(rng: random.Random) -> str:
    # generator for the round-trip property; may produce alias tokens
    tokens = [t.value for t in CommandToken] + ["Block", "Jump", "Crouch"]
    steps = []
    for _ in range(rng.randint(1, 5)):
        tries = 0
        while True:
            tries += 1
            pick = rng.sample(tokens, rng.randint(1, 3))
            try:
                parse(" + ".join(pick))
                break
            except CommandError:
                if tries > 50:
                    pick = ["A"]
                    break
        steps.append(" + ".join(pick))
    text = ", ".join(steps)
    # randomize casing and spacing
    mangled = "".join(
        ch.upper() if rng.random() < 0.3 else ch.lower() for ch in text
    )
    return mangled.replace(", ", rng.choice([",", " , ", ", "]))


class TestRoundTrip:
    def test_ten_thousand_random_commands_round_trip(self):
        rng = random.Random(20240601)
        for _ in range(10_000):
            raw = _random_valid_command(rng)
            cmd = parse(raw)
            again = parse(cmd.normalized)
            assert again.steps == cmd.steps
            assert again.normalized == cmd.normalized

    @given(st.text(alphabet=string.printable, max_size=256))
    @settings(max_examples=500, deadline=None)
    def test_parse_is_total_over_arbitrary_text(self, text):
        try:
            cmd = parse(text)
            assert isinstance(cmd, Command)
        except CommandError:
            pass


class TestExtractCommand:
    def test_command_after_prose_sentence(self):
        cmd = extract_command("I will advance and strike. Left + A")
        assert cmd.normalized == "Left + A"

    def test_backticked_command(self):
        cmd = extract_command("`Down, Forward, A`")
        assert cmd.normalized == "Down, Forward, A"

    def test_last_line_wins(self):
        reply = "Thinking about Forward...\nBut actually:\nB"
        assert extract_command(reply).normalized == "B"

    def test_trailing_punctuation_stripped(self):
        assert extract_command("Forward, Forward, C!").normalized == "Forward, Forward, C"

    def test_quoted_command(self):
        assert extract_command('My move is "Block".').normalized == "C"

    def test_pure_prose_raises(self):
        with pytest.raises(NoCommandFoundError) as e:
            extract_command("I ponder the situation and wait for an opening.")
        assert str(e.value) == (
            "no command found in reply: 'I ponder the situation and wait for an opening.'"
        )

    def test_empty_reply_raises(self):
        with pytest.raises(NoCommandFoundError) as e:
            extract_command("")
        assert str(e.value) == "no command found in reply: ''"
