"""Chord- and token-mask tables: every mask against set functions.

The engine, the command compiler and the logs take chords as 8-bit masks
and token sets as 9-bit masks only. The set functions below define
normalize, mirror, encode, decode and both facing-relative translations
(tokens to chord for ``resolve``, chord to tokens for judging the
compiled move triggers) independently of the bit arithmetic, so the
tables are checked against a second definition rather than against
themselves.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

import pytest

from lmfa.agents.specs import AgentKind, AgentSpec, BotPolicy
from lmfa.config import MatchConfig, config_from_dict
from lmfa.engine.buttons import (
    BIT,
    EMPTY_CHORD,
    ENCODE,
    MIRROR,
    NORMALIZE,
    Button,
    chord,
    decode_chord,
    encode_chord,
)
from lmfa.engine.core import new_match, step
from lmfa.engine.state import trace_line
from lmfa.engine.moves import CHORDS, MOVE_TABLE, TRIGGERS, CommandToken
from lmfa.reporting import verify_replay
from lmfa.tourney.match import (
    chain_digest,
    initial_digest,
    log_from_dict,
    log_to_dict,
    run_match,
)

# -- set-form oracle ----------------------------------------------------------

Chord = FrozenSet[Button]
TokenSet = FrozenSet[CommandToken]

_CODE_ORDER = "UDLRABCS"
_BY_CODE = {b.value: b for b in Button}


def normalize_chord(c: Iterable[Button]) -> Chord:
    """Cancel conflicting direction pairs (horizontal and vertical axes)."""
    s = set(c)
    if Button.LEFT in s and Button.RIGHT in s:
        s.discard(Button.LEFT)
        s.discard(Button.RIGHT)
    if Button.UP in s and Button.DOWN in s:
        s.discard(Button.UP)
        s.discard(Button.DOWN)
    return frozenset(s)


def encode_chord_set(c: Chord) -> str:
    """Canonical compact string, fixed button order; empty chord is ''."""
    return "".join(code for code in _CODE_ORDER if _BY_CODE[code] in c)


def decode_chord_set(text: str) -> Chord:
    try:
        return frozenset(_BY_CODE[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"unknown button code in chord {text!r}") from exc


def mirror_chord(c: Chord) -> Chord:
    """Swap Left and Right; used by mirror-image runs."""
    out = set(c)
    if Button.LEFT in out or Button.RIGHT in out:
        has_left = Button.LEFT in out
        has_right = Button.RIGHT in out
        out.discard(Button.LEFT)
        out.discard(Button.RIGHT)
        if has_left:
            out.add(Button.RIGHT)
        if has_right:
            out.add(Button.LEFT)
    return frozenset(out)


_ABSOLUTE_TOKENS = {
    Button.UP: CommandToken.UP,
    Button.DOWN: CommandToken.DOWN,
    Button.A: CommandToken.A,
    Button.B: CommandToken.B,
    Button.C: CommandToken.C,
}


def chord_tokens(c: Chord, facing_sign: int) -> TokenSet:
    """Translate held buttons into facing-relative trigger tokens.

    Left/Right become Forward/Back depending on which way the fighter
    faces; all other buttons map one-to-one (Start has no token).
    """
    out = set()
    for b in c:
        tok = _ABSOLUTE_TOKENS.get(b)
        if tok is not None:
            out.add(tok)
        elif b is Button.RIGHT:
            out.add(CommandToken.FORWARD if facing_sign > 0 else CommandToken.BACK)
        elif b is Button.LEFT:
            out.add(CommandToken.BACK if facing_sign > 0 else CommandToken.FORWARD)
    return frozenset(out)


_ABSOLUTE_BUTTONS = {
    **{t: b for b, t in _ABSOLUTE_TOKENS.items()},
    CommandToken.LEFT: Button.LEFT,
    CommandToken.RIGHT: Button.RIGHT,
}


def token_buttons(tokens: TokenSet, facing_sign: int) -> Chord:
    """Buttons a set of command tokens presses: Forward is Right for a
    fighter facing right and Left for one facing left, Back the opposite."""
    out = set()
    for tok in tokens:
        if tok is CommandToken.FORWARD:
            tok = CommandToken.RIGHT if facing_sign > 0 else CommandToken.LEFT
        elif tok is CommandToken.BACK:
            tok = CommandToken.LEFT if facing_sign > 0 else CommandToken.RIGHT
        out.add(_ABSOLUTE_BUTTONS[tok])
    return frozenset(out)


def token_mask(tokens: Iterable[CommandToken]) -> int:
    """Token mask of a set of tokens: bit i stands for the i-th CommandToken."""
    held = set(tokens)
    return sum(1 << i for i, tok in enumerate(CommandToken) if tok in held)


def token_sets(steps: Iterable[int]) -> tuple:
    """Each token mask of ``steps`` as the set of tokens it holds."""
    return tuple(TOKEN_SET_OF[mask] for mask in steps)


# CHORD_OF[mask] is the set of buttons a mask holds
CHORD_OF = tuple(frozenset(b for b in Button if mask & BIT[b]) for mask in range(256))
# TOKEN_SET_OF[mask] is the set of tokens a token mask holds
TOKEN_SET_OF = tuple(
    frozenset(t for i, t in enumerate(CommandToken) if mask >> i & 1) for mask in range(512)
)


# -- tests --------------------------------------------------------------------


def test_mask_of_round_trips():
    assert EMPTY_CHORD == 0 and chord() == EMPTY_CHORD
    assert sorted(BIT.values()) == [1 << i for i in range(8)]
    assert len(set(CHORD_OF)) == 256
    for mask in range(256):
        assert chord(*CHORD_OF[mask]) == mask
        # repeated buttons change nothing
        assert chord(*CHORD_OF[mask], *CHORD_OF[mask]) == mask


def test_tables_agree_with_set_functions():
    for mask in range(256):
        c = CHORD_OF[mask]
        assert CHORD_OF[NORMALIZE[mask]] == normalize_chord(c)
        assert CHORD_OF[MIRROR[mask]] == mirror_chord(c)
        assert ENCODE[mask] == encode_chord(mask) == encode_chord_set(c)
        assert decode_chord(ENCODE[mask]) == mask
        assert decode_chord_set(ENCODE[mask]) == c


def test_compiled_triggers_agree_with_chord_tokens():
    for facing_sign in (1, -1):
        assert [move for move, _ in TRIGGERS[facing_sign]] == list(MOVE_TABLE)
        for move, steps in TRIGGERS[facing_sign]:
            assert len(steps) == len(move.trigger)
            for step, tokens in zip(steps, move.trigger):
                wanted = TOKEN_SET_OF[tokens]
                for mask in range(256):
                    read = chord_tokens(CHORD_OF[mask], facing_sign)
                    # the matcher's two tests: all of the step held, some of it pressed
                    assert (mask & step == step) == (wanted <= read), (move.id, mask)
                    assert bool(mask & step) == bool(wanted & read), (move.id, mask)


def test_chord_table_agrees_with_token_buttons():
    assert len(set(TOKEN_SET_OF)) == 512
    for facing_sign in (1, -1):
        assert len(CHORDS[facing_sign]) == 512
        for tokens in range(512):
            assert token_mask(TOKEN_SET_OF[tokens]) == tokens
            expected = token_buttons(TOKEN_SET_OF[tokens], facing_sign)
            assert CHORD_OF[CHORDS[facing_sign][tokens]] == expected


def test_non_canonical_chord_strings_are_refused():
    log = run_match(
        AgentSpec(id="r", kind=AgentKind.SCRIPTED, policy=BotPolicy.RANDOM, seed=3),
        AgentSpec(id="i", kind=AgentKind.SCRIPTED, policy=BotPolicy.IDLE),
        MatchConfig(seed=4, match_length_frames=400),
    )
    data = log_to_dict(log)
    assert any(len(enc) >= 2 for row in data["input_trace"] for enc in row)

    # "DA" -> "ADD", "A" -> "AA": same buttons, spelled out of order and twice;
    # the chain is recomputed over the respelled text, so only the spelling is off
    trace = [[enc[::-1] + enc[:1] for enc in row] for row in data["input_trace"]]
    config = config_from_dict(data["config"])
    state = new_match(config)
    digests = [initial_digest(config, state)]
    for (enc1, enc2), respelled in zip(data["input_trace"], trace):
        assert decode_chord_set(respelled[0]) == CHORD_OF[decode_chord(enc1)]
        state = step(state, decode_chord(enc1), decode_chord(enc2))
        digests.append(chain_digest(digests[-1], *respelled, trace_line(state)))
    first = next(i for i, row in enumerate(trace) if row != data["input_trace"][i])
    for text in ("AA", "AD", "X"):  # repeated, out of order, unknown
        with pytest.raises(ValueError):
            decode_chord(text)
    data = {**data, "input_trace": trace, "state_digests": digests}

    verdict = verify_replay(log_from_dict(data))
    assert not verdict.ok and verdict.kind == "state_divergence"
    assert verdict.first_divergent_frame == first + 1
    assert verdict.detail == f"invalid chord encoding at frame {first}"
