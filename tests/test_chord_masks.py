"""Chord-mask tables: every one of the 256 masks against the set functions."""

from __future__ import annotations

from lmfa.agents import AgentKind, AgentSpec, BotPolicy
from lmfa.config import MatchConfig, config_from_dict
from lmfa.engine import (
    decode_chord,
    encode_chord,
    mirror_chord,
    new_match,
    normalize_chord,
    step,
    trace_line,
)
from lmfa.engine.buttons import CHORD_OF, ENCODE, MASK_OF, MIRROR, NORMALIZE
from lmfa.engine.moves import TOKENS, chord_tokens, token_mask
from lmfa.reporting import verify_replay
from lmfa.tourney import chain_digest, initial_digest, log_to_dict, run_match


def test_mask_of_round_trips():
    assert len(MASK_OF) == 256
    for mask in range(256):
        assert MASK_OF[CHORD_OF[mask]] == mask
        # a fresh, equal frozenset finds the same mask
        assert MASK_OF[frozenset(CHORD_OF[mask])] == mask


def test_tables_agree_with_set_functions():
    for mask in range(256):
        c = CHORD_OF[mask]
        assert CHORD_OF[NORMALIZE[mask]] == normalize_chord(c)
        assert CHORD_OF[MIRROR[mask]] == mirror_chord(c)
        assert ENCODE[mask] == encode_chord(c)
        assert decode_chord(ENCODE[mask]) == c


def test_token_table_agrees_with_chord_tokens():
    for facing_sign in (1, -1):
        for mask in range(256):
            expected = token_mask(chord_tokens(CHORD_OF[mask], facing_sign))
            assert TOKENS[facing_sign][mask] == expected


def test_non_canonical_chord_strings_still_replay():
    log = run_match(
        AgentSpec(id="r", kind=AgentKind.SCRIPTED, bot_policy=BotPolicy.RANDOM, seed=3),
        AgentSpec(id="i", kind=AgentKind.SCRIPTED, bot_policy=BotPolicy.IDLE),
        MatchConfig(seed=4, match_length_frames=400),
    )
    data = log_to_dict(log)
    assert any(len(enc) >= 2 for row in data["input_trace"] for enc in row)

    # "DA" -> "ADD", "A" -> "AA": same buttons, spelled out of order and twice
    trace = [[enc[::-1] + enc[:1] for enc in row] for row in data["input_trace"]]
    config = config_from_dict(data["config"])
    state = new_match(config, data["seed"])
    digests = [initial_digest(config, data["seed"], state)]
    for enc1, enc2 in trace:
        state = step(state, decode_chord(enc1), decode_chord(enc2))
        digests.append(chain_digest(digests[-1], enc1, enc2, trace_line(state)))
    data = {**data, "input_trace": trace, "state_digests": digests}

    verdict = verify_replay(data)
    assert verdict.ok and verdict.kind == "match"
