"""Mirror symmetry: reflection is an involution and commutes with stepping."""

from __future__ import annotations

import random

from lmfa.config import MatchConfig
from lmfa.engine.buttons import Button, EMPTY_CHORD, chord, mirror_chord
from lmfa.engine.core import mirror, new_match, step
from lmfa.engine.state import trace_line


def random_chord(rng: random.Random) -> frozenset:
    n = rng.randint(0, 3)
    return frozenset(rng.sample(list(Button), n))


def test_mirror_is_involution_on_initial_state():
    s = new_match(MatchConfig())
    assert mirror(mirror(s)) == s


def test_initial_state_is_its_own_mirror():
    s = new_match(MatchConfig())
    assert mirror(s) == s


def test_mirror_is_involution_mid_match():
    rng = random.Random(99)
    s = new_match(MatchConfig(match_length_frames=600))
    for _ in range(200):
        if s.round_over is not None:
            break
        s = step(s, random_chord(rng), random_chord(rng))
        assert mirror(mirror(s)) == s


def test_mirrored_input_scripts_produce_mirrored_traces():
    """Step commutes with mirroring for arbitrary input scripts.

    The mirrored run swaps the players' inputs and flips Left/Right; every
    resulting state must be the exact reflection of the original run's
    state, including simultaneous-hit frames and outcomes.
    """
    for script_seed in range(40):
        rng = random.Random(1000 + script_seed)
        cfg = MatchConfig(match_length_frames=300)
        orig = new_match(cfg)
        refl = mirror(orig)
        for _ in range(300):
            if orig.round_over is not None:
                break
            c1, c2 = random_chord(rng), random_chord(rng)
            orig = step(orig, c1, c2)
            refl = step(refl, mirror_chord(c2), mirror_chord(c1))
            assert refl == mirror(orig), (
                f"divergence at frame {orig.frame} (script {script_seed}):\n"
                f"  mirrored run: {trace_line(refl)}\n"
                f"  expected:     {trace_line(mirror(orig))}"
            )
        assert refl.round_over == mirror(orig).round_over


def test_simultaneous_trade_mirrors_exactly():
    """Same-frame mutual hits must stay order-free under reflection."""
    import dataclasses

    cfg = MatchConfig(match_length_frames=600)
    s = new_match(cfg)
    s = dataclasses.replace(
        s,
        p1=dataclasses.replace(s.p1, x=185, health=60),
        p2=dataclasses.replace(s.p2, x=215, health=60),
    )
    m = mirror(s)
    punch = chord(Button.A)
    for _ in range(6):
        s = step(s, punch, punch)
        m = step(m, mirror_chord(punch), mirror_chord(punch))
        punch = frozenset()
        assert m == mirror(s)
        if s.round_over is not None:
            break
    assert s.round_over is not None
    assert s.round_over.winner.value == "Draw"  # double KO
    assert m.round_over == s.round_over


def test_mirror_swaps_knockout_winner():
    cfg = MatchConfig(match_length_frames=600)
    s = new_match(cfg)
    m = mirror(s)
    # p1 walks in and punches out a passive p2; mirrored run must end P2-win.
    while s.round_over is None:
        dist = abs(s.p1.x - s.p2.x)
        c = chord(Button.A) if dist <= 40 and s.p1.actionable else chord(Button.RIGHT)
        s = step(s, c, EMPTY_CHORD)
        m = step(m, EMPTY_CHORD, mirror_chord(c))
    assert s.round_over.winner.value == "P1"
    assert m.round_over.winner.value == "P2"
    assert m.round_over.winner_health_fraction == s.round_over.winner_health_fraction
