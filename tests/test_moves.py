"""Move table integrity and trigger-matcher correctness."""

from __future__ import annotations

import itertools
import json
from importlib import resources

from lmfa.config import MatchConfig
from lmfa.engine.buttons import Button, EMPTY_CHORD, chord
from lmfa.engine.core import new_match, step
from lmfa.engine.moves import GAP_WINDOW_FRAMES, MOVE_TABLE, MOVES_BY_ID
from lmfa.engine.state import MoveActive


def test_table_constants_match_documented_standins():
    assert MOVES_BY_ID["punch"].damage == 60
    assert MOVES_BY_ID["punch"].reach == 40
    assert MOVES_BY_ID["kick"].damage == 80
    assert MOVES_BY_ID["kick"].reach == 55
    assert MOVES_BY_ID["uppercut"].damage == 120
    assert MOVES_BY_ID["crouch_kick"].damage == 50
    assert MOVES_BY_ID["fireball"].damage == 90
    assert MOVES_BY_ID["fireball"].projectile_speed == 8
    assert MOVES_BY_ID["flying_kick"].damage == 150
    fk = MOVES_BY_ID["flying_kick"]
    assert fk.advance_per_active_frame * fk.active == 120
    assert GAP_WINDOW_FRAMES == 20


def test_table_frame_data_invariants():
    for move in MOVE_TABLE:
        assert move.startup >= 1
        assert move.active >= 1
        assert move.recovery >= 0
        assert move.damage >= 0
        assert 1 <= len(move.trigger) <= 3


def test_shipped_data_file_is_the_single_source():
    data = json.loads(
        resources.files("lmfa.engine").joinpath("move_table.json").read_text()
    )
    assert data["schema"] == "lmfa-moves/1"
    assert [m["id"] for m in data["moves"]] == [m.id for m in MOVE_TABLE]


class TestFlyingKickBruteForce:
    """Enumerate every chord sequence of length <= 5 over {Right, C, neutral}.

    An independent predicate decides whether the sequence contains the
    forward-forward-C pattern under fresh-press semantics and the gap
    window; the engine must fire the kick for exactly those sequences.
    """

    ALPHABET = ("", "R", "C")

    @staticmethod
    def pattern_present(seq) -> bool:
        # fresh-press frames for each key
        def edges(key):
            return [
                i
                for i, keys in enumerate(seq)
                if key in keys and (i == 0 or key not in seq[i - 1])
            ]

        rights = edges("R")
        cs = edges("C")
        for k in cs:
            earlier = [r for r in rights if r < k]
            for i, r1 in enumerate(earlier):
                for r2 in earlier[i + 1 :]:
                    if r2 - r1 <= GAP_WINDOW_FRAMES and k - r2 <= GAP_WINDOW_FRAMES:
                        return True
        return False

    @staticmethod
    def engine_fires(seq) -> bool:
        cfg = MatchConfig(arena_width=2000, start_offset=900)
        s = new_match(cfg, seed=0)  # fighters 1800 units apart: nothing connects
        per = {"": EMPTY_CHORD, "R": chord(Button.RIGHT), "C": chord(Button.C)}
        for keys in seq:
            s = step(s, per[keys], EMPTY_CHORD)
            phase = s.p1.phase
            if isinstance(phase, MoveActive) and phase.move_id == "flying_kick":
                return True
        return False

    def test_exact_recognition_over_all_short_sequences(self):
        fired, silent = 0, 0
        for length in range(1, 6):
            for seq in itertools.product(self.ALPHABET, repeat=length):
                expect = self.pattern_present(seq)
                got = self.engine_fires(seq)
                assert got == expect, f"sequence {seq}: engine={got} oracle={expect}"
                fired += got
                silent += not got
        assert fired > 0 and silent > 0
