"""Observation pipeline: rendering, windows, encoding, state text."""

from __future__ import annotations

import base64
import dataclasses
import random
import re
import sys
import threading
from typing import Tuple

import pytest

import raster_oracle
from lmfa.agents.specs import AgentKind, AgentSpec, BotPolicy
from lmfa.config import MatchConfig
from lmfa.engine.buttons import Button, chord, decode_chord
from lmfa.engine.core import jump_height, mirror, new_match, step
from lmfa.engine.state import EndReason, Jumping, KnockedDown, Player
from lmfa.observe.describe import (
    ACTION_SLOTS,
    PPM_HEADER,
    ObservationFeatures,
    describe_state,
    encode_frame_base64,
    sample_window_encoded,
    window_indices,
)
from lmfa.observe import describe, raster
from lmfa.observe.raster import (
    BAR_BOTTOM,
    BAR_MARGIN,
    BAR_TOP,
    BAR_WIDTH,
    HEIGHT,
    TIMER_RECT,
    WIDTH,
    annotate,
    fighter_center_px,
    marker_rect,
    render,
)
from lmfa.tourney.match import run_match


def encode_payload_base64(payload: bytes) -> str:
    """Standard base64, no line wrapping."""
    return base64.b64encode(payload).decode("ascii")


def decode_frame_base64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"), validate=True)


def as_pixels(rows) -> list:
    """A frame's rows as lists of 3-byte pixels."""
    return [[row[x : x + 3] for x in range(0, WIDTH * 3, 3)] for row in rows]


_LINE_RE = {
    "timer": re.compile(r"^TIMER: (\d+) seconds$"),
    "you": re.compile(
        r"^YOU: health (\d\.\d{3}), position \((-?\d+),(-?\d+)\), facing (left|right)$"
    ),
    "opp": re.compile(
        r"^OPPONENT: health (\d\.\d{3}), position \((-?\d+),(-?\d+)\), facing (left|right)$"
    ),
    "yours": re.compile(r"^YOUR LAST 5 ACTIONS: (.*)$"),
    "opps": re.compile(r"^OPPONENT LAST 5 ACTIONS: (.*)$"),
}


class StateTextError(ValueError):
    pass


def _parse_actions(text: str) -> Tuple[str, ...]:
    slots = text.split("; ")
    if len(slots) != ACTION_SLOTS:
        raise StateTextError(f"expected {ACTION_SLOTS} action slots: {text!r}")
    return tuple(s for s in slots if s != "-")


def parse_state_text(text: str) -> ObservationFeatures:
    """Inverse of build_state_text: the oracle of the round-trip tests."""
    lines = text.split("\n")
    if len(lines) != 5:
        raise StateTextError("state text must have exactly 5 lines")
    m_timer = _LINE_RE["timer"].match(lines[0])
    m_you = _LINE_RE["you"].match(lines[1])
    m_opp = _LINE_RE["opp"].match(lines[2])
    m_yours = _LINE_RE["yours"].match(lines[3])
    m_opps = _LINE_RE["opps"].match(lines[4])
    if not all((m_timer, m_you, m_opp, m_yours, m_opps)):
        raise StateTextError("state text does not match template v1")
    return ObservationFeatures(
        timer_seconds=int(m_timer.group(1)),
        self_health_fraction=float(m_you.group(1)),
        opponent_health_fraction=float(m_opp.group(1)),
        self_position=(int(m_you.group(2)), int(m_you.group(3))),
        opponent_position=(int(m_opp.group(2)), int(m_opp.group(3))),
        self_facing=m_you.group(4),
        opponent_facing=m_opp.group(4),
        self_last_actions=_parse_actions(m_yours.group(1)),
        opponent_last_actions=_parse_actions(m_opps.group(1)),
    )


def random_state(seed: int):
    rng = random.Random(seed)
    s = new_match(MatchConfig())
    for _ in range(rng.randint(0, 120)):
        if s.round_over is not None:
            break
        c1 = chord(*rng.sample(list(Button), rng.randint(0, 2)))
        c2 = chord(*rng.sample(list(Button), rng.randint(0, 2)))
        s = step(s, c1, c2)
    return s


class TestRender:
    def test_pure_function_of_state(self):
        s = random_state(11)
        assert render(s) == render(s)

    def test_canvas_dimensions(self):
        assert (WIDTH, HEIGHT) == (320, 224)
        rows = render(new_match(MatchConfig()))
        assert len(rows) == HEIGHT
        assert {len(row) for row in rows} == {WIDTH * 3}

    def test_health_bar_fill_is_exact(self):
        s = new_match(MatchConfig())
        s = dataclasses.replace(s, p1=dataclasses.replace(s.p1, health=500))
        bar = as_pixels(render(s))[BAR_TOP][BAR_MARGIN : BAR_MARGIN + BAR_WIDTH]
        filled = sum(pixel == bar[0] for pixel in bar)
        assert filled == BAR_WIDTH // 2

    def test_mirror_state_renders_flipped_scene(self):
        """Flip-compare harness: equality outside the timer digit block."""
        x0, y0, x1, y1 = TIMER_RECT
        for seed in range(8):
            s = random_state(100 + seed)
            ours = as_pixels(render(mirror(s)))
            flipped = [row[::-1] for row in as_pixels(render(s))]
            for y in range(y0, y1):
                for x in (*range(x0, x1), *range(WIDTH - x1, WIDTH - x0)):
                    ours[y][x] = flipped[y][x] = None
            assert ours == flipped, f"seed {seed}"


class TestAnnotate:
    def test_marker_centered_over_fighter(self):
        s = new_match(MatchConfig())
        for fs in (s.p1, s.p2):
            x0, _, x1, _ = marker_rect(fs, s.arena_width)
            marker_cx = (x0 + x1) // 2
            assert abs(marker_cx - fighter_center_px(fs.x, s.arena_width)) <= 2

    def test_markers_clear_health_bars_across_position_sweep(self):
        """Sweep a coarse grid of legal fighter positions.

        Marker boxes must stay strictly below the HUD health-bar rows for
        every grounded or airborne position.
        """
        s0 = new_match(MatchConfig())
        heights = sorted({jump_height(t) for t in range(0, 36, 4)})
        for x in range(0, 401, 25):
            for y in heights:
                p1 = dataclasses.replace(s0.p1, x=x, y=y)
                _, my0, _, _ = marker_rect(p1, s0.arena_width)
                assert my0 >= BAR_BOTTOM, f"marker overlaps bars at x={x} y={y}"

    def test_annotation_actually_draws(self):
        s = new_match(MatchConfig())
        assert annotate(render(s), s) != render(s)


def draw_glyph_by_bits(rows, glyph, x, y, scale, color):
    """Reference: one scale x scale block per lit bit of the font."""
    for gy, row in enumerate(raster._FONT3X5[glyph]):
        for gx, bit in enumerate(row):
            if bit == "1":
                top, left = y + gy * scale, x + gx * scale
                for r in rows[top : top + scale]:
                    r[3 * left : 3 * (left + scale)] = bytes(color) * scale


@pytest.mark.parametrize("scale", [1, 2, 4])
def test_glyph_mask_paints_the_font_bits(scale):
    """The glyph's runs paint exactly its font bits."""
    for glyph in raster._FONT3X5:
        want = [bytearray(20 * 3) for _ in range(30)]
        draw_glyph_by_bits(want, glyph, 3, 5, scale, (250, 1, 7))
        got = [bytes(20 * 3)] * 30
        raster._draw_glyph(got, glyph, 3, 5, scale, (250, 1, 7))
        assert got == want, glyph


class TestWindow:
    def test_window_at_frame_100(self):
        assert window_indices(100) == (64, 68, 72, 76, 80, 84, 88, 92, 96, 100)

    def test_window_clips_at_round_start(self):
        assert window_indices(8) == (0, 4, 8)

    def test_window_boundary_exactly_ten(self):
        assert window_indices(36) == (0, 4, 8, 12, 16, 20, 24, 28, 32, 36)

    def test_sample_window_returns_stored_frames(self):
        s = new_match(MatchConfig())
        rendered = {
            f: encode_frame_base64(render(dataclasses.replace(s, frame=f)))
            for f in range(0, 101, 4)
        }
        frames = sample_window_encoded(rendered, 100)
        assert frames == [rendered[f] for f in range(64, 101, 4)]

    def test_sampled_frame_shares_its_row_pieces(self):
        s = new_match(MatchConfig())
        encoded = {
            f: encode_frame_base64(render(dataclasses.replace(s, frame=f)))
            for f in range(0, 37, 4)
        }
        frames = sample_window_encoded(encoded, 36)
        for f, frame in zip(range(0, 37, 4), frames):
            assert frame is encoded[f]
            assert frame.pieces is encoded[f].pieces
        # identical adjacent rows still share one piece
        assert frames[0].pieces[1] is frames[0].pieces[2]

    def test_sample_window_missing_frame_raises(self):
        with pytest.raises(LookupError):
            sample_window_encoded({}, 40)
        # one frame short of the window
        with pytest.raises(LookupError):
            sample_window_encoded({f: "" for f in range(8, 41, 4)}, 40)

    def test_sample_window_ignores_frames_outside_it(self):
        rendered = {f: str(f) for f in range(0, 400, 2)}
        assert sample_window_encoded(rendered, 398) == [str(f) for f in range(362, 399, 4)]


class TestEncoding:
    def test_empty_payload(self):
        assert encode_payload_base64(b"") == ""

    def test_three_zero_bytes(self):
        assert encode_payload_base64(b"\x00\x00\x00") == "AAAA"

    def test_round_trip_exact(self):
        s = random_state(5)
        rows = render(s)
        assert decode_frame_base64(str(encode_frame_base64(rows))) == PPM_HEADER + b"".join(rows)

    def test_no_line_wrapping(self):
        s = random_state(6)
        assert "\n" not in str(encode_frame_base64(render(s)))

    def test_len_is_the_text_length(self):
        s = random_state(7)
        frame = encode_frame_base64(annotate(render(s), s))
        assert len(frame) == len(str(frame)) == 286_740
        assert len(frame.prefixed("ab")) == len(str(frame.prefixed("ab"))) == 286_742

    def test_ppm_header(self):
        assert PPM_HEADER == b"P6\n320 224\n255\n"


@pytest.fixture(scope="module")
def played_states():
    """Every state of a 555-frame scripted match with jumps, knockdowns and
    projectiles, ending in a knockout."""
    rand = AgentSpec(id="rand", kind=AgentKind.SCRIPTED, policy=BotPolicy.RANDOM, seed=1)
    zone = AgentSpec(id="zone", kind=AgentKind.SCRIPTED, policy=BotPolicy.ZONER, seed=6)
    log = run_match(rand, zone, MatchConfig(seed=1))
    state = new_match(log.config)
    states = [state]
    for enc1, enc2 in log.input_trace:
        state = step(state, decode_chord(enc1), decode_chord(enc2))
        states.append(state)
    return states


class TestRowRunEncoding:
    """encode_frame_base64 encodes each distinct row once, and equal rows
    anywhere in a frame share one piece; base64 of the whole PPM buffer is
    the reference it must equal."""

    @staticmethod
    def assert_matches_reference(rows):
        expected = base64.b64encode(PPM_HEADER + b"".join(rows))
        encoded = encode_frame_base64(rows)
        assert bytes(str(encoded), "ascii") == expected
        assert b"".join(encoded.pieces) == expected
        return encoded

    def test_played_match_frames(self, played_states):
        fighters = [f for s in played_states for f in (s.p1, s.p2)]
        assert any(isinstance(f.phase, Jumping) for f in fighters)
        assert any(isinstance(f.phase, KnockedDown) for f in fighters)
        assert any(s.projectiles for s in played_states)
        assert played_states[-1].round_over.end_reason is EndReason.KNOCKOUT
        for s in played_states:
            encoded = self.assert_matches_reference(annotate(render(s), s))
            assert len(encoded.pieces) == 1 + HEIGHT

    def test_random_pixels_no_repeated_rows(self):
        pixels = random.Random(3).randbytes(WIDTH * HEIGHT * 3)
        row = WIDTH * 3
        rows = tuple(pixels[i : i + row] for i in range(0, len(pixels), row))
        assert len(set(rows)) == HEIGHT
        encoded = self.assert_matches_reference(rows)
        assert len({id(p) for p in encoded.pieces}) == 1 + HEIGHT

    def test_uniform_image_shares_one_row_piece(self):
        img = bytes((7, 8, 9)) * (WIDTH * HEIGHT)
        row = WIDTH * 3
        rows = tuple(img[i : i + row] for i in range(0, len(img), row))
        assert len({id(r) for r in rows}) == HEIGHT  # equal rows, not shared
        encoded = self.assert_matches_reference(rows)
        assert len(encoded.pieces) == 1 + HEIGHT
        assert len({id(p) for p in encoded.pieces[1:]}) == 1

    def test_equal_rows_apart_share_one_piece(self):
        pixels = random.Random(5).randbytes(WIDTH * HEIGHT * 3)
        row = WIDTH * 3
        rows = [pixels[i : i + row] for i in range(0, len(pixels), row)]
        rows[HEIGHT - 1] = bytes(bytearray(rows[0]))  # equal, another object
        assert rows[HEIGHT - 1] is not rows[0]
        encoded = self.assert_matches_reference(tuple(rows))
        assert encoded.pieces[1] is encoded.pieces[HEIGHT]
        assert len({id(p) for p in encoded.pieces}) == HEIGHT

    def test_threads_encode_what_one_thread_would(self, played_states):
        """Four threads, switching often, render, annotate and encode their
        own share of the states while they fill the shared caches."""
        raster._hud_band.cache_clear()
        describe._row_base64.cache_clear()
        start = threading.Barrier(4)
        results = {}

        def work(k):
            start.wait(timeout=30)
            results[k] = [encode_frame_base64(annotate(render(s), s)) for s in played_states[k::4]]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == [0, 1, 2, 3]
        for k, encoded in results.items():
            for s, text in zip(played_states[k::4], encoded):
                pixels = raster_oracle.annotate(raster_oracle.render(s), s)
                assert b"".join(text.pieces) == base64.b64encode(PPM_HEADER + pixels)


class TestDescribeState:
    def test_initial_state_text(self):
        s = new_match(MatchConfig())
        obs = describe_state(s, Player.P1)
        assert "YOU: health 1.000" in obs.state_text
        assert "OPPONENT: health 1.000" in obs.state_text
        assert obs.state_text.startswith("TIMER: 99 seconds")

    def test_round_trip_parse_recovers_features(self):
        for seed in range(12):
            s = random_state(200 + seed)
            last_actions = (("Left + A",), ("Forward, Forward, C",))
            for player in (Player.P1, Player.P2):
                obs = describe_state(s, player, last_actions=last_actions)
                assert parse_state_text(obs.state_text) == obs.features

    def test_perspectives_swap_roles_exactly(self):
        s = random_state(33)
        last_actions = (("A",), ())
        a = describe_state(s, Player.P1, last_actions=last_actions).features
        b = describe_state(s, Player.P2, last_actions=last_actions).features
        assert a.self_health_fraction == b.opponent_health_fraction
        assert a.opponent_health_fraction == b.self_health_fraction
        assert a.self_position == b.opponent_position
        assert a.opponent_position == b.self_position
        assert a.self_facing == b.opponent_facing
        assert a.self_last_actions == b.opponent_last_actions
        assert a.opponent_last_actions == b.self_last_actions
        assert a.timer_seconds == b.timer_seconds

    def test_ring_buffer_shows_last_five(self):
        s = new_match(MatchConfig())
        history = tuple(f"c{i}" for i in range(1, 7))
        obs = describe_state(s, Player.P1, last_actions=(history, ()))
        assert obs.features.self_last_actions == ("c2", "c3", "c4", "c5", "c6")
        assert "YOUR LAST 5 ACTIONS: c2; c3; c4; c5; c6" in obs.state_text

    def test_mirror_coherence(self):
        """Describing the mirrored state for P2 reflects P1's description."""
        s = random_state(77)
        w = s.arena_width
        a = describe_state(s, Player.P1).features
        b = describe_state(mirror(s), Player.P2).features
        assert b.self_health_fraction == a.self_health_fraction
        assert b.self_position == (w - a.self_position[0], a.self_position[1])
        assert b.opponent_position == (w - a.opponent_position[0], a.opponent_position[1])
        assert b.self_facing == {"left": "right", "right": "left"}[a.self_facing]

    def test_facing_words(self):
        s = new_match(MatchConfig())
        obs = describe_state(s, Player.P1)
        assert obs.features.self_facing == "right"
        assert obs.features.opponent_facing == "left"

    def test_text_numbers_match_features(self):
        s = random_state(41)
        obs = describe_state(s, Player.P1)
        parsed = parse_state_text(obs.state_text)
        assert parsed.self_health_fraction == obs.features.self_health_fraction
        assert parsed.self_position == obs.features.self_position
        assert parsed.timer_seconds == obs.features.timer_seconds
