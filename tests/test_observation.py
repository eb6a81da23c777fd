"""Observation pipeline: rendering, windows, encoding, state text."""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from lmfa.config import MatchConfig
from lmfa.engine.buttons import Button
from lmfa.engine.core import jump_height, mirror, new_match, step
from lmfa.engine.state import Player
from lmfa.observe.describe import (
    decode_frame_base64,
    describe_state,
    encode_frame_base64,
    encode_payload_base64,
    parse_state_text,
)
from lmfa.observe.raster import (
    AnnotationError,
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
    ppm_bytes,
    render,
)
from lmfa.observe.window import FrameHistory, sample_window_encoded, window_indices


def random_state(seed: int):
    rng = random.Random(seed)
    s = new_match(MatchConfig())
    for _ in range(rng.randint(0, 120)):
        if s.round_over is not None:
            break
        c1 = frozenset(rng.sample(list(Button), rng.randint(0, 2)))
        c2 = frozenset(rng.sample(list(Button), rng.randint(0, 2)))
        s = step(s, c1, c2)
    return s


class TestRender:
    def test_pure_function_of_state(self):
        s = random_state(11)
        assert render(s).pixels == render(s).pixels

    def test_canvas_dimensions(self):
        img = render(new_match(MatchConfig()))
        assert (img.width, img.height) == (320, 224)
        assert len(img.pixels) == 320 * 224 * 3

    def test_health_bar_fill_is_exact(self):
        s = new_match(MatchConfig())
        s = dataclasses.replace(s, p1=dataclasses.replace(s.p1, health=500))
        arr = render(s).to_array()
        fill_color = arr[BAR_TOP, BAR_MARGIN]
        row = arr[BAR_TOP, BAR_MARGIN : BAR_MARGIN + BAR_WIDTH]
        filled = int(np.all(row == fill_color, axis=1).sum())
        assert filled == BAR_WIDTH // 2

    def test_mirror_state_renders_flipped_scene(self):
        """Flip-compare harness: equality outside the timer digit block."""
        x0, y0, x1, y1 = TIMER_RECT
        for seed in range(8):
            s = random_state(100 + seed)
            ours = render(mirror(s)).to_array()
            flipped = np.flip(render(s).to_array(), axis=1)
            mask = np.ones((HEIGHT, WIDTH), dtype=bool)
            mask[y0:y1, x0:x1] = False
            mask[y0:y1, WIDTH - x1 : WIDTH - x0] = False
            assert np.array_equal(ours[mask], flipped[mask]), f"seed {seed}"


class TestAnnotate:
    def test_marker_centered_over_fighter(self):
        s = new_match(MatchConfig())
        img = annotate(render(s), s)
        assert img.annotated
        for fs in (s.p1, s.p2):
            x0, _, x1, _ = marker_rect(fs, s.arena_width)
            marker_cx = (x0 + x1) // 2
            assert abs(marker_cx - fighter_center_px(fs.x, s.arena_width)) <= 2

    def test_double_annotation_rejected(self):
        s = new_match(MatchConfig())
        img = annotate(render(s), s)
        with pytest.raises(AnnotationError):
            annotate(img, s)

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
        assert annotate(render(s), s).pixels != render(s).pixels


class TestWindow:
    def test_window_at_frame_100(self):
        assert window_indices(100) == (64, 68, 72, 76, 80, 84, 88, 92, 96, 100)

    def test_window_clips_at_round_start(self):
        assert window_indices(8) == (0, 4, 8)

    def test_window_boundary_exactly_ten(self):
        assert window_indices(36) == (0, 4, 8, 12, 16, 20, 24, 28, 32, 36)

    def test_sample_window_returns_stored_frames(self):
        s = new_match(MatchConfig())
        hist = FrameHistory()
        for f in range(0, 101, 4):
            img = render(dataclasses.replace(s, frame=f))
            hist.append(f, encode_frame_base64(img))
        frames = sample_window_encoded(hist, 100)
        assert len(frames) == 10

    def test_sample_window_missing_frame_raises(self):
        hist = FrameHistory()
        with pytest.raises(LookupError):
            sample_window_encoded(hist, 40)

    def test_history_capacity_bounded(self):
        hist = FrameHistory(capacity=64)
        for f in range(0, 400, 4):
            hist.append(f, "")
        assert len(hist) == 64


class TestEncoding:
    def test_empty_payload(self):
        assert encode_payload_base64(b"") == ""

    def test_three_zero_bytes(self):
        assert encode_payload_base64(b"\x00\x00\x00") == "AAAA"

    def test_round_trip_exact(self):
        s = random_state(5)
        img = render(s)
        assert decode_frame_base64(encode_frame_base64(img)) == ppm_bytes(img)

    def test_no_line_wrapping(self):
        s = random_state(6)
        assert "\n" not in encode_frame_base64(render(s))

    def test_ppm_header(self):
        img = render(new_match(MatchConfig()))
        assert ppm_bytes(img).startswith(b"P6\n320 224\n255\n")


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
