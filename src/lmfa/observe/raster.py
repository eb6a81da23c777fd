"""Flat-color deterministic rasterizer for 320x224 RGB frames.

A frame is the row-major RGB ``bytes`` that ``render`` and ``annotate``
return. Rendering is a pure function of the game state: identical states
yield identical bytes. Horizontal geometry is computed by exact rational
overlap between game-space intervals and pixel columns, which makes the
scene pixel-exact under mirroring (render(mirror(s)) equals the
horizontally flipped render(s) everywhere except glyph regions - the
timer digits and, after annotation, the player marker boxes).
"""

from __future__ import annotations

import functools
from typing import Dict, Tuple

import numpy as np

from lmfa.engine.state import (
    Blocking,
    FighterState,
    GameState,
    HEALTH_MAX,
    Hitstun,
    Idle,
    Jumping,
    KnockedDown,
    MoveActive,
    Phase,
    Walking,
)

WIDTH = 320
HEIGHT = 224

HUD_ROWS = 24
BAR_TOP, BAR_BOTTOM = 8, 16  # rows [8, 16)
BAR_WIDTH = 120
BAR_MARGIN = 8
GROUND_ROW = 200

# Timer digit block; excluded from mirror-flip comparisons (digit glyphs
# are not horizontally symmetric).
TIMER_RECT = (140, 0, 180, HUD_ROWS)  # x0, y0, x1, y1

FIGHTER_HALF_WIDTH = 15  # game units
FIGHTER_HEIGHT = 48  # pixels
DOWN_HALF_WIDTH = 24
DOWN_HEIGHT = 16
STRIPE_WIDTH = 5  # game units, front edge
PROJECTILE_HALF_WIDTH = 5
MARKER_W, MARKER_H = 18, 12

COLOR_SKY = (24, 24, 48)
COLOR_FLOOR = (52, 44, 38)
COLOR_GROUND_LINE = (96, 84, 64)
COLOR_HUD = (10, 10, 14)
COLOR_BAR_BACK = (96, 24, 24)
COLOR_BAR_FILL = (64, 220, 64)
COLOR_TIMER = (250, 250, 250)
COLOR_PROJECTILE = (250, 235, 110)
COLOR_STRIPE = (245, 245, 245)
COLOR_MARKER_BG = (255, 255, 255)
COLOR_MARKER_FG = (0, 0, 0)

PHASE_COLORS: Dict[type, Tuple[int, int, int]] = {
    Idle: (225, 195, 70),
    Walking: (120, 205, 95),
    Blocking: (80, 130, 230),
    MoveActive: (230, 70, 55),
    Hitstun: (240, 150, 50),
    KnockedDown: (135, 135, 145),
    Jumping: (85, 205, 220),
}

_FONT3X5 = {
    "0": ("111", "101", "101", "101", "111"),
    "1": ("010", "110", "010", "010", "111"),
    "2": ("111", "001", "111", "100", "111"),
    "3": ("111", "001", "111", "001", "111"),
    "4": ("101", "101", "111", "001", "001"),
    "5": ("111", "100", "111", "001", "111"),
    "6": ("111", "100", "111", "101", "111"),
    "7": ("111", "001", "001", "001", "001"),
    "8": ("111", "101", "111", "101", "111"),
    "9": ("111", "101", "111", "001", "111"),
    "P": ("111", "101", "111", "100", "100"),
}


def x_span(lo: int, hi: int, arena_width: int) -> Tuple[int, int]:
    """Pixel columns [c0, c1) covered by game interval [lo, hi).

    Exact rational overlap; reflecting the interval about the arena center
    yields exactly the horizontally flipped column range.
    """
    if hi <= lo:
        return 0, 0
    c0 = (lo * WIDTH) // arena_width
    c1 = -((-hi * WIDTH) // arena_width)
    return max(0, c0), min(WIDTH, c1)


def fighter_center_px(x: int, arena_width: int) -> int:
    c0, c1 = x_span(x - FIGHTER_HALF_WIDTH, x + FIGHTER_HALF_WIDTH, arena_width)
    return (c0 + c1) // 2


def _phase_color(phase: Phase) -> Tuple[int, int, int]:
    return PHASE_COLORS[type(phase)]


@functools.cache
def _glyph_mask(glyph: str, scale: int) -> np.ndarray:
    """The lit pixels of ``glyph`` at ``scale``: each font bit becomes a
    scale x scale block. Read-only, since every caller shares it."""
    bits = np.array([[b == "1" for b in row] for row in _FONT3X5[glyph]])
    mask = bits.repeat(scale, axis=0).repeat(scale, axis=1)
    mask.flags.writeable = False
    return mask


def _draw_glyph(arr: np.ndarray, glyph: str, x: int, y: int, scale: int, color) -> None:
    mask = _glyph_mask(glyph, scale)
    arr[y : y + mask.shape[0], x : x + mask.shape[1]][mask] = color


def _draw_body(arr: np.ndarray, fs: FighterState, arena_width: int) -> None:
    down = isinstance(fs.phase, KnockedDown)
    half = DOWN_HALF_WIDTH if down else FIGHTER_HALF_WIDTH
    height = DOWN_HEIGHT if down else FIGHTER_HEIGHT
    feet = GROUND_ROW - fs.y
    top = max(HUD_ROWS, feet - height)
    c0, c1 = x_span(fs.x - half, fs.x + half, arena_width)
    if c1 <= c0 or feet <= top:
        return
    arr[top:feet, c0:c1] = _phase_color(fs.phase)


def _draw_stripe(arr: np.ndarray, fs: FighterState, arena_width: int) -> None:
    if isinstance(fs.phase, KnockedDown):
        return
    half = FIGHTER_HALF_WIDTH
    feet = GROUND_ROW - fs.y
    top = max(HUD_ROWS, feet - FIGHTER_HEIGHT)
    if fs.facing.sign > 0:
        s0, s1 = x_span(fs.x + half - STRIPE_WIDTH, fs.x + half, arena_width)
    else:
        s0, s1 = x_span(fs.x - half, fs.x - half + STRIPE_WIDTH, arena_width)
    if s1 > s0 and feet > top:
        arr[top:feet, s0:s1] = COLOR_STRIPE


def _background() -> np.ndarray:
    """The pixels every frame shares: sky, HUD band, floor, ground line and
    both health-bar backs (p1 anchored left, p2 mirrored)."""
    arr = np.empty((HEIGHT, WIDTH, 3), dtype=np.uint8)
    arr[:] = COLOR_SKY
    arr[:HUD_ROWS] = COLOR_HUD
    arr[GROUND_ROW:] = COLOR_FLOOR
    arr[GROUND_ROW : GROUND_ROW + 3] = COLOR_GROUND_LINE
    arr[BAR_TOP:BAR_BOTTOM, BAR_MARGIN : BAR_MARGIN + BAR_WIDTH] = COLOR_BAR_BACK
    arr[BAR_TOP:BAR_BOTTOM, WIDTH - BAR_MARGIN - BAR_WIDTH : WIDTH - BAR_MARGIN] = (
        COLOR_BAR_BACK
    )
    arr.flags.writeable = False  # render copies it; nothing may paint on it
    return arr


_BACKGROUND = _background()


def render(state: GameState) -> bytes:
    """Rasterize the scene onto a copy of the prebuilt background: health-bar
    fills, timer digits, projectiles, fighters."""
    arr = _BACKGROUND.copy()

    # health bars fill from the outer ends: p1 rightward, p2 leftward
    fill1 = BAR_WIDTH * state.p1.health // HEALTH_MAX
    fill2 = BAR_WIDTH * state.p2.health // HEALTH_MAX
    if fill1:
        arr[BAR_TOP:BAR_BOTTOM, BAR_MARGIN : BAR_MARGIN + fill1] = COLOR_BAR_FILL
    if fill2:
        arr[BAR_TOP:BAR_BOTTOM, WIDTH - BAR_MARGIN - fill2 : WIDTH - BAR_MARGIN] = (
            COLOR_BAR_FILL
        )

    # timer, two digits, seconds remaining (capped at 99 for display)
    seconds = min(99, state.timer_seconds)
    _draw_glyph(arr, str(seconds // 10), 146, 2, 4, COLOR_TIMER)
    _draw_glyph(arr, str(seconds % 10), 162, 2, 4, COLOR_TIMER)

    for proj in state.projectiles:
        c0, c1 = x_span(
            proj.x - PROJECTILE_HALF_WIDTH, proj.x + PROJECTILE_HALF_WIDTH, state.arena_width
        )
        arr[GROUND_ROW - 20 : GROUND_ROW - 8, c0:c1] = COLOR_PROJECTILE

    # Bodies first (ordered by phase type, a mirror-invariant key: equal
    # phases share a color, so ties cannot show), then all facing stripes;
    # overlap pixels therefore never depend on player order.
    fighters = sorted(
        (state.p1, state.p2), key=lambda fs: type(fs.phase).__name__
    )
    for fs in fighters:
        _draw_body(arr, fs, state.arena_width)
    for fs in fighters:
        _draw_stripe(arr, fs, state.arena_width)

    return arr.tobytes()


def marker_rect(fs: FighterState, arena_width: int) -> Tuple[int, int, int, int]:
    """Marker box (x0, y0, x1, y1) floating above a fighter."""
    cx = fighter_center_px(fs.x, arena_width)
    height = DOWN_HEIGHT if isinstance(fs.phase, KnockedDown) else FIGHTER_HEIGHT
    top = GROUND_ROW - fs.y - height
    y0 = max(HUD_ROWS + 2, top - MARKER_H - 4)
    x0 = min(max(0, cx - MARKER_W // 2), WIDTH - MARKER_W)
    return x0, y0, x0 + MARKER_W, y0 + MARKER_H


def annotate(pixels: bytes, state: GameState) -> bytes:
    """Overlay P1/P2 marker boxes above the fighters' screen positions."""
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(HEIGHT, WIDTH, 3).copy()
    for fs, label in ((state.p1, "1"), (state.p2, "2")):
        x0, y0, x1, y1 = marker_rect(fs, state.arena_width)
        arr[y0:y1, x0:x1] = COLOR_MARKER_BG
        _draw_glyph(arr, "P", x0 + 2, y0 + 1, 2, COLOR_MARKER_FG)
        _draw_glyph(arr, label, x0 + 10, y0 + 1, 2, COLOR_MARKER_FG)
    return arr.tobytes()
