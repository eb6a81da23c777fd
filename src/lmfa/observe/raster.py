"""Flat-color deterministic rasterizer for 320x224 RGB frames.

A frame is the tuple of ``HEIGHT`` rows, each ``WIDTH * 3`` RGB bytes,
that ``render`` and ``annotate`` return. A row that nothing paints is the
background's own object, and a fill or a paste builds one new row per
run of rows sharing one object. Frames are built from reused parts: the
HUD band's rows for each displayed time and pair of bar fills are built
once and kept while frames show them, and each marker box is built once
and pasted whole. Rendering is a pure function of the game state.
Horizontal geometry is computed by exact rational overlap between
game-space intervals and pixel columns, which makes the scene
pixel-exact under mirroring (render(mirror(s)) equals the horizontally
flipped render(s) everywhere except glyph regions - the timer digits
and, after annotation, the player marker boxes)."""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Dict, List, Tuple

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
# (font row, first column, end column) of each run of lit bits, per glyph
_GLYPH_RUNS = {
    glyph: tuple(
        (gy, m.start(), m.end()) for gy, bits in enumerate(rows) for m in re.finditer("1+", bits)
    )
    for glyph, rows in _FONT3X5.items()
}


def x_span(lo: int, hi: int, arena_width: int) -> Tuple[int, int]:
    """Pixel columns [c0, c1) covered by game interval [lo, hi), lo < hi.

    Exact rational overlap; reflecting the interval about the arena center
    yields exactly the horizontally flipped column range.
    """
    c0 = (lo * WIDTH) // arena_width
    c1 = -((-hi * WIDTH) // arena_width)
    return max(0, c0), min(WIDTH, c1)


def fighter_center_px(x: int, arena_width: int) -> int:
    c0, c1 = x_span(x - FIGHTER_HALF_WIDTH, x + FIGHTER_HALF_WIDTH, arena_width)
    return (c0 + c1) // 2


def _fill(rows: List[bytes], x0: int, y0: int, x1: int, y1: int, color) -> None:
    """Paint columns [x0, x1) of rows [y0, y1) in place. The caller clips
    the rectangle to the canvas."""
    if x1 > x0:
        _paste(rows, x0, y0, (bytes(color) * (x1 - x0),) * (y1 - y0))


def _paste(rows: List[bytes], x0: int, y0: int, block: Tuple[bytes, ...]) -> None:
    """Overwrite rows from ``y0`` with ``block``'s rows, each placed from
    column ``x0``; the caller keeps the block inside the canvas. A row whose
    source and block row are both the row above's reuses that row's result,
    so a run of shared rows stays shared."""
    a = 3 * x0
    src = piece = out = None
    for y, nxt in enumerate(block, y0):
        if rows[y] is not src or nxt is not piece:
            src, piece = rows[y], nxt
            out = src[:a] + piece + src[a + len(piece) :]
        rows[y] = out


def _draw_glyph(rows: List[bytes], glyph: str, x: int, y: int, scale: int, color) -> None:
    """Each lit font bit becomes a scale x scale block, one fill per run."""
    for gy, c0, c1 in _GLYPH_RUNS[glyph]:
        top = y + gy * scale
        _fill(rows, x + c0 * scale, top, x + c1 * scale, top + scale, color)


def _draw_body(rows: List[bytes], fs: FighterState, arena_width: int) -> None:
    down = isinstance(fs.phase, KnockedDown)
    half = DOWN_HALF_WIDTH if down else FIGHTER_HALF_WIDTH
    height = DOWN_HEIGHT if down else FIGHTER_HEIGHT
    feet = GROUND_ROW - fs.y
    top = max(HUD_ROWS, feet - height)
    c0, c1 = x_span(fs.x - half, fs.x + half, arena_width)
    _fill(rows, c0, top, c1, feet, PHASE_COLORS[type(fs.phase)])


def _draw_stripe(rows: List[bytes], fs: FighterState, arena_width: int) -> None:
    if isinstance(fs.phase, KnockedDown):
        return
    feet = GROUND_ROW - fs.y
    top = max(HUD_ROWS, feet - FIGHTER_HEIGHT)
    # the STRIPE_WIDTH units of the body behind its front edge
    front = fs.x + fs.facing.sign * FIGHTER_HALF_WIDTH
    s0, s1 = x_span(*sorted((front, front - fs.facing.sign * STRIPE_WIDTH)), arena_width)
    _fill(rows, s0, top, s1, feet, COLOR_STRIPE)


def _background() -> Tuple[bytes, ...]:
    """The rows every frame shares: sky, HUD band, floor, ground line and
    both health-bar backs (p1 anchored left, p2 mirrored)."""
    rows = [bytes(COLOR_SKY) * WIDTH] * HEIGHT
    _fill(rows, 0, 0, WIDTH, HUD_ROWS, COLOR_HUD)
    _fill(rows, 0, GROUND_ROW, WIDTH, HEIGHT, COLOR_FLOOR)
    _fill(rows, 0, GROUND_ROW, WIDTH, GROUND_ROW + 3, COLOR_GROUND_LINE)
    for x0 in (BAR_MARGIN, WIDTH - BAR_MARGIN - BAR_WIDTH):
        _fill(rows, x0, BAR_TOP, x0 + BAR_WIDTH, BAR_BOTTOM, COLOR_BAR_BACK)
    return tuple(rows)


_BACKGROUND = _background()


# The clock only counts down and health only falls, so a match never comes
# back to a band it has left: it needs one entry at a time, and 16 serve
# that many matches rendering at once.
@lru_cache(maxsize=16)
def _hud_band(seconds: int, fill1: int, fill2: int) -> Tuple[bytes, ...]:
    """The HUD's rows over the background's: health-bar fills from the
    outer ends (p1 rightward, p2 leftward) and the two timer digits."""
    rows = list(_BACKGROUND[:HUD_ROWS])
    _fill(rows, BAR_MARGIN, BAR_TOP, BAR_MARGIN + fill1, BAR_BOTTOM, COLOR_BAR_FILL)
    right = WIDTH - BAR_MARGIN
    _fill(rows, right - fill2, BAR_TOP, right, BAR_BOTTOM, COLOR_BAR_FILL)
    _draw_glyph(rows, str(seconds // 10), 146, 2, 4, COLOR_TIMER)
    _draw_glyph(rows, str(seconds % 10), 162, 2, 4, COLOR_TIMER)
    return tuple(rows)


def render(state: GameState) -> Tuple[bytes, ...]:
    """Rasterize the scene onto the prebuilt background's rows: the HUD
    band for the displayed seconds (capped at 99) and bar fills, reused
    from the last frame that showed them, then projectiles and fighters."""
    rows = list(_BACKGROUND)
    rows[:HUD_ROWS] = _hud_band(
        min(99, state.timer_seconds),
        BAR_WIDTH * state.p1.health // HEALTH_MAX,
        BAR_WIDTH * state.p2.health // HEALTH_MAX,
    )

    for proj in state.projectiles:
        c0, c1 = x_span(
            proj.x - PROJECTILE_HALF_WIDTH, proj.x + PROJECTILE_HALF_WIDTH, state.arena_width
        )
        _fill(rows, c0, GROUND_ROW - 20, c1, GROUND_ROW - 8, COLOR_PROJECTILE)

    # Bodies first (ordered by phase type, a mirror-invariant key: equal
    # phases share a color, so ties cannot show), then all facing stripes;
    # overlap pixels therefore never depend on player order.
    fighters = sorted(
        (state.p1, state.p2), key=lambda fs: type(fs.phase).__name__
    )
    for fs in fighters:
        _draw_body(rows, fs, state.arena_width)
    for fs in fighters:
        _draw_stripe(rows, fs, state.arena_width)

    return tuple(rows)


def marker_rect(fs: FighterState, arena_width: int) -> Tuple[int, int, int, int]:
    """Marker box (x0, y0, x1, y1) floating above a fighter."""
    cx = fighter_center_px(fs.x, arena_width)
    height = DOWN_HEIGHT if isinstance(fs.phase, KnockedDown) else FIGHTER_HEIGHT
    top = GROUND_ROW - fs.y - height
    y0 = max(HUD_ROWS + 2, top - MARKER_H - 4)
    x0 = min(max(0, cx - MARKER_W // 2), WIDTH - MARKER_W)
    return x0, y0, x0 + MARKER_W, y0 + MARKER_H


def _marker_box(label: str) -> Tuple[bytes, ...]:
    """The ``MARKER_H`` rows of a marker box: "P" and the label's digit on
    the box colour."""
    rows = [bytes(COLOR_MARKER_BG) * MARKER_W] * MARKER_H
    _draw_glyph(rows, "P", 2, 1, 2, COLOR_MARKER_FG)
    _draw_glyph(rows, label, 10, 1, 2, COLOR_MARKER_FG)
    return tuple(rows)


_MARKER_BOXES = {label: _marker_box(label) for label in "12"}


def annotate(pixels: Tuple[bytes, ...], state: GameState) -> Tuple[bytes, ...]:
    """Overlay P1/P2 marker boxes above the fighters' screen positions.
    A box is opaque and ``marker_rect`` keeps it on the canvas, so it is
    pasted whole."""
    rows = list(pixels)
    for fs, label in ((state.p1, "1"), (state.p2, "2")):
        x0, y0, _, _ = marker_rect(fs, state.arena_width)
        _paste(rows, x0, y0, _MARKER_BOXES[label])
    return tuple(rows)
