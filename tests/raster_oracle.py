"""The numpy rasterizer as it was before frames became tuples of shared
rows, kept verbatim as the oracle for ``test_raster_oracle``.

``render`` and ``annotate`` return the flat row-major RGB ``bytes`` of a
frame. Geometry, colors and the font are imported from the rasterizer.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from lmfa.engine.state import FighterState, GameState, HEALTH_MAX, KnockedDown, Phase
from lmfa.observe.raster import (
    BAR_BOTTOM,
    BAR_MARGIN,
    BAR_TOP,
    BAR_WIDTH,
    COLOR_BAR_BACK,
    COLOR_BAR_FILL,
    COLOR_FLOOR,
    COLOR_GROUND_LINE,
    COLOR_HUD,
    COLOR_MARKER_BG,
    COLOR_MARKER_FG,
    COLOR_PROJECTILE,
    COLOR_SKY,
    COLOR_STRIPE,
    COLOR_TIMER,
    DOWN_HALF_WIDTH,
    DOWN_HEIGHT,
    FIGHTER_HALF_WIDTH,
    FIGHTER_HEIGHT,
    GROUND_ROW,
    HEIGHT,
    HUD_ROWS,
    PROJECTILE_HALF_WIDTH,
    STRIPE_WIDTH,
    WIDTH,
    PHASE_COLORS,
    _FONT3X5,
    marker_rect,
    x_span,
)


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


def annotate(pixels: bytes, state: GameState) -> bytes:
    """Overlay P1/P2 marker boxes above the fighters' screen positions."""
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(HEIGHT, WIDTH, 3).copy()
    for fs, label in ((state.p1, "1"), (state.p2, "2")):
        x0, y0, x1, y1 = marker_rect(fs, state.arena_width)
        arr[y0:y1, x0:x1] = COLOR_MARKER_BG
        _draw_glyph(arr, "P", x0 + 2, y0 + 1, 2, COLOR_MARKER_FG)
        _draw_glyph(arr, label, x0 + 10, y0 + 1, 2, COLOR_MARKER_FG)
    return arr.tobytes()
