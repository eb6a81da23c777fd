"""The 10-frame observation window.

The window at engine frame F covers {F-36, F-32, ..., F}: ten frames at
four-frame spacing, clipped at round start. Frames come from the frames
rendered for the coming windows, never from re-simulation.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from lmfa.observe.describe import WireText

WINDOW_SIZE = 10
WINDOW_SPACING = 4
WINDOW_SPAN = WINDOW_SPACING * (WINDOW_SIZE - 1)  # how far back a window reaches


def window_indices(now: int) -> Tuple[int, ...]:
    """Engine frame indices sampled for a decision at frame ``now``."""
    return tuple(i for i in range(now - WINDOW_SPAN, now + 1, WINDOW_SPACING) if i >= 0)


def sample_window_encoded(rendered: Dict[int, WireText], now: int) -> List[WireText]:
    """Encoded frames at the window indices, oldest first, from ``rendered``
    (engine frame -> the ``WireText`` of ``encode_frame_base64``, returned
    as is, so a sampled frame still shares its row pieces).

    Raises KeyError if a required frame was never rendered (a runner
    scheduling bug, not a game condition).
    """
    return [rendered[i] for i in window_indices(now)]
