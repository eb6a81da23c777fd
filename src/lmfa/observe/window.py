"""Rendered-frame history and the 10-frame observation window.

The window at engine frame F covers {F-36, F-32, ..., F}: ten frames at
four-frame spacing, clipped at round start. Frames come from the history
buffer, never from re-simulation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from lmfa.observe.describe import WireText

WINDOW_SIZE = 10
WINDOW_SPACING = 4


def window_indices(now: int) -> Tuple[int, ...]:
    """Engine frame indices sampled for a decision at frame ``now``."""
    start = now - WINDOW_SPACING * (WINDOW_SIZE - 1)
    return tuple(i for i in range(start, now + 1, WINDOW_SPACING) if i >= 0)


class FrameHistory:
    """Bounded ring of encoded frames keyed by engine frame index: the
    ``WireText`` of ``encode_frame_base64``, stored and returned as is, so
    a sampled frame still shares its row pieces."""

    def __init__(self, capacity: int) -> None:
        if capacity < WINDOW_SIZE:
            raise ValueError("history capacity below window size")
        self.capacity = capacity
        self._entries: "OrderedDict[int, WireText]" = OrderedDict()

    def append(self, frame: int, encoded: WireText) -> None:
        self._entries[frame] = encoded
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def get(self, frame: int) -> Optional[WireText]:
        return self._entries.get(frame)

    def __len__(self) -> int:
        return len(self._entries)


def sample_window_encoded(history: FrameHistory, now: int) -> List[WireText]:
    """Encoded frames at the window indices, oldest first.

    Raises LookupError if a required frame was never rendered into the
    history buffer (a runner scheduling bug, not a game condition).
    """
    encoded = []
    for idx in window_indices(now):
        entry = history.get(idx)
        if entry is None:
            raise LookupError(f"frame {idx} missing from render history")
        encoded.append(entry)
    return encoded
