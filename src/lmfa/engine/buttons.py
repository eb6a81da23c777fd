"""Controller buttons and chord masks.

The pad has exactly eight buttons. A chord, the buttons held on one frame,
is an 8-bit mask in every API: bit i stands for the i-th button in
``UDLRABCS`` order (the order of ``Button``), so ``BIT[b]`` is button b's
bit and ``EMPTY_CHORD`` (0) holds nothing. Conflicting directions
(Left+Right, Up+Down) cancel each other at engine ingestion so every
downstream rule sees a consistent input. Logs spell a chord as its codes
in ``UDLRABCS`` order, the empty chord as ''.

The 256-entry tables at the bottom of this module turn normalize, mirror
and encode into lookups; they are built once at import.
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple


class Button(enum.Enum):
    UP = "U"
    DOWN = "D"
    LEFT = "L"
    RIGHT = "R"
    A = "A"
    B = "B"
    C = "C"
    START = "S"


BIT: Dict[Button, int] = {b: 1 << i for i, b in enumerate(Button)}

EMPTY_CHORD = 0

_BIT_BY_CODE = {b.value: BIT[b] for b in Button}


def chord(*buttons: Button) -> int:
    mask = EMPTY_CHORD
    for b in buttons:
        mask |= BIT[b]
    return mask


def encode_chord(mask: int) -> str:
    """Canonical compact string, fixed button order; empty chord is ''."""
    return ENCODE[mask]


def decode_chord(text: str) -> int:
    """Mask of a chord string; codes may come in any order and repeat."""
    mask = _MASK_BY_CODE.get(text)
    if mask is None:
        mask = EMPTY_CHORD
        for ch in text:
            bit = _BIT_BY_CODE.get(ch)
            if bit is None:
                raise ValueError(f"unknown button code in chord {text!r}")
            mask |= bit
    return mask


_UD = BIT[Button.UP] | BIT[Button.DOWN]
_LR = BIT[Button.LEFT] | BIT[Button.RIGHT]


def _normalize_mask(mask: int) -> int:
    for axis in (_LR, _UD):
        if mask & axis == axis:
            mask &= ~axis
    return mask


def _mirror_mask(mask: int) -> int:
    lr = mask & _LR
    if lr == _LR or not lr:
        return mask
    return mask ^ _LR  # exactly one of Left/Right: swap it for the other


# Bit arithmetic; the tests check every mask against independent set-based
# definitions of normalize, mirror and encode.
NORMALIZE: Tuple[int, ...] = tuple(_normalize_mask(m) for m in range(256))
MIRROR: Tuple[int, ...] = tuple(_mirror_mask(m) for m in range(256))
ENCODE: Tuple[str, ...] = tuple(
    "".join(code for code, bit in _BIT_BY_CODE.items() if m & bit) for m in range(256)
)
_MASK_BY_CODE: Dict[str, int] = {code: m for m, code in enumerate(ENCODE)}
