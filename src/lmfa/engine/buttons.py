"""Controller buttons and chords.

The pad has exactly eight buttons. A chord is the set of buttons held on
one frame; conflicting directions (Left+Right, Up+Down) cancel each other
at engine ingestion so every downstream rule sees a consistent input.

The engine's per-frame path works on chord masks instead: bit i of an
8-bit mask stands for the i-th button in ``UDLRABCS`` order (the order of
``Button``). The 256-entry tables at the bottom of this module turn
normalize, mirror and encode into lookups; they are built once at import.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, Tuple


class Button(enum.Enum):
    UP = "U"
    DOWN = "D"
    LEFT = "L"
    RIGHT = "R"
    A = "A"
    B = "B"
    C = "C"
    START = "S"


Chord = FrozenSet[Button]

EMPTY_CHORD: Chord = frozenset()

# Canonical encoding order for traces/logs.
_CODE_ORDER = "UDLRABCS"
_BY_CODE = {b.value: b for b in Button}


def chord(*buttons: Button) -> Chord:
    return frozenset(buttons)


def normalize_chord(c: Iterable[Button]) -> Chord:
    """Cancel conflicting direction pairs (horizontal and vertical axes)."""
    s = set(c)
    if Button.LEFT in s and Button.RIGHT in s:
        s.discard(Button.LEFT)
        s.discard(Button.RIGHT)
    if Button.UP in s and Button.DOWN in s:
        s.discard(Button.UP)
        s.discard(Button.DOWN)
    return frozenset(s)


def encode_chord(c: Chord) -> str:
    """Canonical compact string, fixed button order; empty chord is ''."""
    return "".join(code for code in _CODE_ORDER if _BY_CODE[code] in c)


def decode_chord(text: str) -> Chord:
    try:
        return frozenset(_BY_CODE[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"unknown button code in chord {text!r}") from exc


def mirror_chord(c: Chord) -> Chord:
    """Swap Left and Right; used by mirror-image runs."""
    out = set(c)
    if Button.LEFT in out or Button.RIGHT in out:
        has_left = Button.LEFT in out
        has_right = Button.RIGHT in out
        out.discard(Button.LEFT)
        out.discard(Button.RIGHT)
        if has_left:
            out.add(Button.RIGHT)
        if has_right:
            out.add(Button.LEFT)
    return frozenset(out)


# -- chord masks ------------------------------------------------------------

BIT: Dict[Button, int] = {b: 1 << i for i, b in enumerate(Button)}

# CHORD_OF[mask] is the canonical chord for a mask; MASK_OF maps each of the
# 256 chords back to its mask. Both hold the same frozenset objects, so a
# canonical chord finds its mask by identity.
CHORD_OF: Tuple[Chord, ...] = tuple(
    frozenset(b for b, bit in BIT.items() if mask & bit) for mask in range(256)
)
MASK_OF: Dict[Chord, int] = {c: mask for mask, c in enumerate(CHORD_OF)}

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


# Bit arithmetic, independent of the set functions above; the tests check
# that both agree on every mask.
NORMALIZE: Tuple[int, ...] = tuple(_normalize_mask(m) for m in range(256))
MIRROR: Tuple[int, ...] = tuple(_mirror_mask(m) for m in range(256))
ENCODE: Tuple[str, ...] = tuple(
    "".join(code for i, code in enumerate(_CODE_ORDER) if m >> i & 1)
    for m in range(256)
)
