"""Natural-language action commands: grammar, parsing, timing resolution.

Grammar (documented in docs/grammar.ebnf):

    command = chord { "," chord }       at most 5 chords
    chord   = token { "+" token }       1-3 tokens, no conflicting directions
    token   = Up|Down|Left|Right|Forward|Back|A|B|C|Block|Jump|Crouch

Parsing is whitespace- and case-insensitive; aliases collapse during
normalization (Block->C, Jump->Up, Crouch->Down). A parsed chord is
a token mask: bit i stands for the i-th ``CommandToken``, which is also
the display order. Forward/Back are facing-relative and resolve to
Left/Right only when ``resolve`` compiles a command into its per-frame
chord masks, through the facing table in ``lmfa.engine.moves``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from lmfa.engine.buttons import EMPTY_CHORD
from lmfa.engine.moves import CHORDS, TOKEN_BIT, CommandToken
from lmfa.engine.state import Facing

MAX_STEPS = 5
MAX_CHORD_SIZE = 3  # tokens per chord
HOLD_FRAMES = 3
GAP_FRAMES = 2
MAX_PLAN_FRAMES = 120

_ALIASES = {"Block": CommandToken.C, "Jump": CommandToken.UP, "Crouch": CommandToken.DOWN}
_WORDS = {**{tok.value: tok for tok in CommandToken}, **_ALIASES}
VOCABULARY: Tuple[str, ...] = tuple(_WORDS)
_BIT_OF_WORD = {word.lower(): TOKEN_BIT[tok] for word, tok in _WORDS.items()}


class CommandError(ValueError):
    """A command text that does not parse; messages are stable."""


@dataclass(frozen=True)
class Command:
    normalized: str
    steps: Tuple[int, ...]  # one token mask per chord


_HORIZONTAL = TOKEN_BIT[CommandToken.LEFT] | TOKEN_BIT[CommandToken.RIGHT]
_RELATIVE = TOKEN_BIT[CommandToken.FORWARD] | TOKEN_BIT[CommandToken.BACK]
_VERTICAL = TOKEN_BIT[CommandToken.UP] | TOKEN_BIT[CommandToken.DOWN]


def _check_chord(tokens: int, index: int) -> None:
    if tokens.bit_count() > MAX_CHORD_SIZE:
        raise CommandError(f"too many tokens in chord {index} (max {MAX_CHORD_SIZE})")
    mixed = tokens & _RELATIVE and tokens & _HORIZONTAL
    if mixed or any(tokens & pair == pair for pair in (_HORIZONTAL, _VERTICAL, _RELATIVE)):
        raise CommandError(f"conflicting directions in chord {index}")


def _chord_text(tokens: int) -> str:
    return " + ".join(tok.value for tok, bit in TOKEN_BIT.items() if tokens & bit)


@lru_cache(maxsize=256)
def parse(raw: str) -> Command:
    """Parse a command string; raises CommandError on any defect.

    Memoised: bots repeat a few texts, and a ``Command`` is frozen, so
    callers may share one. A raised error is not kept, so bad text raises
    on every call.
    """
    if raw is None or not raw.strip():
        raise CommandError("empty command")
    segments = raw.split(",")
    if len(segments) > MAX_STEPS:
        raise CommandError(f"too many steps: {len(segments)} (max {MAX_STEPS})")
    steps = []
    position = 0
    for index, segment in enumerate(segments):
        words = segment.split("+")
        tokens = 0
        for word in words:
            name = word.strip().lower()
            position += 1
            bit = _BIT_OF_WORD.get(name)
            if bit is None:
                raise CommandError(f"unknown token {word.strip()!r} at position {position}")
            tokens |= bit
        _check_chord(tokens, index)
        steps.append(tokens)
    normalized = ", ".join(_chord_text(s) for s in steps)
    return Command(normalized=normalized, steps=tuple(steps))


def resolve(cmd: Command, facing: Facing) -> Tuple[int, ...]:
    """Compile a command into one chord mask per engine frame, mapping
    Forward/Back by facing: each step is held ``HOLD_FRAMES`` and followed
    by ``GAP_FRAMES`` empty frames, none after the last step."""
    chords = CHORDS[facing.sign]
    frames: List[int] = []
    for tokens in cmd.steps:
        if frames:
            frames += [EMPTY_CHORD] * GAP_FRAMES
        frames += [chords[tokens]] * HOLD_FRAMES
    assert len(frames) <= MAX_PLAN_FRAMES
    return tuple(frames)


class NoCommandFoundError(CommandError):
    """No line of a reply parses as a command."""


_STRIP_CHARS = "`'\"*_ \t"
_SENTENCE_BREAKS = ".!?;:"
_QUOTED_SPAN = re.compile(r"[\"'`]([^\"'`]+)[\"'`]")


def _candidates(line: str):
    text = line.strip(_STRIP_CHARS)
    text = text.rstrip(_SENTENCE_BREAKS).rstrip(_STRIP_CHARS)
    if text:
        yield text
    # last quoted or backticked span, if any
    spans = _QUOTED_SPAN.findall(line)
    if spans:
        yield spans[-1].strip(_STRIP_CHARS)
    # final sentence fragment: models often end prose with the command
    for breaker in _SENTENCE_BREAKS:
        text = text.rpartition(breaker)[2].strip(_STRIP_CHARS)
    if text:
        yield text


def extract_command(agent_reply: str) -> Command:
    """Pull the decision out of a free-form reply.

    Lines are scanned last to first; the first line (or its final sentence
    fragment after stripping quotes, backticks, and trailing punctuation)
    that parses wins.
    """
    for line in reversed((agent_reply or "").splitlines()):
        for candidate in _candidates(line):
            try:
                return parse(candidate)
            except CommandError:
                continue
    tail = (agent_reply or "").strip()[-80:]
    raise NoCommandFoundError(f"no command found in reply: {tail!r}")
