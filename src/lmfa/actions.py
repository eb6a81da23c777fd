"""Natural-language action commands: grammar, parsing, timing resolution.

Grammar (documented in docs/grammar.ebnf):

    command = chord { "," chord }       at most 5 chords
    chord   = token { "+" token }       1-3 tokens, no conflicting directions
    token   = Up|Down|Left|Right|Forward|Back|A|B|C|Block|Jump|Crouch

Parsing is whitespace- and case-insensitive; aliases collapse during
normalization (Block->C, Jump->Up, Crouch->Down). Forward/Back are
facing-relative and resolve to Left/Right only when ``resolve`` compiles
a command into its per-frame chord masks.
Error messages are stable strings because they appear verbatim in match
logs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

from lmfa.engine.buttons import BIT, EMPTY_CHORD, Button
from lmfa.engine.moves import CommandToken, TokenSet
from lmfa.engine.state import Facing

MAX_STEPS = 5
MAX_TOKENS_PER_CHORD = 3
HOLD_FRAMES = 3
GAP_FRAMES = 2
MAX_PLAN_FRAMES = 120


# Canonical display order inside a chord: directions before buttons.
_TOKEN_ORDER = {tok: i for i, tok in enumerate(CommandToken)}

_CANONICAL = {tok.value.lower(): tok for tok in CommandToken}
_ALIASES = {
    "block": CommandToken.C,
    "jump": CommandToken.UP,
    "crouch": CommandToken.DOWN,
}

VOCABULARY: Tuple[str, ...] = tuple(t.value for t in CommandToken) + (
    "Block",
    "Jump",
    "Crouch",
)


class CommandError(ValueError):
    """Base class for command parse failures; messages are stable."""


class EmptyCommandError(CommandError):
    def __init__(self) -> None:
        super().__init__("empty command")


class UnknownTokenError(CommandError):
    def __init__(self, token: str, position: int) -> None:
        self.token = token
        self.position = position
        super().__init__(f"unknown token {token!r} at position {position}")


class TooManyStepsError(CommandError):
    def __init__(self, count: int) -> None:
        self.count = count
        super().__init__(f"too many steps: {count} (max {MAX_STEPS})")


class TooManyTokensError(CommandError):
    def __init__(self, chord_index: int) -> None:
        self.chord_index = chord_index
        super().__init__(
            f"too many tokens in chord {chord_index} (max {MAX_TOKENS_PER_CHORD})"
        )


class ConflictingDirectionsError(CommandError):
    def __init__(self, chord_index: int) -> None:
        self.chord_index = chord_index
        super().__init__(f"conflicting directions in chord {chord_index}")


@dataclass(frozen=True)
class Command:
    raw: str
    normalized: str
    steps: Tuple[TokenSet, ...]


_CONFLICTS = (
    (CommandToken.LEFT, CommandToken.RIGHT),
    (CommandToken.UP, CommandToken.DOWN),
    (CommandToken.FORWARD, CommandToken.BACK),
)


def _check_chord(tokens: TokenSet, index: int) -> None:
    if len(tokens) > MAX_TOKENS_PER_CHORD:
        raise TooManyTokensError(index)
    for a, b in _CONFLICTS:
        if a in tokens and b in tokens:
            raise ConflictingDirectionsError(index)
    relative = CommandToken.FORWARD in tokens or CommandToken.BACK in tokens
    absolute = CommandToken.LEFT in tokens or CommandToken.RIGHT in tokens
    if relative and absolute:
        raise ConflictingDirectionsError(index)


def _chord_text(tokens: TokenSet) -> str:
    ordered = sorted(tokens, key=_TOKEN_ORDER.__getitem__)
    return " + ".join(t.value for t in ordered)


def parse(raw: str) -> Command:
    """Parse a command string; raises a typed CommandError on any defect."""
    if raw is None or not raw.strip():
        raise EmptyCommandError()
    segments = raw.split(",")
    if len(segments) > MAX_STEPS:
        raise TooManyStepsError(len(segments))
    steps = []
    position = 0
    for index, segment in enumerate(segments):
        words = segment.split("+")
        tokens = set()
        for word in words:
            name = word.strip().lower()
            position += 1
            if not name:
                raise UnknownTokenError(word.strip(), position)
            tok = _CANONICAL.get(name) or _ALIASES.get(name)
            if tok is None:
                raise UnknownTokenError(word.strip(), position)
            tokens.add(tok)
        chord_spec = frozenset(tokens)
        _check_chord(chord_spec, index)
        steps.append(chord_spec)
    normalized = ", ".join(_chord_text(s) for s in steps)
    return Command(raw=raw, normalized=normalized, steps=tuple(steps))


_ABSOLUTE_BITS = {
    CommandToken.UP: BIT[Button.UP],
    CommandToken.DOWN: BIT[Button.DOWN],
    CommandToken.LEFT: BIT[Button.LEFT],
    CommandToken.RIGHT: BIT[Button.RIGHT],
    CommandToken.A: BIT[Button.A],
    CommandToken.B: BIT[Button.B],
    CommandToken.C: BIT[Button.C],
}
# token -> chord bit for a fighter facing each way
_BITS = {
    facing: {
        **_ABSOLUTE_BITS,
        CommandToken.FORWARD: BIT[ahead],
        CommandToken.BACK: BIT[behind],
    }
    for facing, ahead, behind in (
        (Facing.RIGHT, Button.RIGHT, Button.LEFT),
        (Facing.LEFT, Button.LEFT, Button.RIGHT),
    )
}


def resolve(cmd: Command, facing: Facing) -> Tuple[int, ...]:
    """Compile a command into one chord mask per engine frame, mapping
    Forward/Back by facing: each step is held ``HOLD_FRAMES`` and followed
    by ``GAP_FRAMES`` empty frames, none after the last step."""
    bits = _BITS[facing]
    frames: List[int] = []
    for spec in cmd.steps:
        if frames:
            frames += [EMPTY_CHORD] * GAP_FRAMES
        mask = EMPTY_CHORD
        for tok in spec:
            mask |= bits[tok]
        frames += [mask] * HOLD_FRAMES
    assert len(frames) <= MAX_PLAN_FRAMES
    return tuple(frames)


class NoCommandFoundError(CommandError):
    def __init__(self, excerpt: str) -> None:
        self.excerpt = excerpt
        super().__init__(f"no command found in reply: {excerpt!r}")


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
    raise NoCommandFoundError(tail)
