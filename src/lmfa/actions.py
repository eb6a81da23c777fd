"""Natural-language action commands: grammar, parsing, timing resolution.

Grammar (documented in docs/grammar.ebnf):

    command = chord { "," chord }       at most 5 chords
    chord   = token { "+" token }       1-3 tokens, no conflicting directions
    token   = Up|Down|Left|Right|Forward|Back|A|B|C|Block|Jump|Crouch

Parsing is whitespace- and case-insensitive; aliases collapse during
normalization (Block->C, Jump->Up, Crouch->Down). Forward/Back are
facing-relative and resolve to Left/Right only when a plan is compiled.
Error messages are stable strings because they appear verbatim in match
logs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

from lmfa.engine.buttons import Button, Chord
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


@dataclass(frozen=True)
class PlanStep:
    chord: Chord
    hold_frames: int
    gap_frames: int


@dataclass(frozen=True)
class ActionPlan:
    """A compiled, timed button script; facing is already resolved."""

    steps: Tuple[PlanStep, ...]

    @property
    def total_frames(self) -> int:
        return sum(s.hold_frames + s.gap_frames for s in self.steps)

    def frame_chords(self) -> Tuple[Chord, ...]:
        """Expand to one chord per engine frame (gaps are empty chords)."""
        frames = []
        for step in self.steps:
            frames.extend([step.chord] * step.hold_frames)
            frames.extend([frozenset()] * step.gap_frames)
        return tuple(frames)


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


def format_command(cmd: Command) -> str:
    """Canonical string form; parse(format_command(c)) reproduces c's steps."""
    return cmd.normalized


_TO_BUTTON = {
    CommandToken.UP: Button.UP,
    CommandToken.DOWN: Button.DOWN,
    CommandToken.LEFT: Button.LEFT,
    CommandToken.RIGHT: Button.RIGHT,
    CommandToken.A: Button.A,
    CommandToken.B: Button.B,
    CommandToken.C: Button.C,
}


def resolve(cmd: Command, facing: Facing) -> ActionPlan:
    """Compile a command into a timed plan, mapping Forward/Back by facing."""
    forward = Button.RIGHT if facing is Facing.RIGHT else Button.LEFT
    back = Button.LEFT if facing is Facing.RIGHT else Button.RIGHT
    plan = []
    last = len(cmd.steps) - 1
    for i, spec in enumerate(cmd.steps):
        buttons = set()
        for tok in spec:
            if tok is CommandToken.FORWARD:
                buttons.add(forward)
            elif tok is CommandToken.BACK:
                buttons.add(back)
            else:
                buttons.add(_TO_BUTTON[tok])
        plan.append(
            PlanStep(
                chord=frozenset(buttons),
                hold_frames=HOLD_FRAMES,
                gap_frames=GAP_FRAMES if i != last else 0,
            )
        )
    result = ActionPlan(steps=tuple(plan))
    assert result.total_frames <= MAX_PLAN_FRAMES
    return result


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
