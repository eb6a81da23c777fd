"""A decision tick builds only what its agents read.

An observation's state text is built on first read, which only the
remote wire request does, so scripted ticks never build it. ``parse`` is
memoised: the same text gives an equal, frozen ``Command`` every time,
and text that fails to parse raises on every call.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from lmfa.actions import CommandError, parse
from lmfa.agents.mock_server import MockAgentServer
from lmfa.agents.specs import AgentKind, AgentSpec, BotPolicy
from lmfa.config import MatchConfig
from lmfa.engine.core import new_match
from lmfa.engine.state import Player
from lmfa.observe import describe
from lmfa.tourney.match import run_match

BUILD_STATE_TEXT = describe.build_state_text


@pytest.fixture
def text_builds(monkeypatch):
    """The features of every ``build_state_text`` call, in order."""
    calls = []

    def counting(features):
        calls.append(features)
        return BUILD_STATE_TEXT(features)

    monkeypatch.setattr(describe, "build_state_text", counting)
    return calls


def bot(name: str, policy: BotPolicy) -> AgentSpec:
    return AgentSpec(id=name, kind=AgentKind.SCRIPTED, policy=policy, seed=3)


def test_state_text_is_built_once_on_first_read(text_builds):
    obs = describe.describe_state(new_match(MatchConfig()), Player.P2)
    assert text_builds == []
    text = obs.state_text
    assert obs.state_text is text
    assert text_builds == [obs.features]
    assert text == BUILD_STATE_TEXT(obs.features)


@pytest.mark.parametrize(
    "p1, p2",
    [
        (BotPolicy.RUSHDOWN, BotPolicy.ZONER),
        (BotPolicy.RANDOM, BotPolicy.IDLE),
    ],
    ids=lambda p: p.value,
)
def test_scripted_match_builds_no_state_text(text_builds, p1, p2):
    log = run_match(bot("a", p1), bot("b", p2), MatchConfig(seed=8, match_length_frames=800))
    assert len(log.decisions) == 2 * 20
    assert text_builds == []


def test_remote_decision_builds_the_text_it_sends(text_builds):
    cfg = MatchConfig(seed=4, match_length_frames=160, decision_interval_frames=40)
    with MockAgentServer(replies=["A"]) as server:
        remote = AgentSpec(id="r", kind=AgentKind.REMOTE, endpoint=server.url, timeout_ms=5000)
        run_match(remote, bot("i", BotPolicy.IDLE), cfg)
    sent = [json.loads(r["body"])["state_text"] for r in server.requests]
    assert len(sent) == 4
    assert sent == [BUILD_STATE_TEXT(features) for features in text_builds]


def test_repeated_parse_returns_equal_commands():
    for text in ("Down, Forward, A", "jump + forward", " C ", "Crouch + B"):
        first = parse(text)
        for _ in range(3):
            assert parse(text) == first
    assert parse("Block") == parse("C")
    with pytest.raises(dataclasses.FrozenInstanceError):
        parse("A").normalized = "B"  # safe to share between callers


@pytest.mark.parametrize(
    "text, message",
    [
        ("Kick", "unknown token 'Kick' at position 1"),
        ("   ", "empty command"),
        ("A, A, A, A, A, A", "too many steps: 6 (max 5)"),
    ],
)
def test_invalid_text_raises_on_every_call(text, message):
    for _ in range(3):
        with pytest.raises(CommandError) as e:
            parse(text)
        assert str(e.value) == message
        parse("A")
