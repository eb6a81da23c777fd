"""Open defects that ROADMAP lists, each held as a strict xfail.

Each case asserts the behaviour that the ROADMAP item promises. The change
that mends a defect turns its case into a pass, which a strict xfail
reports as a failure, so that change has to remove the marker too; the
case then stays here as a plain test.
"""

from __future__ import annotations

import json

import pytest

from lmfa.agents.specs import AgentKind, AgentSetupError, AgentSpec, BotPolicy
from lmfa.config import MatchConfig
from lmfa.reporting import verify_replay
from lmfa.tourney.match import log_from_dict, log_to_dict, run_match
from lmfa.tourney.roundrobin import run_round_robin


def scripted(agent_id: str, policy: BotPolicy, seed: int = 0) -> AgentSpec:
    return AgentSpec(id=agent_id, kind=AgentKind.SCRIPTED, policy=policy, seed=seed)


@pytest.fixture(scope="module")
def probe_doc():
    """P1 rushdown against P2 random (seed 3), 1,200 frames, as a log document."""
    log = run_match(
        scripted("rush", BotPolicy.RUSHDOWN),
        scripted("rand", BotPolicy.RANDOM, seed=3),
        MatchConfig(match_length_frames=1200, seed=3),
    )
    return json.loads(json.dumps(log_to_dict(log)))


def swap_sides(doc: dict) -> None:
    doc["p1"], doc["p2"] = doc["p2"], doc["p1"]
    for entry in doc["decisions"]:
        entry["agent_id"] = doc["p1"] if entry["player"] == "P1" else doc["p2"]


def first_p1_entry(field: str, value):
    def forge(doc: dict) -> None:
        doc["decisions"][0][field] = value

    return forge


def open_defect(item: int):
    """A strict xfail that only a failed assertion satisfies, so a case that
    breaks for another reason is not taken for the open defect."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}")


# each forgery, with the ROADMAP item that mends it
FORGERIES = {
    "command": (first_p1_entry("command", "B"), 9),
    "plan": (first_p1_entry("plan", ["B", "B", "B"]), 9),
    "failure": (first_p1_entry("failure", "timeout"), 9),
    "raw_reply": (first_p1_entry("raw_reply", "B"), 3),
    "sides_swapped": (swap_sides, 3),
}


def forged(doc: dict, name: str) -> dict:
    copy = json.loads(json.dumps(doc))
    FORGERIES[name][0](copy)
    return copy


@pytest.mark.parametrize("name", FORGERIES)
def test_each_forgery_changes_a_log_that_still_reads(probe_doc, name):
    assert probe_doc["decisions"][0]["player"] == "P1"
    doc = forged(probe_doc, name)
    assert doc != probe_doc
    assert log_to_dict(log_from_dict(doc)) == doc


@pytest.mark.parametrize(
    "name", [pytest.param(name, marks=open_defect(item)) for name, (_, item) in FORGERIES.items()]
)
def test_a_forged_log_fails_replay(probe_doc, name):
    assert not verify_replay(log_from_dict(forged(probe_doc, name))).ok


@open_defect(4)
def test_repeats_of_a_pair_are_different_games():
    logs = run_round_robin(
        [scripted("r7", BotPolicy.RANDOM, seed=7), scripted("r9", BotPolicy.RANDOM, seed=9)],
        MatchConfig(match_length_frames=1200, seed=0),
        matches_per_pair=4,
    )
    assert logs[0].input_trace != logs[2].input_trace


def test_a_malformed_auth_header_refuses_a_remote_spec(monkeypatch):
    # a spec built in Python is checked as an agents file's is; unchecked,
    # act would play every decision as a transport block
    monkeypatch.setenv("LMFA_AUTH_HEADER", "X-Api-Key secret")
    try:
        AgentSpec(id="remote", kind=AgentKind.REMOTE, endpoint="http://127.0.0.1:9/")
        refused = False
    except AgentSetupError:
        refused = True
    assert refused
