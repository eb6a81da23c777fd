"""Reading a match log and writing it again reproduces its bytes."""

from __future__ import annotations

import json

import pytest

from lmfa.agents.mock_server import MockAgentServer
from lmfa.agents.specs import AgentKind, AgentSpec, BotPolicy
from lmfa.cli import EXIT_OK, main
from lmfa.config import MatchConfig
from lmfa.tourney.match import (
    MalformedLogError,
    log_from_dict,
    log_to_dict,
    read_log,
    run_match,
    write_log,
)

BOTS = [
    {"id": "rush", "kind": "scripted", "policy": "rushdown"},
    {"id": "zone", "kind": "scripted", "policy": "zoner"},
    {"id": "rand", "kind": "scripted", "policy": "random", "seed": 7},
    {"id": "idle", "kind": "scripted", "policy": "idle"},
]

# a command, an extraction failure, prose around a command, and non-ASCII text
REPLIES = ["Forward + A", "no idea", "I think Down + B now", "Bloqué: C ✓"]


def remote_log():
    cfg = MatchConfig(seed=3, match_length_frames=400, decision_interval_frames=40)
    with MockAgentServer(replies=REPLIES) as server:
        remote = AgentSpec(id="remote", kind=AgentKind.REMOTE, endpoint=server.url)
        idle = AgentSpec(id="idle", kind=AgentKind.SCRIPTED, bot_policy=BotPolicy.IDLE)
        return run_match(remote, idle, cfg)


def assert_rewrites_exactly(path, tmp_path):
    copy = tmp_path / "rewritten.json"
    write_log(read_log(path), copy)
    assert copy.read_bytes() == path.read_bytes(), path.name


def test_rewriting_every_tournament_log_is_byte_exact(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"lmfa_config": 1, "match_length_frames": 900, "seed": 5}))
    agents = tmp_path / "agents.json"
    agents.write_text(json.dumps({"lmfa_agents": 1, "agents": BOTS}))
    out = tmp_path / "t"
    argv = ["tournament", "--config", str(cfg), "--agents", str(agents), "--out", str(out)]
    assert main(argv + ["--matches-per-pair", "2"]) == EXIT_OK
    paths = sorted(out.glob("match_*.json"))
    assert len(paths) == 12
    for path in paths:
        assert_rewrites_exactly(path, tmp_path)


def test_rewriting_a_remote_log_is_byte_exact(tmp_path):
    log = remote_log()
    failures = {d["failure"] for d in log.decisions if d["player"] == "P1"}
    assert failures == {None, "no_command"}
    path = tmp_path / "remote.json"
    write_log(log, path)
    assert_rewrites_exactly(path, tmp_path)


def test_top_level_seed_must_equal_config_seed():
    data = log_to_dict(remote_log())
    assert data["seed"] == data["config"]["seed"] == 3
    with pytest.raises(MalformedLogError, match="'seed' is not config.seed, 3"):
        log_from_dict({**data, "seed": 4})
