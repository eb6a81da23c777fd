"""Self-tests of the benchmark's correctness gate.

Each tampering below must make the gate report a problem, and the untampered
runs must pass, so the gate is neither vacuous nor always failing.

    python3 -m pytest bench/test_gate.py -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from gate import (  # noqa: E402
    check_remote_log,
    check_replays,
    check_report_regen,
    cli,
    compare_reports,
    load_log,
)
from lmfa.actions import parse  # noqa: E402
from lmfa.agents.mock_server import MockAgentServer  # noqa: E402


def write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def tournament(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("tournament")
    config = write(base / "config.json", {"lmfa_config": 1, "match_length_frames": 600, "seed": 3})
    agents = write(base / "agents.json", {"lmfa_agents": 1, "agents": [
        {"id": "idle", "kind": "scripted", "policy": "idle"},
        {"id": "rushdown", "kind": "scripted", "policy": "rushdown"},
        {"id": "random1", "kind": "scripted", "policy": "random", "seed": 5},
    ]})
    out = base / "out"
    code, _, err = cli("tournament", "--config", config, "--agents", agents, "--out", str(out))
    assert code == 0, err
    return out


def tampered_log(tournament: Path, tmp_path: Path, edit) -> Path:
    src = sorted(tournament.glob("match_*.json"))[0]
    log = load_log(src)
    edit(log)
    dst = tmp_path / src.name
    dst.write_text(json.dumps(log))
    return dst


def test_untampered_tournament_passes(tournament, tmp_path):
    assert check_replays(sorted(tournament.glob("match_*.json"))) == []
    assert check_report_regen(tournament, tmp_path / "report") == []


def test_flipped_chord_fails(tournament, tmp_path):
    def flip(log):
        frame = log["input_trace"][100]
        frame[0] = "" if frame[0] else "A"

    assert check_replays([tampered_log(tournament, tmp_path, flip)])


def test_forged_result_fails(tournament, tmp_path):
    def forge(log):
        result = log["result"]
        result["winner"] = "P2" if result["winner"] == "P1" else "P1"

    problems = check_replays([tampered_log(tournament, tmp_path, forge)])
    assert problems and "result_forgery" in problems[0]


@pytest.mark.parametrize("name", ["matrix.csv", "heatmap.csv"])
def test_altered_report_byte_fails(tournament, tmp_path, name):
    altered = tmp_path / "altered"
    shutil.copytree(tournament, altered)
    data = bytearray((altered / name).read_bytes())
    pos = max(i for i, ch in enumerate(data) if chr(ch).isdigit())
    data[pos] = ord("0") if data[pos] != ord("0") else ord("1")
    (altered / name).write_bytes(bytes(data))
    assert compare_reports(tournament, altered)
    assert check_report_regen(altered, tmp_path / "report")


def run_remote_match(tmp_path: Path, replies) -> tuple:
    config = write(tmp_path / "config.json", {"lmfa_config": 1, "match_length_frames": 400, "seed": 9})
    with MockAgentServer(replies=replies) as a, MockAgentServer(replies=replies, wire_format="chat") as b:
        agents = write(tmp_path / "agents.json", {"lmfa_agents": 1, "agents": [
            {"id": "a", "kind": "remote", "endpoint": a.url, "model_name": "m"},
            {"id": "b", "kind": "remote", "endpoint": b.url, "model_name": "m", "wire_format": "chat"},
        ]})
        out = tmp_path / "out"
        code, _, err = cli("run-match", "--config", config, "--agents", agents, "--out", str(out))
        assert code == 0, err
        served = [len(a.requests), len(b.requests)]
    (log_path,) = out.glob("match_*.json")
    return load_log(log_path), served


COMMANDS = ["Forward + A", "Back", "Down, Forward, A", "Jump + Forward", "B"] * 2


def test_parseable_mock_replies_pass(tmp_path):
    replies = [f"Thinking it over.\n{c}" for c in COMMANDS]
    log, served = run_remote_match(tmp_path, replies)
    expected = [parse(c).normalized for c in COMMANDS]
    assert check_remote_log(log, replies, expected, served) == []


def test_unparseable_mock_reply_fails(tmp_path):
    replies = [f"Thinking it over.\n{c}" for c in COMMANDS]
    replies[3] = "Thinking it over.\nJump + Sideways"
    log, served = run_remote_match(tmp_path, replies)
    expected = [parse(c).normalized for c in COMMANDS]
    problems = check_remote_log(log, replies, expected, served)
    assert any("failure no_command" in p for p in problems)
    assert any("decision 3: executed" in p for p in problems)
