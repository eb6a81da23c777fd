"""lmfa runs on the standard library alone.

In a fresh interpreter where ``import numpy`` fails, the CLI imports and a
remote match against the mock endpoint plays with no failed decision.
``import lmfa.cli`` loads none of http.client, requests and urllib3, and
constructing a remote agent spec loads http.client. Where ``import
requests`` fails, a scripted tournament, its replays and its report give
the same bytes as with it, and a remote-vs-idle match plays and replays."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PLAY = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import lmfa.cli
from lmfa.agents.mock_server import MockAgentServer
from lmfa.agents.specs import AgentKind, AgentSpec
from lmfa.config import MatchConfig
from lmfa.tourney.match import run_match

cfg = MatchConfig(seed=5, match_length_frames=160, decision_interval_frames=40)
with MockAgentServer(replies=["A", "Forward + B"]) as a, MockAgentServer(
    replies=["Down, Forward, A"], wire_format="chat"
) as b:
    log = run_match(
        AgentSpec(id="lmfa-wire", kind=AgentKind.REMOTE, endpoint=a.url),
        AgentSpec(id="chat-wire", kind=AgentKind.REMOTE, endpoint=b.url, wire_format="chat"),
        cfg,
    )
    served = len(a.requests) + len(b.requests)
print(json.dumps({
    "served": served,
    "decisions": len(log.decisions),
    "failures": [d["failure"] for d in log.decisions if d["failure"]],
    "frames": sum(len(json.loads(r["body"]).get("frames_b64", ())) for r in a.requests),
}))
"""


def test_remote_match_plays_without_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", PLAY],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result == {"served": 8, "decisions": 8, "failures": [], "frames": 1 + 10 + 10 + 10}


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )


def test_cli_import_loads_no_transport():
    proc = run_fresh(
        "import json, sys; import lmfa.cli; "
        "print(json.dumps(sorted({'http.client', 'requests', 'urllib3'} & set(sys.modules))))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_remote_spec_loads_the_transport_before_any_decision():
    proc = run_fresh(
        "import sys; from lmfa.agents.specs import AgentKind, AgentSpec; "
        "AgentSpec(id='r', kind=AgentKind.REMOTE, endpoint='http://127.0.0.1:9/'); "
        "print('http.client' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


# argv: "blocked" or "available", then a directory holding config.json and
# agents.json; the last stdout line is the exit codes and the transport
# modules loaded
SCRIPTED = """
import json, sys
from pathlib import Path
if sys.argv[1] == "blocked":
    sys.modules["requests"] = None  # any import of requests now raises ImportError
from lmfa.cli import main

work = Path(sys.argv[2])
codes = [main(["tournament", "--config", str(work / "config.json"), "--agents",
               str(work / "agents.json"), "--out", str(work / "run"), "--matches-per-pair", "2"])]
codes += [main(["replay", str(log)]) for log in sorted((work / "run").glob("match_*.json"))]
codes.append(main(["report", str(work / "run"), "--out", str(work / "report")]))
loaded = sorted(
    name for name in ("http.client", "requests", "urllib3") if sys.modules.get(name) is not None
)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""

CONFIG = {"lmfa_config": 1, "match_length_frames": 600, "seed": 7}
SCRIPTED_AGENTS = {"lmfa_agents": 1, "agents": [
    {"id": "idle", "kind": "scripted", "policy": "idle"},
    {"id": "rush", "kind": "scripted", "policy": "rushdown"},
    {"id": "zone", "kind": "scripted", "policy": "zoner"},
]}


def test_scripted_commands_give_the_same_bytes_without_requests(tmp_path):
    files = {}
    for mode in ("blocked", "available"):
        work = tmp_path / mode
        work.mkdir()
        (work / "config.json").write_text(json.dumps(CONFIG))
        (work / "agents.json").write_text(json.dumps(SCRIPTED_AGENTS))
        proc = run_fresh(SCRIPTED, mode, str(work))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"codes": [0] * (1 + 6 + 1), "loaded": []}
        files[mode] = {
            str(path.relative_to(work)): path.read_bytes()
            for directory in ("run", "report")
            for path in sorted((work / directory).iterdir())
        }
    assert len(files["blocked"]) == 6 + 6 + 6  # run/: six logs, six reports; report/: six reports
    assert files["blocked"] == files["available"]


# argv: a directory holding config.json; the last stdout line is the exit
# codes and the third-party transport modules loaded
REMOTE = """
import json, sys
from pathlib import Path
sys.modules["requests"] = None  # any import of requests now raises ImportError
sys.modules["urllib3"] = None
from lmfa.agents.mock_server import MockAgentServer
from lmfa.cli import main

work = Path(sys.argv[1])
with MockAgentServer(replies=["Forward + A", "B"]) as server:
    (work / "agents.json").write_text(json.dumps({"lmfa_agents": 1, "agents": [
        {"id": "remote", "kind": "remote", "endpoint": server.url},
        {"id": "idle", "kind": "scripted", "policy": "idle"},
    ]}))
    codes = [main(["run-match", "--config", str(work / "config.json"), "--agents",
                   str(work / "agents.json"), "--out", str(work / "run")])]
    served = len(server.requests)
codes += [main(["replay", str(log)]) for log in sorted((work / "run").glob("match_*.json"))]
loaded = sorted(name for name in ("requests", "urllib3") if sys.modules.get(name) is not None)
print(json.dumps({"codes": codes, "served": served, "loaded": loaded}))
"""


def test_remote_match_plays_and_replays_without_requests(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    proc = run_fresh(REMOTE, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1]) == {"codes": [0, 0], "served": 600 // 40, "loaded": []}
    assert lines[-2] == "REPLAY=match"
