"""lmfa runs without numpy: in a fresh interpreter where ``import numpy``
fails, the CLI imports and a remote match against the mock endpoint plays
with no failed decision."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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
    "frames": sum(len(r["json"].get("frames_b64", ())) for r in a.requests),
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
