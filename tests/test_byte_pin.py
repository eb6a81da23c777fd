"""Byte pins: a fixed scripted tournament and a fixed remote match must
write exactly these bytes.

Scripted reruns are byte-identical by design, so any change to the engine,
the command compiler, the log format or the report writers that alters a
single byte shows up here as a changed SHA-256. A change that is meant to
alter these bytes must update the constants in the same commit.
"""

from __future__ import annotations

import hashlib
import json

from lmfa.agents.mock_server import MockAgentServer
from lmfa.agents.specs import AgentKind, AgentSpec
from lmfa.cli import EXIT_OK, main
from lmfa.config import MatchConfig
from lmfa.tourney.match import log_to_dict, run_match

BOTS = [
    {"id": "idle", "kind": "scripted", "policy": "idle"},
    {"id": "rush", "kind": "scripted", "policy": "rushdown"},
    {"id": "zone", "kind": "scripted", "policy": "zoner"},
    {"id": "rand", "kind": "scripted", "policy": "random", "seed": 5},
]

TOURNAMENT_SHA256 = {
    "heatmap.csv": "05f394fa778d1b6be55a3b73eefed3d7dd9f5cd09a7a4c21659b771f9570efdf",
    "heatmap_norm.csv": "7d552e1c5e11b18149373bf1ad987de1a490ebd990755d4a85691df1bf72d70e",
    "heatmap_norm.dat": "97b1403cd361fd06fbaee9409964dbf057e31829cbb8509bf4a5632fa898fb5f",
    "match_0_0_idle_vs_rush.json": "91af2e9143743d23441667ff81cd881fce7fbd0c8ea57d2c0b1f52e769d97324",
    "match_0_1_rush_vs_idle.json": "540391c2f452d31be5dc9bafa5d804ab6a6ef3552fbde0b75d3bebd5a2232dab",
    "match_1_0_zone_vs_idle.json": "daabf51f6428abb44c3b0d49f6186c8409791c9a2f5b941f8ceaa27c1d58d0b6",
    "match_1_1_idle_vs_zone.json": "fecbbc0b6d8309e1a9fa837d797183dea07aac38d6bb965d366b527387c8d117",
    "match_2_0_idle_vs_rand.json": "aa7c39070c34329dcf834c16a01228c1d46973d3699a5a38ba174528fc9c63cd",
    "match_2_1_rand_vs_idle.json": "588629d07271d461a86038790efa522fc2f42b2026969ce7dfbbe702ab00dc62",
    "match_3_0_zone_vs_rush.json": "79039edbd2109cd48ebe370e50e53978d7144cae64d9e7a72f7f4649300a6b53",
    "match_3_1_rush_vs_zone.json": "3c2e80addc4ef407cfa09149a40a8d40e04b9e73190bbaec6922d9bfe05278e4",
    "match_4_0_rush_vs_rand.json": "76aee141451292295f8abf30ae97f5f7497485f79dd29a9bdb5cc639849d125d",
    "match_4_1_rand_vs_rush.json": "c2b725d33b405d0fe7e25478ae8f8cf2a9de04c314cb5509e06d514faadd4855",
    "match_5_0_rand_vs_zone.json": "9a3fee25acf2555dcf7e39a94258140ef5483774b7314957278a47faec55aab5",
    "match_5_1_zone_vs_rand.json": "9bd537b7bd5319681a1625a1c5515b7ec634cf7ec27d0e53c091251ce768dcb8",
    "matrix.csv": "9bc39d08b49ef35a68b5e4a2a3a91642ab920ea1ee1bb6a0ad1791510b4ec0ae",
    "tournament.json": "6082e5b3cb3db2b8a6a8f3ff0f5c7f3ba57b3334b2acebc5c39a2457c51691e5",
    "win_rates.csv": "5bc2fcb1fc464356f0636ab321fcce6426b065e45571e3c1573427159fb4b02f",
}

REMOTE_LOG_SHA256 = "6b28ca01f34e66c302cc84dbb949a87a4d23638a8fc2c889b18b6db5151437a5"
REMOTE_BODIES_SHA256 = "7685509ebe7f3a95c59fea8e47cf2cd24a5a3db416a64c51955936855e199454"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_scripted_tournament_bytes(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lmfa_config": 1, "match_length_frames": 600}))
    agents = tmp_path / "agents.json"
    agents.write_text(json.dumps({"lmfa_agents": 1, "agents": BOTS}))
    out = tmp_path / "out"
    argv = ["tournament", "--config", str(config), "--agents", str(agents)]
    argv += ["--out", str(out), "--matches-per-pair", "2", "--seed", "3"]
    assert main(argv) == EXIT_OK
    digests = {p.name: sha256(p.read_bytes()) for p in sorted(out.iterdir())}
    assert digests == TOURNAMENT_SHA256


def test_remote_match_bytes():
    cfg = MatchConfig(seed=11, match_length_frames=400, decision_interval_frames=40)
    with MockAgentServer(
        replies=["Down, Forward, A", "Forward + B", "Back", "C"]
    ) as s1, MockAgentServer(
        replies=["Down + A", "B, C", "Jump + Forward"], wire_format="chat"
    ) as s2:
        r1 = AgentSpec(
            id="r1", kind=AgentKind.REMOTE, endpoint=s1.url, model_name="m1", timeout_ms=20000
        )
        r2 = AgentSpec(
            id="r2",
            kind=AgentKind.REMOTE,
            endpoint=s2.url,
            model_name="m2",
            wire_format="chat",
            timeout_ms=20000,
        )
        data = log_to_dict(run_match(r1, r2, cfg))
    assert all(d["failure"] is None for d in data["decisions"])
    for d in data["decisions"]:
        d["latency_ms"] = 0
    log_bytes = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    bodies = b"".join(r["body"] for r in s1.requests + s2.requests)
    assert (sha256(log_bytes), sha256(bodies)) == (REMOTE_LOG_SHA256, REMOTE_BODIES_SHA256)
