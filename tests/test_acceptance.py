"""Acceptance suite: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
per criterion; each test also prints an ``ACCEPTANCE n PASS`` line
(visible with ``-s``) after its assertions hold.
"""

from __future__ import annotations

import json
import random
import string
import time
from pathlib import Path

from outcome_fixture import AGENTS, KNOWN_CELLS, fixture_logs
from lmfa.actions import (
    Command,
    CommandError,
    CommandToken,
    parse,
)
from lmfa.agents.gateway import act
from lmfa.agents.mock_server import MockAgentServer
from lmfa.agents.specs import AgentKind, AgentSpec, BotPolicy, FailureKind
from lmfa.cli import EXIT_OK, main
from lmfa.config import MatchConfig
from lmfa.engine.buttons import BIT, MIRROR, Button, decode_chord, encode_chord
from lmfa.engine.core import mirror, mirror_outcome, new_match, step
from lmfa.engine.state import EndReason, Player, trace_line
from lmfa.observe.describe import describe_state, window_indices
from lmfa.reporting import build_heatmap, verify_replay
from lmfa.tourney.match import BUTTON_NAMES, log_from_dict, log_to_dict, run_match
from lmfa.tourney.roundrobin import result_from_logs
from test_chord_masks import token_sets


def bot(name: str, policy: BotPolicy, seed: int = 0, **kw) -> AgentSpec:
    return AgentSpec(id=name, kind=AgentKind.SCRIPTED, policy=policy, seed=seed, **kw)


def _write_inputs(tmp_path: Path, length: int = 5940) -> tuple:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lmfa_config": 1, "match_length_frames": length, "seed": 42}))
    agents = tmp_path / "agents.json"
    agents.write_text(
        json.dumps(
            {
                "lmfa_agents": 1,
                "agents": [
                    {"id": "rush", "kind": "scripted", "policy": "rushdown"},
                    {"id": "zone", "kind": "scripted", "policy": "zoner"},
                    {"id": "rand", "kind": "scripted", "policy": "random", "seed": 7},
                    {"id": "idle", "kind": "scripted", "policy": "idle"},
                ],
            }
        )
    )
    return config, agents


def _tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_01_tournament_determinism(tmp_path):
    """Two tournament runs with 4 scripted bots, seed 42: identical bytes."""
    config, agents = _write_inputs(tmp_path)
    started = time.perf_counter()
    for out in ("t1", "t2"):
        code = main(
            [
                "tournament",
                "--config", str(config),
                "--agents", str(agents),
                "--out", str(tmp_path / out),
                "--seed", "42",
            ]
        )
        assert code == EXIT_OK
    elapsed = time.perf_counter() - started
    t1, t2 = _tree(tmp_path / "t1"), _tree(tmp_path / "t2")
    assert t1.keys() == t2.keys()
    assert all(t1[k] == t2[k] for k in t1)
    assert elapsed < 10.0, f"determinism suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS determinism ({elapsed:.2f}s, {len(t1)} files)")


def test_criterion_02_mirror_fairness():
    """100 random bot matches replay as exact mirror images."""
    started = time.perf_counter()
    config = MatchConfig(match_length_frames=600, decision_interval_frames=40)
    for k in range(100):
        cfg = MatchConfig(
            match_length_frames=600, decision_interval_frames=40, seed=k
        )
        log = run_match(
            bot("a", BotPolicy.RANDOM, seed=k),
            bot("b", BotPolicy.RANDOM, seed=k + 1000),
            cfg,
        )
        inputs = [
            (decode_chord(e1), decode_chord(e2)) for e1, e2 in log.input_trace
        ]
        orig = new_match(cfg)
        refl = mirror(orig)
        assert trace_line(refl) == trace_line(orig)  # symmetric start
        for c1, c2 in inputs:
            orig = step(orig, c1, c2)
            refl = step(refl, MIRROR[c2], MIRROR[c1])
            assert trace_line(refl) == trace_line(mirror(orig)), (
                f"mirror divergence in match {k} at frame {orig.frame}"
            )
        assert refl.round_over == mirror_outcome(orig.round_over)
        assert orig.round_over == log.result
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"mirror suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 PASS mirror fairness ({elapsed:.2f}s)")


def test_criterion_03_rushdown_beats_idle_exactly():
    """Rushdown knocks out idle with exactly 1.000 health remaining.

    Analytic argument: the idle bot only ever blocks, so it deals zero
    damage and zero chip; the winner's health cannot drop below 1000.
    The engine run confirms the knockout.
    """
    log = run_match(bot("rush", BotPolicy.RUSHDOWN), bot("idle", BotPolicy.IDLE), MatchConfig(seed=1))
    assert log.result.winner is Player.P1
    assert log.result.end_reason is EndReason.KNOCKOUT
    assert log.result.winner_health == 1000
    assert log.result.winner_health_fraction == 1.000
    # the analytic bound holds frame by frame: no idle decision ever attacks
    idle_commands = {
        r["command"] for r in log.decisions if r["player"] == "P2"
    }
    assert idle_commands == {"C"}
    print("\nACCEPTANCE 3 PASS rushdown vs idle knockout at 1.000")


def test_criterion_04_reference_outcome_reproduction(tmp_path):
    """The published outcome fixture reproduces the win-rate vector and cells."""
    logs_dir = tmp_path / "logs"
    logs_dir.mkdir()
    for log in fixture_logs():
        name = f"match_{log['pair_index']}_0_{log['p1']}_vs_{log['p2']}.json"
        (logs_dir / name).write_text(json.dumps(log))
    assert main(["report", str(logs_dir)]) == EXIT_OK

    rows = (logs_dir / "win_rates.csv").read_text().strip().splitlines()[1:]
    agents_col = [r.split(",")[0] for r in rows]
    rates_col = [r.split(",")[1] for r in rows]
    assert agents_col == list(AGENTS)
    assert rates_col == ["1.0", "0.8", "0.6", "0.4", "0.2", "0.0"]

    matrix_lines = (logs_dir / "matrix.csv").read_text().strip().splitlines()
    header = matrix_lines[0].split(",")[1:]
    cells = {}
    for line in matrix_lines[1:]:
        parts = line.split(",")
        for col_name, value in zip(header, parts[1:]):
            cells[(parts[0], col_name)] = value
    for (row, col), health in KNOWN_CELLS.items():
        assert cells[(row, col)] == f"W:{health:.3f}"
        assert cells[(col, row)] == "L"
    print("\nACCEPTANCE 4 PASS reference outcome reproduction")


def test_criterion_05_observation_window():
    """Frame 100 samples exactly {64, 68, ..., 100}: ten frames, spacing 4."""
    idx = window_indices(100)
    assert idx == (64, 68, 72, 76, 80, 84, 88, 92, 96, 100)
    assert len(idx) == 10
    assert all(b - a == 4 for a, b in zip(idx, idx[1:]))
    assert window_indices(8) == (0, 4, 8)
    assert window_indices(36) == tuple(range(0, 37, 4))
    print("\nACCEPTANCE 5 PASS observation window indices")


def test_criterion_06_parser_suite():
    """10k fuzz without crash, 10k round-trips, pinned command structures."""
    started = time.perf_counter()
    T = CommandToken

    cmd = parse("Left + A")
    assert token_sets(cmd.steps) == (frozenset({T.LEFT, T.A}),)
    cmd = parse("Down, Forward, A")
    assert token_sets(cmd.steps) == (frozenset({T.DOWN}), frozenset({T.FORWARD}), frozenset({T.A}))
    cmd = parse("Forward, Forward, C")
    assert token_sets(cmd.steps) == (frozenset({T.FORWARD}), frozenset({T.FORWARD}), frozenset({T.C}))

    rng = random.Random(987654321)
    alphabet = string.printable + "\x00\xe9☃"
    for _ in range(10_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 64)))
        try:
            result = parse(text)
            assert isinstance(result, Command)
        except CommandError:
            pass

    tokens = [t.value for t in T] + ["Block", "Jump", "Crouch"]
    count = 0
    while count < 10_000:
        parts = []
        for _ in range(rng.randint(1, 5)):
            parts.append(" + ".join(rng.sample(tokens, rng.randint(1, 3))))
        text = ", ".join(parts)
        try:
            cmd = parse(text)
        except CommandError:
            continue
        count += 1
        again = parse(cmd.normalized)
        assert again.steps == cmd.steps and again.normalized == cmd.normalized

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"parser suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 6 PASS parser suite ({elapsed:.2f}s)")


def test_criterion_07_replay_mutation_detection():
    """50 random single-bit input mutations each caught at the exact frame."""
    log = run_match(
        bot("a", BotPolicy.RANDOM, seed=21),
        bot("z", BotPolicy.ZONER),
        MatchConfig(seed=77, match_length_frames=600),
    )
    base = log_to_dict(log)
    assert verify_replay(log_from_dict(base)).ok
    rng = random.Random(555)
    n = len(base["input_trace"])
    for _ in range(50):
        data = {**base, "input_trace": [list(r) for r in base["input_trace"]]}
        frame = rng.randrange(n)
        side = rng.randrange(2)
        button = rng.choice(list(Button))
        held = decode_chord(data["input_trace"][frame][side])
        data["input_trace"][frame][side] = encode_chord(held ^ BIT[button])
        verdict = verify_replay(log_from_dict(data))
        assert not verdict.ok
        assert verdict.kind == "state_divergence"
        assert verdict.first_divergent_frame == frame + 1
    print("\nACCEPTANCE 7 PASS replay mutation detection (50/50)")


def test_criterion_08_gateway_timeout_contract():
    """A timing-out remote agent falls back to block within the stall bound."""
    timeout_ms, retries = 150, 1
    with MockAgentServer(replies=["A"], delay_s=0.5) as server:
        spec = AgentSpec(
            id="slow",
            kind=AgentKind.REMOTE,
            endpoint=server.url,
            model_name="m",
            timeout_ms=timeout_ms,
            max_retries=retries,
        )
        state = new_match(MatchConfig())
        obs = describe_state(state, Player.P1)
        started = time.perf_counter()
        decision = act(spec, obs, "sys")
        stall_ms = (time.perf_counter() - started) * 1000
        assert decision.failure is FailureKind.TIMEOUT
        assert decision.command.normalized == "C"
        assert stall_ms <= timeout_ms * (retries + 1) + 50

        # and a full match against the dead-slow agent still completes
        cfg = MatchConfig(seed=2, match_length_frames=120, decision_interval_frames=40)
        log = run_match(spec, bot("idle", BotPolicy.IDLE), cfg)
        assert log.result is not None
        p1 = [r for r in log.decisions if r["player"] == "P1"]
        assert all(r["failure"] == FailureKind.TIMEOUT.value for r in p1)
        assert all(r["command"] == "C" for r in p1)
    print(f"\nACCEPTANCE 8 PASS gateway timeout contract ({stall_ms:.0f}ms stall)")


def test_criterion_09_heatmap_exactness(tmp_path):
    """Always-A bot: normalized row is 1.0 at A; counts match a recount."""
    script = tmp_path / "always_a.txt"
    script.write_text("A\n")
    puncher = bot("puncher", BotPolicy.FIXED_SCRIPT, script_path=str(script))
    log = run_match(puncher, bot("idle", BotPolicy.IDLE), MatchConfig(seed=5, match_length_frames=600))
    data = log_to_dict(log)

    result = result_from_logs([log_from_dict(data)])
    row = build_heatmap(result)["puncher"]
    assert row["A"] == 1.0
    assert all(value == 0.0 for name, value in row.items() if name != "A")

    recount = {name: 0 for name in BUTTON_NAMES.values()}
    for enc1, _ in data["input_trace"]:
        for b in Button:
            if decode_chord(enc1) & BIT[b]:
                recount[BUTTON_NAMES[b]] += 1
    assert result["button_counts"]["puncher"] == recount
    assert recount["A"] > 0
    print("\nACCEPTANCE 9 PASS heatmap exactness")
