"""Reports: matrix, win rates, heatmap, replay verification."""

from __future__ import annotations

import random

import pytest

from outcome_fixture import (
    AGENTS,
    EXPECTED_WIN_RATES,
    KNOWN_CELLS,
    fixture_log,
    fixture_logs,
)
from lmfa.agents import AgentKind, AgentSpec, BotPolicy
from lmfa.config import MatchConfig
from lmfa.engine import Button, decode_chord, encode_chord
from lmfa.reporting import (
    ReportIntegrityError,
    build_heatmap,
    build_matrix,
    build_win_rates,
    heatmap_csv,
    matrix_csv,
    verify_replay,
    win_rates_csv,
)
from lmfa.tourney import (
    TournamentResult,
    log_to_dict,
    result_from_logs,
    run_match,
)
from lmfa.tourney.match import BUTTON_NAMES, UnsupportedSchemaError


def bot(name: str, policy: BotPolicy, **kw) -> AgentSpec:
    return AgentSpec(id=name, kind=AgentKind.SCRIPTED, bot_policy=policy, **kw)


class TestMatrix:
    def test_fixture_known_cells(self):
        result = result_from_logs(fixture_logs())
        report = build_matrix(result)
        assert report.agents == AGENTS
        for (row, col), health in KNOWN_CELLS.items():
            cell = report.cells[(row, col)]
            assert cell.outcome == "row_win"
            assert cell.winner_health_fraction == pytest.approx(health, abs=5e-4)

    def test_fixture_csv_carries_three_decimals(self):
        result = result_from_logs(fixture_logs())
        text = matrix_csv(build_matrix(result))
        assert "W:0.025" in text
        assert "W:1.000" in text
        assert "W:0.683" in text
        assert "W:0.775" in text
        assert "W:0.200" in text
        # the losing side of each decided pair renders as L
        lines = text.strip().splitlines()
        gpt_row = next(l for l in lines if l.startswith("gpt4o,"))
        assert gpt_row == "gpt4o,L,L,L,L,L,-"

    def test_empty_tournament_empty_report(self):
        report = build_matrix(
            TournamentResult(agents=(), cells=(), standings=(), button_counts={})
        )
        assert report.agents == ()
        assert report.cells == {}

    def test_missing_pair_is_integrity_error(self):
        logs = fixture_logs()[:-1]
        # reconstruction still sees all six agents through other pairs
        result = result_from_logs(logs)
        with pytest.raises(ReportIntegrityError):
            build_matrix(result)

    def test_draw_cell_renders_as_d(self):
        logs = [fixture_log(0, "a", "b", "a", 0.5)]
        logs[0]["result"].update(
            {"winner": "Draw", "winner_health": None, "winner_health_fraction": None,
             "end_reason": "timeout"}
        )
        text = matrix_csv(build_matrix(result_from_logs(logs)))
        assert "D" in text


class TestWinRates:
    def test_fixture_win_rate_vector(self):
        result = result_from_logs(fixture_logs())
        rows = build_win_rates(result)
        assert [r.agent for r in rows] == list(AGENTS)
        assert [r.win_rate for r in rows] == EXPECTED_WIN_RATES

    def test_fixture_csv_second_column(self):
        result = result_from_logs(fixture_logs())
        text = win_rates_csv(build_win_rates(result))
        column = [line.split(",")[1] for line in text.strip().splitlines()[1:]]
        assert column == ["1.0", "0.8", "0.6", "0.4", "0.2", "0.0"]

    def test_single_match(self):
        logs = [fixture_log(0, "a", "b", "a", 0.4)]
        rows = build_win_rates(result_from_logs(logs))
        assert [(r.agent, r.win_rate) for r in rows] == [("a", 1.0), ("b", 0.0)]

    def test_all_draws_all_half(self):
        logs = []
        ids = ["a", "b", "c"]
        pair = 0
        for i in range(3):
            for j in range(i + 1, 3):
                log = fixture_log(pair, ids[i], ids[j], ids[i], 0.5)
                log["result"].update(
                    {"winner": "Draw", "winner_health": None,
                     "winner_health_fraction": None, "end_reason": "timeout"}
                )
                logs.append(log)
                pair += 1
        rows = build_win_rates(result_from_logs(logs))
        assert [r.win_rate for r in rows] == [0.5, 0.5, 0.5]

    def test_ties_break_by_health_then_id(self):
        logs = [
            fixture_log(0, "aa", "bb", "aa", 0.3),
            fixture_log(1, "aa", "cc", "cc", 0.9),
            fixture_log(2, "bb", "cc", "bb", 0.8),
        ]
        rows = build_win_rates(result_from_logs(logs))
        # everyone 1-1; higher retained health first
        assert [r.agent for r in rows] == ["cc", "bb", "aa"]


class TestHeatmap:
    def test_always_a_bot_row(self, tmp_path):
        script = tmp_path / "a.txt"
        script.write_text("A\n")
        puncher = bot("puncher", BotPolicy.FIXED_SCRIPT, script_path=str(script))
        log = run_match(puncher, bot("idle", BotPolicy.IDLE), MatchConfig(seed=3, match_length_frames=400))
        heat = build_heatmap([log_to_dict(log)])
        row = heat.normalized["puncher"]
        assert row["A"] == 1.0
        assert all(v == 0.0 for k, v in row.items() if k != "A")
        idle_row = heat.normalized["idle"]
        assert idle_row["C"] == 1.0
        assert all(v == 0.0 for k, v in idle_row.items() if k != "C")

    def test_counts_match_independent_recount(self):
        cfg = MatchConfig(seed=8, match_length_frames=600)
        logs = [
            log_to_dict(run_match(bot("r1", BotPolicy.RANDOM, seed=1), bot("z1", BotPolicy.ZONER), cfg)),
            log_to_dict(run_match(bot("z1", BotPolicy.ZONER), bot("r1", BotPolicy.RANDOM, seed=1), cfg)),
        ]
        heat = build_heatmap(logs)
        # independent fold over the raw traces
        recount = {aid: {n: 0 for n in BUTTON_NAMES.values()} for aid in ("r1", "z1")}
        for log in logs:
            for side, aid in (("P1", log["p1"]), ("P2", log["p2"])):
                idx = 0 if side == "P1" else 1
                for row in log["input_trace"]:
                    for b in decode_chord(row[idx]):
                        recount[aid][BUTTON_NAMES[b]] += 1
        assert heat.counts == recount

    def test_press_edge_mode_counts_less(self):
        cfg = MatchConfig(seed=9, match_length_frames=400)
        log = log_to_dict(run_match(bot("r1", BotPolicy.RANDOM, seed=2), bot("idle", BotPolicy.IDLE), cfg))
        frames = build_heatmap([log], counting="held_frames")
        edges = build_heatmap([log], counting="press_edges")
        total_frames = sum(frames.counts["idle"].values())
        total_edges = sum(edges.counts["idle"].values())
        assert 0 < total_edges < total_frames

    def test_all_zero_row_stays_zero(self):
        logs = [fixture_log(0, "a", "b", "a", 0.5)]
        heat = build_heatmap(logs)
        assert all(v == 0.0 for v in heat.normalized["a"].values())

    def test_csv_shape(self, tmp_path):
        logs = [fixture_log(0, "a", "b", "a", 0.5)]
        text = heatmap_csv(build_heatmap(logs))
        header = text.splitlines()[0]
        assert header == "agent,Up,Down,Left,Right,A,B,C,Start"


class TestVerifyReplay:
    def make_log(self, seed=5):
        return run_match(
            bot("r1", BotPolicy.RANDOM, seed=3),
            bot("z1", BotPolicy.ZONER),
            MatchConfig(seed=seed, match_length_frames=600),
        )

    def test_untampered_log_matches(self):
        verdict = verify_replay(log_to_dict(self.make_log()))
        assert verdict.ok and verdict.kind == "match"

    def test_flipped_input_bit_detected_at_exact_frame(self):
        rng = random.Random(1234)
        base = log_to_dict(self.make_log())
        n = len(base["input_trace"])
        for _ in range(10):
            data = {**base, "input_trace": [list(r) for r in base["input_trace"]]}
            frame = rng.randrange(n)
            side = rng.randrange(2)
            button = rng.choice(list(Button))
            held = set(decode_chord(data["input_trace"][frame][side]))
            held.symmetric_difference_update({button})
            data["input_trace"][frame][side] = encode_chord(frozenset(held))
            verdict = verify_replay(data)
            assert not verdict.ok
            assert verdict.kind == "state_divergence"
            assert verdict.first_divergent_frame == frame + 1

    def test_edited_result_is_flagged_as_forgery(self):
        data = log_to_dict(self.make_log())
        data["result"] = {**data["result"], "winner_health": 123}
        verdict = verify_replay(data)
        assert not verdict.ok
        assert verdict.kind == "result_forgery"

    def test_malformed_trace_row_is_divergence(self):
        base = log_to_dict(self.make_log())
        for bad in (["C"], ["", "", ""], 7, ["A", 5]):
            data = {**base, "input_trace": list(base["input_trace"])}
            data["input_trace"][3] = bad
            verdict = verify_replay(data)
            assert not verdict.ok
            assert verdict.kind == "state_divergence"
            assert verdict.first_divergent_frame == 4

    def test_schema_version_checked(self):
        data = log_to_dict(self.make_log())
        data["schema"] = "lmfa-log/2"
        with pytest.raises(UnsupportedSchemaError):
            verify_replay(data)
