"""Reports: matrix, win rates, heatmap, replay verification."""

from __future__ import annotations

import random
import time
import tracemalloc
from pathlib import Path

import pytest

from outcome_fixture import (
    AGENTS,
    EXPECTED_WIN_RATES,
    KNOWN_CELLS,
    fixture_log,
    fixture_logs,
)
from lmfa.agents.prompt import PROMPT_VERSION
from lmfa.agents.specs import AgentKind, AgentSpec, BotPolicy
from lmfa.config import MatchConfig
from lmfa.engine.buttons import BIT, Button, decode_chord, encode_chord
from lmfa.reporting import (
    build_heatmap,
    build_win_rates,
    heatmap_table,
    matrix_csv,
    verify_replay,
    win_rates_csv,
    write_reports,
)
from lmfa.tourney.match import (
    BUTTON_NAMES,
    MalformedLogError,
    log_from_dict,
    log_to_dict,
    run_match,
)
from lmfa.tourney.roundrobin import ReportIntegrityError, aggregate, result_from_logs


def bot(name: str, policy: BotPolicy, **kw) -> AgentSpec:
    return AgentSpec(id=name, kind=AgentKind.SCRIPTED, bot_policy=policy, **kw)


def records(logs):
    return [log_from_dict(log) for log in logs]


class TestMatrix:
    def test_fixture_known_cells(self):
        result = result_from_logs(records(fixture_logs()))
        cells = {(c["row"], c["col"]): c for c in result["matrix"]}
        assert result["agents"] == list(AGENTS)
        for (row, col), health in KNOWN_CELLS.items():
            cell = cells[(row, col)]
            assert cell["winner"] == "row"
            assert cell["winner_health_fraction"] == f"{health:.3f}"

    def test_fixture_csv_carries_three_decimals(self):
        result = result_from_logs(records(fixture_logs()))
        text = matrix_csv(result)
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
        text = matrix_csv(
            {"schema": "lmfa-tournament/1", "agents": [], "matrix": [], "standings": [],
             "button_counts": {}}
        )
        assert text == ",\n"  # no agent columns, no rows

    def test_missing_pair_is_integrity_error(self):
        logs = fixture_logs()[:-1]
        # reconstruction still sees all six agents through other pairs
        with pytest.raises(ReportIntegrityError):
            matrix_csv(result_from_logs(records(logs)))

    def test_forged_repeat_index_is_refused_at_once(self):
        log = fixture_log(0, "a", "b", "a", 0.5)
        # a copy filed as repeat 10**6, its seed following the schedule rule
        forged = {**log, "repeat_index": 10**6, "seed": 10**6,
                  "config": {**log["config"], "seed": 10**6}}
        start = time.perf_counter()
        with pytest.raises(ReportIntegrityError) as refused:
            result_from_logs(records([log, forged]))
        assert time.perf_counter() - start < 0.5
        assert len(str(refused.value)) < 1024
        assert "repeat index 1000000" in str(refused.value)

    def test_missing_entries_are_named_up_to_five(self):
        ids = ["a", "b", "c", "d", "e", "f", "g", "h"]  # 28 pairs, 27 missing
        with pytest.raises(ReportIntegrityError) as refused:
            aggregate(ids, records([fixture_log(0, "a", "b", "a", 0.5)]))
        message = str(refused.value)
        assert message.startswith("no log for pair 1 ('a', 'c') repeat 0; ")
        assert message.count("; pair ") == 4
        assert message.endswith("; and 22 more")

    def test_forged_agent_ids_do_not_size_the_schedule(self):
        # 60 logs naming 120 fresh agents make 7,140 pairs; a copy of the
        # first filed as repeat 59 asks for 60 repeats of each, so 428,400
        # entries against 61 logs
        logs = [fixture_log(i, f"r{i}", f"c{i}", f"r{i}", 0.5) for i in range(60)]
        forged = {**logs[0], "repeat_index": 59, "seed": 59,
                  "config": {**logs[0]["config"], "seed": 59}}
        logs = records(logs + [forged])
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ReportIntegrityError) as refused:
                result_from_logs(logs)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 10 * 2**20
        message = str(refused.value)
        assert message.startswith("no log for pair 0 ('r0', 'c0') repeat 1; ")
        assert message.count("; pair ") == 4
        assert message.endswith(f"; and {7140 * 60 - 61 - 5} more")

    def test_off_schedule_log_is_refused_as_it_is_read(self):
        # pair 1 and 2 are missing too, but the pair-99 copy is met first
        log = fixture_log(0, "a", "b", "a", 0.5)
        with pytest.raises(ReportIntegrityError) as refused:
            aggregate(["a", "b", "c"], records([log, {**log, "pair_index": 99}]))
        assert "(pair 99, repeat 0) is outside the round-robin schedule" in str(refused.value)

    def test_log_of_another_prompt_version_is_refused(self):
        # a whole tournament but for one log's prompt: its results are not
        # comparable with the others'
        logs = fixture_logs()
        logs[3] = {**logs[3], "prompt_version": "prompt-v0"}
        with pytest.raises(ReportIntegrityError) as refused:
            result_from_logs(records(logs))
        message = str(refused.value)
        assert message == (
            "log internvl vs claude (pair 3, repeat 0) has prompt version 'prompt-v0',"
            f" but log claude vs gemini (pair 0, repeat 0) has {PROMPT_VERSION!r}"
        )

    def test_draw_cell_renders_as_d(self):
        logs = [fixture_log(0, "a", "b", "a", 0.5)]
        logs[0]["result"].update(
            {"winner": "Draw", "winner_health": None, "winner_health_fraction": None,
             "end_reason": "timeout"}
        )
        text = matrix_csv(result_from_logs(records(logs)))
        assert "D" in text


class TestWinRates:
    def test_fixture_win_rate_vector(self):
        result = result_from_logs(records(fixture_logs()))
        rows = build_win_rates(result)
        assert [r["agent"] for r in rows] == list(AGENTS)
        assert [r["win_rate"] for r in rows] == EXPECTED_WIN_RATES

    def test_fixture_csv_second_column(self):
        result = result_from_logs(records(fixture_logs()))
        text = win_rates_csv(build_win_rates(result))
        column = [line.split(",")[1] for line in text.strip().splitlines()[1:]]
        assert column == ["1.0", "0.8", "0.6", "0.4", "0.2", "0.0"]

    def test_single_match(self):
        logs = [fixture_log(0, "a", "b", "a", 0.4)]
        rows = build_win_rates(result_from_logs(records(logs)))
        assert [(r["agent"], r["win_rate"]) for r in rows] == [("a", 1.0), ("b", 0.0)]

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
        rows = build_win_rates(result_from_logs(records(logs)))
        assert [r["win_rate"] for r in rows] == [0.5, 0.5, 0.5]

    def test_ties_break_by_health_then_id(self):
        logs = [
            fixture_log(0, "aa", "bb", "aa", 0.3),
            fixture_log(1, "aa", "cc", "cc", 0.9),
            fixture_log(2, "bb", "cc", "bb", 0.8),
        ]
        rows = build_win_rates(result_from_logs(records(logs)))
        # everyone 1-1; higher retained health first
        assert [r["agent"] for r in rows] == ["cc", "bb", "aa"]


class TestHeatmap:
    def test_always_a_bot_row(self, tmp_path):
        script = tmp_path / "a.txt"
        script.write_text("A\n")
        puncher = bot("puncher", BotPolicy.FIXED_SCRIPT, script_path=str(script))
        log = run_match(puncher, bot("idle", BotPolicy.IDLE), MatchConfig(seed=3, match_length_frames=400))
        heat = build_heatmap(result_from_logs([log_from_dict(log_to_dict(log))]))
        row = heat["puncher"]
        assert row["A"] == 1.0
        assert all(v == 0.0 for k, v in row.items() if k != "A")
        idle_row = heat["idle"]
        assert idle_row["C"] == 1.0
        assert all(v == 0.0 for k, v in idle_row.items() if k != "C")

    def test_counts_match_independent_recount(self):
        cfg = MatchConfig(seed=8, match_length_frames=600)
        logs = [
            log_to_dict(run_match(bot("r1", BotPolicy.RANDOM, seed=1), bot("z1", BotPolicy.ZONER), cfg)),
            log_to_dict(
                run_match(
                    bot("z1", BotPolicy.ZONER),
                    bot("r1", BotPolicy.RANDOM, seed=1),
                    MatchConfig(seed=9, match_length_frames=600),
                    repeat_index=1,
                )
            ),
        ]
        result = result_from_logs(records(logs))
        # independent fold over the raw traces
        recount = {aid: {n: 0 for n in BUTTON_NAMES.values()} for aid in ("r1", "z1")}
        for log in logs:
            for side, aid in (("P1", log["p1"]), ("P2", log["p2"])):
                idx = 0 if side == "P1" else 1
                for row in log["input_trace"]:
                    for b in Button:
                        if decode_chord(row[idx]) & BIT[b]:
                            recount[aid][BUTTON_NAMES[b]] += 1
        assert result["button_counts"] == recount

    def test_all_zero_row_stays_zero(self):
        logs = [fixture_log(0, "a", "b", "a", 0.5)]
        heat = build_heatmap(result_from_logs(records(logs)))
        assert all(v == 0.0 for v in heat["a"].values())

    def test_csv_shape(self, tmp_path):
        logs = [fixture_log(0, "a", "b", "a", 0.5)]
        result = result_from_logs(records(logs))
        text = heatmap_table(result["agents"], result["button_counts"], "agent", ",", "")
        header = text.splitlines()[0]
        assert header == "agent,Up,Down,Left,Right,A,B,C,Start"


REPORTS = [
    "heatmap.csv",
    "heatmap_norm.csv",
    "heatmap_norm.dat",
    "matrix.csv",
    "tournament.json",
    "win_rates.csv",
]


class TestWriteReports:
    """Each report is written whole or not at all, like a log."""

    def test_a_write_interrupted_inside_a_report_keeps_the_old_one(self, tmp_path, monkeypatch):
        write_reports(result_from_logs(records(fixture_logs())), tmp_path)
        matrix, tournament = ((tmp_path / n).read_bytes() for n in ("matrix.csv", "tournament.json"))
        real = Path.write_text
        calls = []

        def half_then_raise_on_the_second(self, text, *args, **kwargs):
            calls.append(self)
            if len(calls) < 2:
                return real(self, text, *args, **kwargs)
            real(self, text[: len(text) // 2], *args, **kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(Path, "write_text", half_then_raise_on_the_second)
        other = result_from_logs(records([fixture_log(0, "a", "b", "a", 0.5)]))
        with pytest.raises(KeyboardInterrupt):
            write_reports(other, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == REPORTS
        assert (tmp_path / "matrix.csv").read_bytes() == matrix
        assert (tmp_path / "tournament.json").read_bytes() != tournament


class TestVerifyReplay:
    def make_log(self, seed=5):
        return run_match(
            bot("r1", BotPolicy.RANDOM, seed=3),
            bot("z1", BotPolicy.ZONER),
            MatchConfig(seed=seed, match_length_frames=600),
        )

    def test_untampered_log_matches(self):
        verdict = verify_replay(log_from_dict(log_to_dict(self.make_log())))
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
            held = decode_chord(data["input_trace"][frame][side])
            data["input_trace"][frame][side] = encode_chord(held ^ BIT[button])
            verdict = verify_replay(log_from_dict(data))
            assert not verdict.ok
            assert verdict.kind == "state_divergence"
            assert verdict.first_divergent_frame == frame + 1

    def test_edited_result_is_flagged_as_forgery(self):
        data = log_to_dict(self.make_log())
        data["result"] = {
            **data["result"], "winner_health": 123, "winner_health_fraction": "0.123"
        }
        verdict = verify_replay(log_from_dict(data))
        assert not verdict.ok
        assert verdict.kind == "result_forgery"

    def test_forged_button_counts_are_flagged_as_forgery(self):
        data = log_to_dict(self.make_log())
        counts = data["button_counts"]
        for side, button in (("P1", "A"), ("P2", "Start")):
            forged = {**counts, side: {**counts[side], button: counts[side][button] + 1}}
            verdict = verify_replay(log_from_dict({**data, "button_counts": forged}))
            assert not verdict.ok
            assert verdict.kind == "result_forgery"
            assert verdict.detail == "logged button_counts do not match replay"
        assert verify_replay(log_from_dict(data)).ok

    def test_malformed_trace_row_is_divergence(self):
        base = log_to_dict(self.make_log())
        for bad in (["C"], ["", "", ""], 7, ["A", 5]):
            data = {**base, "input_trace": list(base["input_trace"])}
            data["input_trace"][3] = bad
            verdict = verify_replay(log_from_dict(data))
            assert not verdict.ok
            assert verdict.kind == "state_divergence"
            assert verdict.first_divergent_frame == 4

    def test_trace_row_that_is_not_a_list_is_divergence(self):
        # idle blocks while rushdown walks in, so row 0 is ["C", "L"]; a
        # two-character string and a two-key object unpack to the same pair
        log = run_match(
            bot("idle", BotPolicy.IDLE),
            bot("rushdown", BotPolicy.RUSHDOWN),
            MatchConfig(seed=5, match_length_frames=600),
        )
        base = log_to_dict(log)
        assert base["input_trace"][0] == ["C", "L"]
        for bad in ("CL", {"C": 0, "L": 0}):
            data = {**base, "input_trace": list(base["input_trace"])}
            data["input_trace"][0] = bad
            verdict = verify_replay(log_from_dict(data))
            assert not verdict.ok
            assert verdict.kind == "state_divergence"
            assert verdict.first_divergent_frame == 1

    def test_schema_version_checked(self):
        data = log_to_dict(self.make_log())
        data["schema"] = "lmfa-log/2"
        with pytest.raises(MalformedLogError, match="unsupported log schema"):
            verify_replay(log_from_dict(data))
