"""Match runner and round-robin scheduler."""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import threading

import pytest

from lmfa.actions import parse
from lmfa.agents import gateway
from lmfa.agents.mock_server import MockAgentServer
from lmfa.agents.specs import (
    AgentKind,
    AgentSetupError,
    AgentSpec,
    BotPolicy,
    Decision,
    FailureKind,
)
from lmfa.config import MatchConfig, with_seed
from lmfa.engine.buttons import BIT, EMPTY_CHORD, ENCODE, Button, decode_chord
from lmfa.engine.state import EndReason, Player
from lmfa.observe.describe import PPM_HEADER, describe_state, window_indices
from lmfa.observe.raster import annotate, render
from lmfa.tourney import match as match_module
from lmfa.tourney import roundrobin as roundrobin_module
from lmfa.tourney.match import (
    BUTTON_NAMES,
    MalformedLogError,
    count_buttons,
    log_from_dict,
    log_to_dict,
    run_match,
)
from lmfa.tourney.roundrobin import (
    pair_schedule,
    result_from_logs,
    run_round_robin,
)


def bot(name: str, policy: BotPolicy, seed: int = 0) -> AgentSpec:
    return AgentSpec(id=name, kind=AgentKind.SCRIPTED, policy=policy, seed=seed)


RUSH = bot("rush", BotPolicy.RUSHDOWN)
IDLE = bot("idle", BotPolicy.IDLE)
ZONE = bot("zone", BotPolicy.ZONER)
RAND = bot("rand", BotPolicy.RANDOM, seed=7)


class TestRunMatch:
    def test_rushdown_beats_idle_with_full_health(self):
        # idle never attacks, so the winner's health stays exactly 1000
        log = run_match(RUSH, IDLE, MatchConfig(seed=1))
        assert log.result.winner is Player.P1
        assert log.result.end_reason is EndReason.KNOCKOUT
        assert log.result.winner_health_fraction == 1.000

    def test_idle_mirror_is_timeout_draw(self):
        log = run_match(IDLE, bot("idle2", BotPolicy.IDLE), MatchConfig(seed=1, match_length_frames=600))
        assert log.result.winner is None
        assert log.result.end_reason is EndReason.TIMEOUT

    def test_decision_tick_count(self):
        cfg = MatchConfig(seed=3, match_length_frames=600, decision_interval_frames=40)
        log = run_match(IDLE, bot("idle2", BotPolicy.IDLE), cfg)
        frames = log.result.frames_elapsed
        ticks = math.ceil(frames / cfg.decision_interval_frames)
        assert len(log.decisions) == 2 * ticks
        per_player = [r for r in log.decisions if r["player"] == "P1"]
        assert [r["decision_index"] for r in per_player] == list(range(ticks))

    def test_match_is_bit_reproducible(self):
        cfg = MatchConfig(seed=11, match_length_frames=900)
        a = run_match(RAND, ZONE, cfg)
        b = run_match(RAND, ZONE, cfg)
        assert log_to_dict(a) == log_to_dict(b)

    def test_button_counts_equal_trace_fold(self):
        log = run_match(RAND, RUSH, MatchConfig(seed=5, match_length_frames=600))
        recount = {
            "P1": {name: 0 for name in BUTTON_NAMES.values()},
            "P2": {name: 0 for name in BUTTON_NAMES.values()},
        }
        for enc1, enc2 in log.input_trace:
            for side, enc in (("P1", enc1), ("P2", enc2)):
                for b in Button:
                    if decode_chord(enc) & BIT[b]:
                        recount[side][BUTTON_NAMES[b]] += 1
        assert recount == log.button_counts

    def test_button_counts_fold_every_chord_code(self):
        # every canonical code, held m % 3 + 1 frames, against its complement
        trace = [[ENCODE[m], ENCODE[255 - m]] for m in range(256) for _ in range(m % 3 + 1)]
        held = {}
        for column, side in enumerate(("P1", "P2")):
            masks = [decode_chord(row[column]) for row in trace]
            held[side] = {name: sum(1 for m in masks if m & BIT[b]) for b, name in BUTTON_NAMES.items()}
        assert count_buttons(trace) == held

    def test_digest_chain_length(self):
        log = run_match(RUSH, IDLE, MatchConfig(seed=1))
        assert len(log.state_digests) == len(log.input_trace) + 1

    def test_log_serialization_round_trip(self):
        log = run_match(RUSH, IDLE, MatchConfig(seed=1, match_length_frames=600))
        data = json.loads(json.dumps(log_to_dict(log)))
        record = log_from_dict(data)
        for field in dataclasses.fields(record):
            value, original = getattr(record, field.name), getattr(log, field.name)
            if field.name in ("input_trace", "state_digests"):
                original = json.loads(json.dumps(original))  # tuples read back as lists
            assert value == original, field.name

    def test_wrong_schema_rejected(self):
        with pytest.raises(MalformedLogError, match="unsupported log schema"):
            log_from_dict({"schema": "lmfa-log/9"})

    def test_plans_truncate_at_next_tick(self):
        # a 5-step plan spans 23 frames; with an 8-frame interval the tail
        # beyond frame 8 must never reach the engine
        cfg = MatchConfig(seed=2, match_length_frames=200, decision_interval_frames=8)
        script_bot = bot("rand2", BotPolicy.RANDOM, seed=9)
        log = run_match(script_bot, IDLE, cfg)
        for tick_start in range(0, len(log.input_trace), 8):
            plan_records = [
                r
                for r in log.decisions
                if r["player"] == "P1" and r["decision_index"] == tick_start // 8
            ]
            if not plan_records:
                continue
            expected = [decode_chord(enc) for enc in plan_records[0]["plan"][:8]]
            window = log.input_trace[tick_start : tick_start + 8]
            for offset, (enc1, _) in enumerate(window):
                want = (
                    expected[offset] if offset < len(expected) else EMPTY_CHORD
                )
                assert decode_chord(enc1) == want

    def test_observations_show_last_five_commands(self, tmp_path, monkeypatch):
        script = tmp_path / "script.txt"
        script.write_text("A\nB\nForward + C\nDown + A\nUp\nBack, B\nC\n")
        fixed = AgentSpec(
            id="fixed",
            kind=AgentKind.SCRIPTED,
            policy=BotPolicy.FIXED_SCRIPT,
            script_path=str(script),
        )
        observations = []

        def recording(*args, **kwargs):
            observations.append(describe_state(*args, **kwargs))
            return observations[-1]

        monkeypatch.setattr(match_module, "describe_state", recording)
        cfg = MatchConfig(seed=2, match_length_frames=600)
        decisions = log_to_dict(run_match(fixed, RAND, cfg))["decisions"]
        assert len(observations) == len(decisions) > 2 * 6
        commands = {"P1": [], "P2": []}
        for d in decisions:
            commands[d["player"]].append(d["command"])

        def slots(history):
            return "; ".join(["-"] * (5 - len(history)) + history)

        for obs in observations:
            tick = obs.decision_index
            mine = commands[obs.for_player.value][max(0, tick - 5) : tick]
            theirs = commands[obs.for_player.other.value][max(0, tick - 5) : tick]
            lines = obs.state_text.split("\n")
            assert lines[3] == f"YOUR LAST 5 ACTIONS: {slots(mine)}"
            assert lines[4] == f"OPPONENT LAST 5 ACTIONS: {slots(theirs)}"


class TestSchedule:
    def test_six_agents_fifteen_matches(self):
        ids = [f"a{i}" for i in range(6)]
        schedule = list(pair_schedule(ids, 1))
        assert len(schedule) == 15
        assert len({e["pair_index"] for e in schedule}) == 15

    def test_two_agents_one_match(self):
        assert len(list(pair_schedule(["x", "y"], 1))) == 1

    def test_sides_alternate_by_pair_index(self):
        schedule = list(pair_schedule(["a", "b", "c"], 1))
        assert (schedule[0]["p1"], schedule[0]["p2"]) == ("a", "b")
        assert (schedule[1]["p1"], schedule[1]["p2"]) == ("c", "a")
        assert (schedule[2]["p1"], schedule[2]["p2"]) == ("b", "c")

    def test_repeats_alternate_sides_within_pair(self):
        schedule = list(pair_schedule(["a", "b"], 4))
        sides = [(e["p1"], e["p2"]) for e in schedule]
        assert sides == [("a", "b"), ("b", "a"), ("a", "b"), ("b", "a")]


class TestRoundRobin:
    def test_four_bots_full_run(self):
        logs = run_round_robin(
            [RUSH, ZONE, RAND, IDLE], with_seed(MatchConfig(match_length_frames=1200), 42)
        )
        assert len(logs) == 6
        result = result_from_logs(logs)
        assert result["agents"] == ["rush", "zone", "rand", "idle"]
        assert len(result["matrix"]) == 6
        assert {c["winner"] for c in result["matrix"]} <= {"row", "col", "draw"}
        total_credit = sum(s["wins"] + 0.5 * s["draws"] for s in result["standings"])
        assert total_credit == len(logs)

    def test_two_runs_identical(self):
        cfg = MatchConfig(match_length_frames=900)
        logs1 = run_round_robin([RUSH, ZONE, RAND], with_seed(cfg, 7))
        logs2 = run_round_robin([RUSH, ZONE, RAND], with_seed(cfg, 7))
        assert result_from_logs(logs1) == result_from_logs(logs2)
        assert [log_to_dict(a) for a in logs1] == [log_to_dict(b) for b in logs2]

    def test_parallel_equals_serial(self):
        cfg = MatchConfig(match_length_frames=900)
        logs_s = run_round_robin([RUSH, ZONE, RAND, IDLE], with_seed(cfg, 3))
        logs_p = run_round_robin([RUSH, ZONE, RAND, IDLE], with_seed(cfg, 3), parallel=4)
        assert result_from_logs(logs_s) == result_from_logs(logs_p)
        assert [log_to_dict(a) for a in logs_s] == [log_to_dict(b) for b in logs_p]

    def test_scripted_matches_stay_on_the_calling_thread(self, monkeypatch):
        threads = []

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return run_match(*args, **kwargs)

        monkeypatch.setattr(roundrobin_module, "run_match", recording)
        cfg = MatchConfig(match_length_frames=300)
        logs = run_round_robin([RUSH, ZONE, RAND, IDLE], with_seed(cfg, 3), parallel=4)
        assert len(logs) == 6
        assert threads == [threading.get_ident()] * 6

    @pytest.mark.parametrize("parallel", [1, 3])
    def test_each_log_is_handed_over_before_the_next_scripted_match(
        self, monkeypatch, parallel
    ):
        events = []

        def recording(p1, p2, config, pair_index, repeat_index):
            events.append(("play", pair_index))
            return run_match(p1, p2, config, pair_index, repeat_index)

        def on_log(log):
            events.append(("log", log.pair_index))
            return log.pair_index

        monkeypatch.setattr(roundrobin_module, "run_match", recording)
        cfg = with_seed(MatchConfig(match_length_frames=300), 3)
        handed = run_round_robin([RUSH, ZONE, RAND, IDLE], cfg, parallel=parallel, on_log=on_log)
        assert handed == list(range(6))
        assert events == [event for i in range(6) for event in (("play", i), ("log", i))]

    def test_serially_every_match_stays_on_the_calling_thread(self, monkeypatch):
        # remote matches too: with parallel=1 nothing goes to a pool thread,
        # and each log is handed over before the next match starts
        events = []
        before = set(threading.enumerate())

        def stand_in(p1, p2, config, pair_index, repeat_index):
            events.append(("play", pair_index, threading.get_ident()))
            assert set(threading.enumerate()) <= before
            return run_match(IDLE, bot("idle2", BotPolicy.IDLE), config, pair_index, repeat_index)

        def on_log(log):
            events.append(("log", log.pair_index, threading.get_ident()))
            return log.pair_index

        monkeypatch.setattr(roundrobin_module, "run_match", stand_in)
        r1, r2 = (
            AgentSpec(id=f"r{i}", kind=AgentKind.REMOTE, endpoint=f"http://127.0.0.1:{i}/")
            for i in (1, 2)
        )
        cfg = with_seed(MatchConfig(match_length_frames=120), 3)
        handed = run_round_robin([r1, r2, RUSH, IDLE], cfg, parallel=1, on_log=on_log)
        here = threading.get_ident()
        assert handed == list(range(6))
        assert events == [(kind, i, here) for i in range(6) for kind in ("play", "log")]

    def test_no_match_waits_for_an_earlier_remote_one(self, monkeypatch):
        # remote entry 0 ends only once the scripted entry 5 and every other
        # remote entry have been handed over; waiting on it in schedule
        # order would stall both the calling thread and the free worker
        others_handed = threading.Event()
        handed_order = []

        def stand_in(p1, p2, config, pair_index, repeat_index):
            if pair_index == 0:
                assert others_handed.wait(timeout=10)
            if p1.kind is AgentKind.REMOTE:
                p1, p2 = IDLE, bot("idle2", BotPolicy.IDLE)
            return run_match(p1, p2, config, pair_index, repeat_index)

        def on_log(log):
            handed_order.append(log.pair_index)
            if len(handed_order) == 5:
                others_handed.set()
            return log.pair_index

        monkeypatch.setattr(roundrobin_module, "run_match", stand_in)
        r1, r2 = (
            AgentSpec(id=f"r{i}", kind=AgentKind.REMOTE, endpoint=f"http://127.0.0.1:{i}/")
            for i in (1, 2)
        )
        cfg = with_seed(MatchConfig(match_length_frames=120), 3)
        handed = run_round_robin([r1, r2, RUSH, IDLE], cfg, parallel=2, on_log=on_log)
        assert handed == list(range(6))
        assert handed_order[0] == 5 and handed_order[-1] == 0

    def test_a_failed_run_hands_over_the_matches_it_was_running(self, monkeypatch):
        # entry 2 raises while entry 3 runs: entry 3's log is still handed
        # over, and so is every other match that started and ended
        lock = threading.Lock()
        started = set()
        entry_3_started = threading.Event()
        handed = []

        def stand_in(p1, p2, config, pair_index, repeat_index):
            with lock:
                started.add(pair_index)
            if pair_index == 3:
                entry_3_started.set()
            if pair_index == 2:
                assert entry_3_started.wait(timeout=10)
                raise RuntimeError("entry 2 fails")
            return run_match(IDLE, bot("idle2", BotPolicy.IDLE), config, pair_index, repeat_index)

        monkeypatch.setattr(roundrobin_module, "run_match", stand_in)
        remotes = [
            AgentSpec(id=f"r{i}", kind=AgentKind.REMOTE, endpoint=f"http://127.0.0.1:{i}/")
            for i in range(1, 5)
        ]
        cfg = with_seed(MatchConfig(match_length_frames=120), 3)
        with pytest.raises(RuntimeError, match="entry 2 fails"):
            run_round_robin(remotes, cfg, parallel=2, on_log=lambda log: handed.append(log.pair_index))
        assert {0, 1, 3} <= set(handed)
        assert sorted(handed) == sorted(started - {2})

    def test_seeds_follow_pair_and_repeat_indices(self):
        cfg = MatchConfig(match_length_frames=600)
        logs = run_round_robin([IDLE, bot("idle2", BotPolicy.IDLE), bot("idle3", BotPolicy.IDLE)], with_seed(cfg, 100), matches_per_pair=2)
        seeds = {(l.pair_index, l.repeat_index): l.config.seed for l in logs}
        assert seeds[(0, 0)] == 100
        assert seeds[(0, 1)] == 101
        assert seeds[(1, 0)] == 1100
        assert seeds[(2, 1)] == 2101

    def test_needs_two_agents(self):
        with pytest.raises(AgentSetupError):
            run_round_robin([RUSH], MatchConfig())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(AgentSetupError):
            run_round_robin([RUSH, RUSH], MatchConfig())

    def test_result_reconstruction_from_logs(self):
        cfg = MatchConfig(match_length_frames=900)
        logs = run_round_robin([RUSH, ZONE, RAND, IDLE], with_seed(cfg, 13))
        rebuilt = result_from_logs([log_from_dict(log_to_dict(l)) for l in logs])
        assert rebuilt == result_from_logs(logs)
        assert rebuilt["agents"] == ["rush", "zone", "rand", "idle"]


class TestRemoteIntegration:
    def test_remote_agent_match_completes_with_frames(self):
        cfg = MatchConfig(seed=4, match_length_frames=160, decision_interval_frames=40)
        with MockAgentServer(replies=["Forward + A", "B", "A"]) as server:
            remote = AgentSpec(
                id="remote-m",
                kind=AgentKind.REMOTE,
                endpoint=server.url,
                model_name="m",
                timeout_ms=5000,
            )
            log = run_match(remote, IDLE, cfg)
        assert log.result is not None
        # remote agent saw base64 frames; window grows to 10 by frame 36
        frame_counts = [len(json.loads(r["body"])["frames_b64"]) for r in server.requests]
        assert frame_counts[0] == 1
        assert frame_counts[1] == 10
        assert all(isinstance(f, str) and f for r in server.requests for f in json.loads(r["body"])["frames_b64"])

    def test_identical_prompt_and_frame_fairness(self):
        # both remote agents must receive byte-identical system prompts and
        # byte-identical frame encodings at every shared decision tick
        cfg = MatchConfig(seed=6, match_length_frames=120, decision_interval_frames=40)
        with MockAgentServer(replies=["A"]) as s1, MockAgentServer(replies=["B"]) as s2:
            r1 = AgentSpec(id="r1", kind=AgentKind.REMOTE, endpoint=s1.url, model_name="m1")
            r2 = AgentSpec(id="r2", kind=AgentKind.REMOTE, endpoint=s2.url, model_name="m2")
            run_match(r1, r2, cfg)
            assert len(s1.requests) == len(s2.requests) >= 2
            for a, b in zip(s1.requests, s2.requests):
                assert json.loads(a["body"])["system_prompt"] == json.loads(b["body"])["system_prompt"]
                assert json.loads(a["body"])["frames_b64"] == json.loads(b["body"])["frames_b64"]

    def test_tournament_survives_a_raising_remote_path(self, monkeypatch):
        def broken(spec, obs, system_prompt):
            raise RuntimeError("fault below the transport")

        monkeypatch.setattr(gateway, "query_remote", broken)
        cfg = MatchConfig(match_length_frames=120, decision_interval_frames=40)
        remote = AgentSpec(id="r", kind=AgentKind.REMOTE, endpoint="http://127.0.0.1:1/")
        idle2 = bot("idle2", BotPolicy.IDLE)
        logs = run_round_robin([IDLE, idle2, remote], with_seed(cfg, 2))
        assert len(logs) == 3
        assert all(log.result is not None for log in logs)
        remote_decisions = [
            r for log in logs for r in log.decisions if r["agent_id"] == "r"
        ]
        assert len(remote_decisions) == 2 * 3
        assert {d["failure"] for d in remote_decisions} == {FailureKind.TRANSPORT.value}
        assert {d["command"] for d in remote_decisions} == {"C"}

    def test_distinct_endpoints_queried_side_by_side(self, monkeypatch):
        # each tick's two act calls must meet at the barrier: serial calls
        # would break it after its timeout
        barrier = threading.Barrier(2, timeout=5)
        threads = {"P1": set(), "P2": set()}

        def meet(spec, obs, system_prompt):
            threads[obs.for_player.value].add(threading.get_ident())
            barrier.wait()
            return Decision("C", parse("C"), 0, None)

        monkeypatch.setattr(match_module, "act", meet)
        cfg = MatchConfig(seed=6, match_length_frames=120, decision_interval_frames=40)
        r1 = AgentSpec(id="r1", kind=AgentKind.REMOTE, endpoint="http://127.0.0.1:1/")
        r2 = AgentSpec(id="r2", kind=AgentKind.REMOTE, endpoint="http://127.0.0.1:2/")
        log = run_match(r1, r2, cfg)
        assert [r["player"] for r in log.decisions] == ["P1", "P2"] * 3
        assert threads["P1"] == {threading.get_ident()}
        assert len(threads["P2"]) == 1 and threads["P2"] != threads["P1"]

    def test_mixed_tournament_overlaps_its_remote_matches(self, monkeypatch):
        def masked(logs) -> list:
            docs = [log_to_dict(log) for log in logs]
            for doc in docs:
                for d in doc["decisions"]:
                    d["latency_ms"] = 0
            return docs

        cfg = MatchConfig(match_length_frames=120, decision_interval_frames=40)
        with MockAgentServer(replies=["Forward + A"]) as s1, MockAgentServer(
            replies=["Down + B"], wire_format="chat"
        ) as s2:
            r1 = AgentSpec(id="r1", kind=AgentKind.REMOTE, endpoint=s1.url)
            r2 = AgentSpec(id="r2", kind=AgentKind.REMOTE, endpoint=s2.url, wire_format="chat")
            agents = [RUSH, r1, IDLE, r2]
            logs_s = run_round_robin(agents, with_seed(cfg, 5))

            # the first two remote entries must meet at the barrier: run one
            # after the other, the first would break it after its timeout
            schedule = pair_schedule([a.id for a in agents], 1)
            remote = [(e["pair_index"], 0) for e in schedule if {"r1", "r2"} & {e["p1"], e["p2"]}]
            barrier = threading.Barrier(2, timeout=5)
            threads = {}

            def meeting(p1, p2, config, pair_index, repeat_index):
                threads[pair_index, repeat_index] = threading.get_ident()
                if (pair_index, repeat_index) in remote[:2]:
                    barrier.wait()
                return run_match(p1, p2, config, pair_index, repeat_index)

            monkeypatch.setattr(roundrobin_module, "run_match", meeting)
            logs_p = run_round_robin(agents, with_seed(cfg, 5), parallel=2)
        assert len(remote) == 5
        here = threading.get_ident()
        assert {key for key, ident in threads.items() if ident == here} == {(1, 0)}
        assert result_from_logs(logs_p) == result_from_logs(logs_s)
        assert masked(logs_p) == masked(logs_s)

    def test_shared_endpoint_stays_serial(self):
        cfg = MatchConfig(seed=6, match_length_frames=200, decision_interval_frames=40)
        with MockAgentServer(replies=["A", "B"]) as server:
            r1 = AgentSpec(id="r1", kind=AgentKind.REMOTE, endpoint=server.url)
            r2 = AgentSpec(id="r2", kind=AgentKind.REMOTE, endpoint=server.url)
            log = run_match(r1, r2, cfg)
        replies = [(r["player"], r["raw_reply"]) for r in log.decisions]
        assert replies == [("P1", "A"), ("P2", "B")] * 5

    def test_side_by_side_logs_repeat(self):
        def masked_log() -> dict:
            cfg = MatchConfig(seed=9, match_length_frames=200, decision_interval_frames=40)
            with MockAgentServer(replies=["A", "Forward + B", "C"]) as s1, MockAgentServer(
                replies=["Down + A", "B"], wire_format="chat"
            ) as s2:
                r1 = AgentSpec(id="r1", kind=AgentKind.REMOTE, endpoint=s1.url)
                r2 = AgentSpec(
                    id="r2", kind=AgentKind.REMOTE, endpoint=s2.url, wire_format="chat"
                )
                data = log_to_dict(run_match(r1, r2, cfg))
            for d in data["decisions"]:
                d["latency_ms"] = 0
            return data

        first = masked_log()
        assert {d["raw_reply"] for d in first["decisions"]} == {
            "A", "Forward + B", "C", "Down + A", "B"
        }
        assert masked_log() == first

    @pytest.mark.parametrize("interval, renders", [(40, 51), (30, 69), (7, 230)])
    def test_only_window_frames_are_rendered(self, monkeypatch, interval, renders):
        rendered_states = []
        ticks = []

        def counting_render(state):
            rendered_states.append(state)
            return render(state)

        def checked_sample(rendered, now):
            ticks.append(now)
            assert min(rendered) >= now - 36, (now, sorted(rendered))
            return sample_window(rendered, now)

        sample_window = match_module.sample_window_encoded
        monkeypatch.setattr(match_module, "render", counting_render)
        monkeypatch.setattr(match_module, "sample_window_encoded", checked_sample)
        cfg = MatchConfig(seed=4, match_length_frames=240, decision_interval_frames=interval)
        with MockAgentServer(replies=["A", "Forward + B", "Down"]) as server:
            remote = AgentSpec(id="remote-h", kind=AgentKind.REMOTE, endpoint=server.url)
            log = run_match(remote, IDLE, cfg)
        assert len(rendered_states) == renders
        assert ticks == list(range(0, 240, interval))
        counts = [len(json.loads(r["body"])["frames_b64"]) for r in server.requests]
        first_full = -(-36 // interval)  # first tick at frame >= 36
        assert counts[first_full:] and set(counts[first_full:]) == {10}
        # each request carries its window's frames, drawn from the replayed states
        states = {s.frame: s for s in rendered_states}
        for now, request in zip(ticks, server.requests):
            frames = [annotate(render(states[f]), states[f]) for f in window_indices(now)]
            assert json.loads(request["body"])["frames_b64"] == [
                base64.b64encode(PPM_HEADER + b"".join(rows)).decode() for rows in frames
            ]
        assert len(log.decisions) == 2 * len(ticks)

    def test_reply_too_deep_to_decode_loses_no_match(self):
        # 60,000 bytes of nesting stay under the reply cap, but json.loads
        # raises RecursionError on them
        nested = b"[" * 30_000 + b"]" * 30_000
        cfg = MatchConfig(seed=4, match_length_frames=120, decision_interval_frames=40)
        with MockAgentServer(raw_body=nested) as server:
            remote = AgentSpec(id="remote-d", kind=AgentKind.REMOTE, endpoint=server.url)
            logs = run_round_robin([IDLE, bot("idle2", BotPolicy.IDLE), remote], cfg)
        assert len(logs) == 3
        remote_decisions = [
            r for log in logs for r in log.decisions if r["agent_id"] == "remote-d"
        ]
        assert len(remote_decisions) == 6
        assert {d["failure"] for d in remote_decisions} == {FailureKind.PARSE_ERROR.value}

    def test_remote_failures_never_abort_the_match(self):
        cfg = MatchConfig(seed=4, match_length_frames=120, decision_interval_frames=40)
        with MockAgentServer(replies=["A"], status=500) as server:
            remote = AgentSpec(
                id="remote-f",
                kind=AgentKind.REMOTE,
                endpoint=server.url,
                model_name="m",
                timeout_ms=300,
                max_retries=0,
            )
            log = run_match(remote, IDLE, cfg)
        assert log.result.end_reason is EndReason.TIMEOUT
        p1_decisions = [r for r in log.decisions if r["player"] == "P1"]
        assert all(r["failure"] is not None for r in p1_decisions)
        assert all(r["command"] == "C" for r in p1_decisions)
