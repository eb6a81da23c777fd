"""Agent gateway: bots, prompt, wire protocol, failure handling."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import urllib.request
from pathlib import Path

import pytest

from lmfa.actions import VOCABULARY, parse
from lmfa.agents import gateway, remote
from lmfa.agents.bots import RANDOM_COMMAND_POOL, decide
from lmfa.agents.gateway import act
from lmfa.agents.mock_server import MockAgentServer
from lmfa.agents.remote import (
    AUTH_ENV_VAR,
    MAX_REPLY_BYTES,
    build_wire_request,
    encode_wire_request,
    request_headers,
)
from lmfa.agents.specs import (
    _ENTRY_KINDS,
    AgentKind,
    AgentSetupError,
    AgentSpec,
    BotPolicy,
    FailureKind,
    load_agents_file,
)
from lmfa.config import MatchConfig
from lmfa.engine.buttons import Button, chord
from lmfa.engine.core import new_match, step
from lmfa.engine.state import Player
from lmfa.observe.describe import (
    PROMPT_VERSION,
    WireText,
    build_system_prompt,
    describe_state,
    encode_frame_base64,
)
from lmfa.observe.raster import annotate, render


# the SHA-256 of build_system_prompt(MatchConfig()) under each PROMPT_VERSION
PROMPT_SHA256 = {
    "prompt-v1": "bc95d3503b98da865441ade5fd28915b4195909c5c32070cf9c5c672a716324f",
}


def bot(policy: BotPolicy, seed: int = 0, script_path: str = "") -> AgentSpec:
    return AgentSpec(
        id=f"bot-{policy.value}",
        kind=AgentKind.SCRIPTED,
        policy=policy,
        seed=seed,
        script_path=script_path,
    )


def obs_for(state, player=Player.P1, decision_index=0):
    return describe_state(state, player, decision_index=decision_index)


class TestBots:
    def test_idle_bot_always_blocks(self):
        s = new_match(MatchConfig())
        for i in range(5):
            assert decide(bot(BotPolicy.IDLE), obs_for(s, decision_index=i)) == "C"

    def test_rushdown_kicks_far_punches_close(self):
        import dataclasses

        s = new_match(MatchConfig())  # distance 160
        assert decide(bot(BotPolicy.RUSHDOWN), obs_for(s)) == "Forward, Forward, C"
        near = dataclasses.replace(s, p2=dataclasses.replace(s.p2, x=180))
        assert decide(bot(BotPolicy.RUSHDOWN), obs_for(near)) == "A"

    def test_zoner_fires_at_range_retreats_close(self):
        import dataclasses

        s = new_match(MatchConfig())
        assert decide(bot(BotPolicy.ZONER), obs_for(s)) == "Down, Forward, A"
        near = dataclasses.replace(s, p2=dataclasses.replace(s.p2, x=160))
        assert decide(bot(BotPolicy.ZONER), obs_for(near)) == "Back"

    def test_random_bot_seed7_golden_sequence(self):
        # pinned once from the seeded generator; must never drift
        golden = (
            "C", "Back + B", "B", "B, B", "A", "Forward + A", "Jump", "B, B",
            "Down + A", "C", "Jump + Forward", "Down, Forward, A", "Down + A",
            "Down, Forward, A", "Forward + A", "Forward, A", "B", "Back + B",
            "Down, Forward, A", "C",
        )
        s = new_match(MatchConfig())
        spec = bot(BotPolicy.RANDOM, seed=7)
        got = tuple(
            decide(spec, obs_for(s, decision_index=i)) for i in range(20)
        )
        assert got == golden

    def test_random_bot_varies_with_seed(self):
        s = new_match(MatchConfig())
        seq5 = [decide(bot(BotPolicy.RANDOM, seed=5), obs_for(s, decision_index=i)) for i in range(12)]
        seq6 = [decide(bot(BotPolicy.RANDOM, seed=6), obs_for(s, decision_index=i)) for i in range(12)]
        assert seq5 != seq6

    def test_random_pool_entries_all_parse(self):
        for text in RANDOM_COMMAND_POOL:
            parse(text)

    def test_fixed_script_cycles(self, tmp_path):
        script = tmp_path / "moves.txt"
        script.write_text("# opener\nA\nB\nForward, Forward, C\n")
        spec = bot(BotPolicy.FIXED_SCRIPT, script_path=str(script))
        s = new_match(MatchConfig())
        got = [decide(spec, obs_for(s, decision_index=i)) for i in range(4)]
        assert got == ["A", "B", "Forward, Forward, C", "A"]

    def test_unparsable_script_line_is_setup_error(self, tmp_path):
        script = tmp_path / "moves.txt"
        script.write_text("A\nForward + Back\n")
        with pytest.raises(AgentSetupError, match="line 2: conflicting directions in chord 0"):
            bot(BotPolicy.FIXED_SCRIPT, script_path=str(script))

    def test_missing_script_is_setup_error(self):
        with pytest.raises(AgentSetupError):
            bot(BotPolicy.FIXED_SCRIPT, script_path="/nonexistent/script.txt")

    def test_a_spec_keeps_the_script_it_checked(self, tmp_path):
        # each spec reads its file as it is made: a rewrite reaches a later
        # spec, is checked there, and leaves an earlier spec's lines alone
        script = tmp_path / "moves.txt"
        script.write_text("A\n")
        first = bot(BotPolicy.FIXED_SCRIPT, script_path=str(script))
        script.write_text("Fly + Z\n")
        with pytest.raises(AgentSetupError, match="line 1: unknown token 'Fly'"):
            bot(BotPolicy.FIXED_SCRIPT, script_path=str(script))
        script.write_text("B\nC\n")
        second = bot(BotPolicy.FIXED_SCRIPT, script_path=str(script))
        s = new_match(MatchConfig())
        assert [decide(first, obs_for(s, decision_index=i)) for i in range(2)] == ["A", "A"]
        assert [decide(second, obs_for(s, decision_index=i)) for i in range(2)] == ["B", "C"]


class TestPrompt:
    def test_deterministic(self):
        cfg = MatchConfig()
        assert build_system_prompt(cfg) == build_system_prompt(cfg)

    def test_contains_full_vocabulary(self):
        text = build_system_prompt(MatchConfig())
        for token in VOCABULARY:
            assert token in text

    def test_under_budget(self):
        assert len(build_system_prompt(MatchConfig()).encode()) < 4000

    def test_versioned(self):
        assert PROMPT_VERSION in build_system_prompt(MatchConfig())

    def test_text_is_pinned_to_its_version(self):
        text = build_system_prompt(MatchConfig())
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert PROMPT_VERSION in PROMPT_SHA256, f"pin {PROMPT_VERSION} as {digest}"
        assert digest == PROMPT_SHA256[PROMPT_VERSION], (
            f"the prompt text changed under {PROMPT_VERSION}: bump PROMPT_VERSION"
        )

    def test_state_report_is_in_exactly_the_promised_form(self):
        lines = build_system_prompt(MatchConfig()).splitlines()
        start = lines.index("this form:") + 1
        promised = lines[start : start + 5]
        state = new_match(MatchConfig())
        last = (("A", "Down + B"), ("Forward + A",) * 6)
        report = describe_state(state, Player.P2, last_actions=last).state_text.splitlines()
        assert len(report) == len(promised) == 5
        for form, line in zip(promised, report):
            # each <...> placeholder, and the ... between action slots, is a wildcard
            pattern = ".+".join(map(re.escape, re.split(r"<[^>]*>|\.\.\.", form)))
            assert re.fullmatch(pattern, line), (form, line)


class TestScriptedGateway:
    @pytest.mark.parametrize("distance", ["near", "far"])
    @pytest.mark.parametrize("policy", list(BotPolicy), ids=lambda p: p.value)
    def test_scripted_decision_latency_zero(self, tmp_path, policy, distance):
        """Every policy's text parses, near (40 units) and far (160 units):
        a scripted decision never fails."""
        script = tmp_path / "script.txt"
        script.write_text("# opener\nDown, Forward, A\nJump + Back\nB, B\n")
        spec = bot(policy, seed=3, script_path=str(script))
        s = new_match(MatchConfig())
        if distance == "near":
            s = dataclasses.replace(s, p2=dataclasses.replace(s.p2, x=160))
        for i in range(8):  # every script line, and several random draws
            obs = obs_for(s, decision_index=i)
            d = act(spec, obs, "prompt")
            assert d.latency_ms == 0
            assert d.failure is None
            assert d.raw_reply == decide(spec, obs)
            assert d.command == parse(d.raw_reply) and d.command.steps


def remote_spec(url: str, timeout_ms: int = 2000, retries: int = 1) -> AgentSpec:
    return AgentSpec(
        id="remote-x",
        kind=AgentKind.REMOTE,
        endpoint=url,
        model_name="test-model",
        timeout_ms=timeout_ms,
        max_retries=retries,
    )


class TestRemoteGateway:
    def test_successful_decision(self):
        with MockAgentServer(replies=["I advance. Left + A"]) as server:
            s = new_match(MatchConfig())
            d = act(remote_spec(server.url), obs_for(s), "sys")
            assert d.failure is None
            assert d.command.normalized == "Left + A"
            assert d.raw_reply == "I advance. Left + A"
            assert json.loads(server.requests[0]["body"])["protocol"] == "lmfa/1"
            assert json.loads(server.requests[0]["body"])["reply_format"] == "single_command_last_line"

    def test_timeout_falls_back_to_block(self):
        with MockAgentServer(replies=["A"], delay_s=0.6) as server:
            s = new_match(MatchConfig())
            spec = remote_spec(server.url, timeout_ms=150, retries=1)
            started = time.perf_counter()
            d = act(spec, obs_for(s), "sys")
            elapsed_ms = (time.perf_counter() - started) * 1000
            assert d.failure is FailureKind.TIMEOUT
            assert d.command.normalized == "C"
            assert elapsed_ms <= 150 * 2 + 50

    def test_http_error_is_transport_failure(self):
        with MockAgentServer(replies=["A"], status=500) as server:
            s = new_match(MatchConfig())
            d = act(remote_spec(server.url), obs_for(s), "sys")
            assert d.failure is FailureKind.TRANSPORT
            assert d.command.normalized == "C"

    def test_unreachable_endpoint_is_transport_failure(self):
        s = new_match(MatchConfig())
        spec = remote_spec("http://127.0.0.1:1/", timeout_ms=200, retries=0)
        d = act(spec, obs_for(s), "sys")
        assert d.failure is FailureKind.TRANSPORT
        assert d.command.normalized == "C"

    def test_unexpected_exception_falls_back_to_block(self, monkeypatch, caplog):
        def broken(spec, obs, system_prompt):
            time.sleep(0.03)
            raise RuntimeError("fault below the transport")

        monkeypatch.setattr(gateway, "query_remote", broken)
        d = act(remote_spec("http://127.0.0.1:1/"), obs_for(new_match(MatchConfig())), "sys")
        assert d.failure is FailureKind.TRANSPORT
        assert d.command.normalized == "C"
        assert d.raw_reply == ""
        assert d.latency_ms >= 30
        assert "RuntimeError: fault below the transport" in caplog.text

    def test_prose_only_reply_is_no_command(self):
        with MockAgentServer(replies=["I cannot decide what to do."]) as server:
            s = new_match(MatchConfig())
            d = act(remote_spec(server.url), obs_for(s), "sys")
            assert d.failure is FailureKind.NO_COMMAND
            assert d.command.normalized == "C"

    @pytest.mark.parametrize(
        "wire_format, reply",
        [("lmfa", None), ("lmfa", 5), ("lmfa", ["A"]), ("chat", None)],
        ids=["null", "number", "list", "chat-null"],
    )
    def test_non_string_reply_is_parse_error(self, wire_format, reply):
        with MockAgentServer(replies=[reply], wire_format=wire_format) as server:
            s = new_match(MatchConfig())
            spec = AgentSpec(
                id="odd",
                kind=AgentKind.REMOTE,
                endpoint=server.url,
                model_name="m",
                wire_format=wire_format,
                max_retries=1,
            )
            d = act(spec, obs_for(s), "sys")
            assert d.failure is FailureKind.PARSE_ERROR
            assert d.command.normalized == "C"
            assert d.raw_reply == ""
            assert len(server.requests) == 1  # parse failures are not retried

    def test_retry_count_observed(self):
        with MockAgentServer(replies=["A"], status=503) as server:
            s = new_match(MatchConfig())
            act(remote_spec(server.url, retries=2), obs_for(s), "sys")
            assert len(server.requests) == 3

    def test_oversized_reply_is_parse_error(self):
        reply = "x" * 2_000_000 + "\nA"
        with MockAgentServer(replies=[reply]) as server:
            s = new_match(MatchConfig())
            d = act(remote_spec(server.url, retries=1), obs_for(s), "sys")
            assert d.failure is FailureKind.PARSE_ERROR
            assert d.command.normalized == "C"
            assert d.raw_reply == ""
            assert len(server.requests) == 1  # parse failures are not retried

    def test_reply_nested_too_deep_is_parse_error(self):
        nested = b"[" * 30_000 + b"]" * 30_000
        assert len(nested) < MAX_REPLY_BYTES
        with pytest.raises(RecursionError):
            json.loads(nested)
        with MockAgentServer(raw_body=nested) as server:
            d = act(remote_spec(server.url), obs_for(new_match(MatchConfig())), "sys")
            assert d.failure is FailureKind.PARSE_ERROR
            assert d.command.normalized == "C"
            assert d.raw_reply == ""
            assert len(server.requests) == 1  # parse failures are not retried

    def test_raw_body_is_sent_verbatim(self):
        with MockAgentServer(replies=["A"], raw_body=b'{"reply": "B"}') as server:
            d = act(remote_spec(server.url), obs_for(new_match(MatchConfig())), "sys")
            assert d.failure is None
            assert d.raw_reply == "B"

    def test_reply_under_the_cap_is_kept_whole(self):
        reply = "x" * (MAX_REPLY_BYTES - 100) + "\nA"
        with MockAgentServer(replies=[reply]) as server:
            d = act(remote_spec(server.url), obs_for(new_match(MatchConfig())), "sys")
            assert d.failure is None
            assert d.command.normalized == "A"
            assert d.raw_reply == reply

    def test_dripped_reply_times_out_at_the_deadline(self):
        # every socket read returns within 0.2 s, so only a wall-clock
        # deadline stops the exchange
        with MockAgentServer(replies=["A"], drip_s=0.2) as server:
            s = new_match(MatchConfig())
            spec = remote_spec(server.url, timeout_ms=500, retries=1)
            started = time.perf_counter()
            d = act(spec, obs_for(s), "sys")
            elapsed_s = time.perf_counter() - started
            assert d.failure is FailureKind.TIMEOUT
            assert d.command.normalized == "C"
            assert d.raw_reply == ""
            assert elapsed_s < 1.5

    def test_deadline_covers_retries(self):
        with MockAgentServer(replies=["A"], delay_s=0.3, status=503) as server:
            s = new_match(MatchConfig())
            spec = remote_spec(server.url, timeout_ms=500, retries=3)
            started = time.perf_counter()
            d = act(spec, obs_for(s), "sys")
            elapsed_s = time.perf_counter() - started
            assert d.failure is FailureKind.TIMEOUT
            assert len(server.requests) == 2  # the second attempt ran out of time
            assert elapsed_s < 0.9

    def test_auth_header_passthrough(self, monkeypatch):
        monkeypatch.setenv(AUTH_ENV_VAR, "X-Api-Key: sesame")
        with MockAgentServer(replies=["B"]) as server:
            s = new_match(MatchConfig())
            act(remote_spec(server.url), obs_for(s), "sys")
            assert server.requests[0]["headers"].get("X-Api-Key") == "sesame"

    @pytest.mark.parametrize("value", ["s\u00e9same", "two words\there"])
    def test_auth_header_value_with_obs_text_or_inner_space_is_sent(self, monkeypatch, value):
        monkeypatch.setenv(AUTH_ENV_VAR, f"X-Api-Key: {value}")
        with MockAgentServer(replies=["B"]) as server:
            d = act(remote_spec(server.url), obs_for(new_match(MatchConfig())), "sys")
            assert d.failure is None
            assert server.requests[0]["headers"].get("X-Api-Key") == value

    @pytest.mark.parametrize(
        "raw",
        [
            "X-Api-Key secret",
            ": secret",
            " X-Api-Key: v",
            "X-Api-Key: ",
            "K: a\nb",
            "K: v\r",
            "X-Key: tok\u20acn",
        ],
    )
    def test_malformed_auth_header_is_setup_error(self, monkeypatch, raw):
        monkeypatch.setenv(AUTH_ENV_VAR, raw)
        with pytest.raises(AgentSetupError, match=AUTH_ENV_VAR):
            request_headers()

    @pytest.mark.parametrize(
        "name",
        ["HOST", "content-type", "Content-LENGTH", "accept-Encoding", "Transfer-encoding", "cOnnection"],
    )
    def test_auth_header_naming_a_header_lmfa_controls_is_setup_error(self, monkeypatch, name):
        monkeypatch.setenv(AUTH_ENV_VAR, f"{name}: sesame")
        with pytest.raises(AgentSetupError) as raised:
            AgentSpec(id="r", kind=AgentKind.REMOTE, endpoint="http://127.0.0.1:9/")
        assert str(raised.value) == f"{AUTH_ENV_VAR} may not set {name}, a header lmfa controls"

    def test_chat_wire_format(self):
        with MockAgentServer(replies=["Down, Forward, A"], wire_format="chat") as server:
            s = new_match(MatchConfig())
            spec = AgentSpec(
                id="chat-x",
                kind=AgentKind.REMOTE,
                endpoint=server.url,
                model_name="chat-model",
                wire_format="chat",
            )
            d = act(spec, obs_for(s), "sys")
            assert d.failure is None
            assert d.command.normalized == "Down, Forward, A"
            body = json.loads(server.requests[0]["body"])
            assert body["model"] == "chat-model"
            assert body["messages"][0]["role"] == "system"

    def test_posts_go_through_the_module_global(self, monkeypatch):
        # a tracer wraps lmfa.agents.remote.post, so query_remote must look
        # the function up there at every attempt
        posts = []
        real_post = remote.post

        def recording_post(endpoint, body, headers, deadline):
            posts.append((endpoint, b"".join(body)))
            return real_post(endpoint, body, headers, deadline)

        monkeypatch.setattr(remote, "post", recording_post)
        with MockAgentServer(replies=["A"], status=503) as server:
            url = server.url
            d = act(remote_spec(url, retries=2), obs_for(new_match(MatchConfig())), "sys")
        assert d.failure is FailureKind.TRANSPORT
        assert [posted for posted, _ in posts] == [url] * 3
        assert [body for _, body in posts] == [r["body"] for r in server.requests]

    def test_a_retry_sends_the_whole_body_again(self, monkeypatch):
        # the body is streamed, so a POST that fails part-way through it
        # must not leave the next attempt to send only the rest
        attempts = []
        real_post = remote.post

        def fails_mid_body_once(endpoint, body, headers, deadline):
            attempts.append(endpoint)
            if len(attempts) == 1:
                next(iter(body))
                raise ConnectionResetError("connection reset while sending")
            return real_post(endpoint, body, headers, deadline)

        monkeypatch.setattr(remote, "post", fails_mid_body_once)
        obs = describe_state(new_match(MatchConfig()), Player.P1, frames=rendered_frames(3))
        with MockAgentServer(replies=["A"]) as server:
            spec = remote_spec(server.url, retries=1)
            d = act(spec, obs, "sys")
        expected = json.dumps(build_wire_request(spec, obs, "sys"), default=str).encode()
        assert d.failure is None
        assert len(attempts) == 2
        assert [r["body"] for r in server.requests] == [expected]


class TestWireRequest:
    def test_lmfa_shape(self):
        s = new_match(MatchConfig())
        frames = (WireText(b"AAAA"), WireText(b"BBBB"))
        obs = describe_state(s, Player.P1, frames=frames)
        req = build_wire_request(remote_spec("http://x/"), obs, "sys")
        assert req == {
            "protocol": "lmfa/1",
            "system_prompt": "sys",
            "frames_b64": list(frames),
            "state_text": obs.state_text,
            "reply_format": "single_command_last_line",
        }

    def test_chat_shape_interleaves_images(self):
        s = new_match(MatchConfig())
        obs = describe_state(s, Player.P1, frames=(WireText(b"AAAA"),))
        spec = AgentSpec(
            id="c", kind=AgentKind.REMOTE, endpoint="http://x/", wire_format="chat"
        )
        req = build_wire_request(spec, obs, "sys")
        user = req["messages"][1]["content"]
        assert user[0] == {"type": "text", "text": obs.state_text}
        assert str(user[1]["image_url"]["url"]) == "data:image/x-portable-pixmap;base64,AAAA"


MODEL_NAME = 'mödel "x" \\ ✓'
SYSTEM_PROMPT = 'sys — “quoted” "x"\n\\'


def rendered_frames(count: int) -> tuple:
    state = new_match(MatchConfig())
    frames = []
    for _ in range(count):
        frames.append(encode_frame_base64(annotate(render(state), state)))
        state = step(state, chord(Button.RIGHT), chord(Button.LEFT, Button.A))
    return tuple(frames)


class TestWireBody:
    """The posted body is json.dumps(build_wire_request(...), default=str).encode()."""

    @pytest.mark.parametrize("wire_format", ["lmfa", "chat"])
    @pytest.mark.parametrize(
        "frames",
        [rendered_frames(3), ()],
        ids=["rendered", "none"],
    )
    def test_posted_bytes_equal_json_dumps(self, wire_format, frames):
        obs = describe_state(new_match(MatchConfig()), Player.P2, frames=frames)
        with MockAgentServer(replies=["A"], wire_format=wire_format) as server:
            spec = AgentSpec(
                id="w",
                kind=AgentKind.REMOTE,
                endpoint=server.url,
                model_name=MODEL_NAME,
                wire_format=wire_format,
            )
            decision = act(spec, obs, SYSTEM_PROMPT)
        request = build_wire_request(spec, obs, SYSTEM_PROMPT)
        expected = json.dumps(request, default=str).encode()
        assert decision.failure is None
        assert b"".join(encode_wire_request(request)) == expected
        assert [r["body"] for r in server.requests] == [expected]

    @pytest.mark.parametrize("wire_format", ["lmfa", "chat"])
    def test_body_streams_one_frame_per_block(self, wire_format):
        frames = rendered_frames(10)
        obs = describe_state(new_match(MatchConfig()), Player.P1, frames=frames)
        spec = AgentSpec(
            id="w", kind=AgentKind.REMOTE, endpoint="http://x/", wire_format=wire_format
        )
        request = build_wire_request(spec, obs, build_system_prompt(MatchConfig()))
        body = encode_wire_request(request)
        blocks = list(body)
        assert b"".join(blocks) == json.dumps(request, default=str).encode()
        assert len(body) == len(b"".join(blocks))
        assert list(body) == blocks  # a retry sends it all again
        assert len(blocks) == len(frames) + 1
        assert max(map(len, blocks)) <= len(frames[0]) + 8 * 1024

    def test_streaming_holds_one_frame_at_a_time(self):
        frames = rendered_frames(10)
        obs = describe_state(new_match(MatchConfig()), Player.P1, frames=frames)
        request = build_wire_request(remote_spec("http://x/"), obs, "sys")
        tracemalloc.start()
        try:
            sent = sum(map(len, encode_wire_request(request)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sent > 10 * len(frames[0])
        assert peak < 2 * len(frames[0])

    def test_chat_url_shares_frame_pieces(self):
        (frame,) = rendered_frames(1)
        obs = describe_state(new_match(MatchConfig()), Player.P1, frames=(frame,))
        spec = AgentSpec(
            id="c", kind=AgentKind.REMOTE, endpoint="http://x/", wire_format="chat"
        )
        request = build_wire_request(spec, obs, "sys")
        url = request["messages"][1]["content"][1]["image_url"]["url"]
        assert url.pieces[0] == b"data:image/x-portable-pixmap;base64,"
        assert len(url.pieces) == 1 + len(frame.pieces)
        assert all(a is b for a, b in zip(url.pieces[1:], frame.pieces))
        assert str(url) == "data:image/x-portable-pixmap;base64," + str(frame)
        again = build_wire_request(spec, obs, "sys")
        assert b"".join(encode_wire_request(again)) == b"".join(encode_wire_request(request))

    @pytest.mark.parametrize(
        "payload",
        [
            [{"frames": [WireText(b"AAAA")]}],
            {"frame": WireText(b"AAAA", b"BBBB")},
            [WireText(b"AAAA"), WireText(b"BBBB")],
            WireText(b"AAAA"),
            [],
            {'kéy "q" \\': ['välue "q" \\ ✓\n', WireText(b"AAAA")], "\u2028": "\t"},
            (1, None, WireText(b"AAAA"), -2.5, None, {"n": None, "i": 3, "f": WireText(b"B")}),
        ],
        ids=[
            "in-a-list-in-a-dict-in-a-list",
            "dict-value",
            "adjacent",
            "alone",
            "empty-list",
            "escaped-text",
            "scalars-beside-frames",
        ],
    )
    def test_any_payload_is_written_as_json_dumps_writes_it(self, payload):
        body = encode_wire_request(payload)
        assert b"".join(body) == json.dumps(payload, default=str).encode()
        assert len(body) == len(b"".join(body))

    @pytest.mark.parametrize(
        "payload", [[WireText(b"AAAA"), object()], {"set": {1, 2}}, b"bytes"]
    )
    def test_what_is_neither_json_nor_a_frame_raises_type_error(self, payload):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json.dumps(payload)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            encode_wire_request(payload)

    @pytest.mark.parametrize("wire_format", ["lmfa", "chat"])
    def test_json_dumps_refuses_a_rendered_frame(self, wire_format):
        obs = describe_state(new_match(MatchConfig()), Player.P1, frames=rendered_frames(1))
        spec = AgentSpec(
            id="w", kind=AgentKind.REMOTE, endpoint="http://x/", wire_format=wire_format
        )
        with pytest.raises(TypeError):
            json.dumps(build_wire_request(spec, obs, "sys"))


def rss_bytes(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) * 1024
    raise AssertionError(f"no VmRSS for process {pid}")


class TestMockServerModule:
    def test_standalone_server_keeps_no_request(self):
        if not Path("/proc/self/status").exists():
            pytest.skip("reads the server's resident size from /proc")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "lmfa.agents.mock_server", "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            url = proc.stdout.readline().split()[-1]
            opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

            def post(body: bytes) -> bytes:
                with opener.open(urllib.request.Request(url, data=body)) as response:
                    return response.read()

            assert json.loads(post(b"{}")) == {"reply": "C"}
            before = rss_bytes(proc.pid)
            body = json.dumps({"frames_b64": ["A" * 3_000_000]}).encode()
            for _ in range(12):
                assert json.loads(post(body)) == {"reply": "C"}
            # a server that kept each body and its parsed text would have
            # grown by twice the 36 MB posted; allow what three requests hold
            assert rss_bytes(proc.pid) - before < 3 * 2 * len(body)
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()

    def test_standalone_server_serves_its_reply_and_exits_0_on_sigint(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "lmfa.agents.mock_server", "--port", "0", "--reply", "Forward + A"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            url = proc.stdout.readline().split()[-1]
            opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
            with opener.open(urllib.request.Request(url, data=b"\xff not json")) as response:
                assert response.status == 200
                assert json.loads(response.read()) == {"reply": "Forward + A"}
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()

    def test_a_body_that_is_not_json_is_served_and_kept_as_sent(self):
        body = b"\xff not json"
        with MockAgentServer(replies=["B"]) as server:
            opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
            with opener.open(urllib.request.Request(server.url, data=body)) as response:
                assert response.status == 200
                assert json.loads(response.read()) == {"reply": "B"}
        [record] = server.requests
        assert set(record) == {"path", "headers", "body"}
        assert record["body"] == body

    def test_stop_after_a_served_request_returns_at_once(self):
        server = MockAgentServer().start()
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(urllib.request.Request(server.url, data=b"{}")) as response:
            assert json.loads(response.read()) == {"reply": "C"}
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 0.1


class TestAgentsFile:
    def test_load_and_validate(self, tmp_path):
        path = tmp_path / "agents.json"
        path.write_text(
            json.dumps(
                {
                    "lmfa_agents": 1,
                    "agents": [
                        {"id": "a", "kind": "scripted", "policy": "idle"},
                        {
                            "id": "b",
                            "kind": "remote",
                            "endpoint": "http://localhost:1/",
                            "model_name": "m",
                        },
                    ],
                }
            )
        )
        specs = load_agents_file(path)
        assert [s.id for s in specs] == ["a", "b"]
        assert specs[1].kind is AgentKind.REMOTE

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "agents.json"
        path.write_text(
            json.dumps(
                {
                    "lmfa_agents": 1,
                    "agents": [
                        {"id": "a", "kind": "scripted", "policy": "idle"},
                        {"id": "a", "kind": "scripted", "policy": "zoner"},
                    ],
                }
            )
        )
        with pytest.raises(AgentSetupError):
            load_agents_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "agents.json"
        path.write_text(
            json.dumps(
                {
                    "lmfa_agents": 1,
                    "agents": [{"id": "a", "kind": "scripted", "policy": "idle", "oops": 1}],
                }
            )
        )
        with pytest.raises(AgentSetupError):
            load_agents_file(path)

    def test_the_entry_keys_are_the_spec_fields(self):
        fields = {f.name for f in dataclasses.fields(AgentSpec) if f.init}
        assert set(_ENTRY_KINDS) == fields

    @pytest.mark.parametrize("bad", ["has space", "", "id,le", "trailing\n"])
    def test_bad_id_rejected(self, bad):
        with pytest.raises(AgentSetupError, match="must match"):
            AgentSpec(id=bad, kind=AgentKind.SCRIPTED, policy=BotPolicy.IDLE)

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"lmfa_agents": True, "agents": []}, "'lmfa_agents' is not 1"),
            ({"lmfa_agents": 1.0, "agents": []}, "'lmfa_agents' is not 1"),
            ({"lmfa_agents": 1}, "lacks field(s): agents"),
            (
                {"lmfa_agents": 1, "agents": [{"id": "a", "kind": "scripted", "policy": "dance"}]},
                "'agents[0].policy' is not 'idle' or 'random'",
            ),
            ({"lmfa_agents": 1, "agents": [{"id": "a", "policy": "idle"}]}, "lacks field(s): agents[0].kind"),
        ],
    )
    def test_document_the_writer_never_writes_is_refused(self, tmp_path, doc, named):
        path = tmp_path / "agents.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(AgentSetupError) as caught:
            load_agents_file(path)
        assert named in str(caught.value)

    @pytest.mark.parametrize(
        "change",
        [
            {"timeout_ms": 0},
            {"max_retries": -1},
            {"id": ""},
            {"kind": AgentKind.REMOTE},
            {"policy": BotPolicy.FIXED_SCRIPT},
            {"policy": BotPolicy.FIXED_SCRIPT, "script_path": "/nonexistent/script.txt"},
        ],
    )
    def test_an_invalid_spec_cannot_be_built(self, change):
        spec = AgentSpec(id="a", kind=AgentKind.SCRIPTED, policy=BotPolicy.IDLE)
        with pytest.raises(AgentSetupError):
            dataclasses.replace(spec, **change)

    @pytest.mark.parametrize(
        "endpoint",
        ["localhost:8000/", "htp://127.0.0.1:9/", "http:///nohost", "http://[::1", "http://h:99999/"],
    )
    def test_an_endpoint_that_cannot_be_posted_to_is_refused(self, endpoint):
        with pytest.raises(AgentSetupError, match="is not an http or https URL with a host"):
            AgentSpec(id="r", kind=AgentKind.REMOTE, endpoint=endpoint)

    @pytest.mark.parametrize("endpoint", ["http://127.0.0.1:9/", "https://host/v1", "http://[::1]:8/"])
    def test_an_http_or_https_endpoint_with_a_host_builds(self, endpoint):
        assert AgentSpec(id="r", kind=AgentKind.REMOTE, endpoint=endpoint).endpoint == endpoint
