"""The HTTP/1.1 transport under the remote agents: kept-alive connections
and one deadline that covers every read.

The servers here are plain sockets, so each can misbehave in a way
``MockAgentServer`` does not: drip its status line, fall silent after its
headers, or close every connection after one reply.
"""

from __future__ import annotations

import re
import socket
import socketserver
import threading
import time

import pytest

from lmfa.agents import remote
from lmfa.agents.gateway import act
from lmfa.agents.mock_server import MockAgentServer
from lmfa.agents.specs import AgentKind, AgentSpec, BotPolicy, FailureKind
from lmfa.config import MatchConfig
from lmfa.engine.core import new_match
from lmfa.engine.state import Player
from lmfa.observe.describe import describe_state
from lmfa.tourney.match import run_match

REPLY = b'{"reply": "Forward + A"}'
HEAD = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n"
# ten decision ticks per side
TEN_TICKS = MatchConfig(seed=4, match_length_frames=400, decision_interval_frames=40)


def read_request(conn: socket.socket) -> bool:
    """Read one request, headers and body; False if the client closed first."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return False
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(re.search(rb"(?i)\r\ncontent-length: *(\d+)", head).group(1))
    while len(body) < length:
        body += conn.recv(65536)
    return True


class RawServer(socketserver.ThreadingTCPServer):
    """Calls ``serve(server, conn)`` for each accepted connection on its own
    thread; counts connections and requests. ``stopped`` is set on exit."""

    daemon_threads = True
    block_on_close = False

    def __init__(self, serve) -> None:
        self.serve = serve
        self.connections = 0
        self.requests = 0
        self.lock = threading.Lock()
        self.stopped = threading.Event()
        super().__init__(("127.0.0.1", 0), RawHandler)

    @property
    def url(self) -> str:
        return "http://127.0.0.1:%d/" % self.server_address[1]

    def __enter__(self) -> "RawServer":
        threading.Thread(target=self.serve_forever, args=(0.01,), daemon=True).start()
        return self

    def __exit__(self, *exc) -> None:
        self.stopped.set()
        self.shutdown()
        self.server_close()

    def next_request(self, conn: socket.socket) -> bool:
        if not read_request(conn):
            return False
        with self.lock:
            self.requests += 1
        return True


class RawHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        with self.server.lock:
            self.server.connections += 1
        try:
            self.server.serve(self.server, self.request)
        except OSError:
            pass  # the client closed the connection


def remote_spec(url: str, timeout_ms: int = 2000, retries: int = 1) -> AgentSpec:
    return AgentSpec(
        id="remote", kind=AgentKind.REMOTE, endpoint=url, timeout_ms=timeout_ms,
        max_retries=retries,
    )


def small_obs():
    return describe_state(new_match(MatchConfig()), Player.P1)


def act_within(spec: AgentSpec, limit_s: float = 3.0):
    """``act`` on a thread joined for at most ``limit_s``: (decision, seconds)."""
    result = {}

    def run() -> None:
        started = time.perf_counter()
        result["decision"] = act(spec, small_obs(), "sys")
        result["elapsed"] = time.perf_counter() - started

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(limit_s)
    assert not thread.is_alive(), f"act still running after {limit_s} s"
    return result["decision"], result["elapsed"]


class TestDeadline:
    def test_a_dripped_status_line_and_headers_time_out(self):
        def drip_head(server: RawServer, conn: socket.socket) -> None:
            server.next_request(conn)
            head = HEAD % len(REPLY) + b"X-Pad: " + b"p" * 200 + b"\r\n"
            for i in range(len(head)):
                if server.stopped.wait(0.05):
                    return
                conn.sendall(head[i : i + 1])

        with RawServer(drip_head) as server:
            decision, elapsed = act_within(remote_spec(server.url, timeout_ms=300))
        assert decision.failure is FailureKind.TIMEOUT
        assert decision.command.normalized == "C"
        assert elapsed < 0.4

    def test_a_server_silent_after_its_headers_times_out(self):
        def silent_after_head(server: RawServer, conn: socket.socket) -> None:
            server.next_request(conn)
            # late enough that a fresh read timeout for the body would run
            # well past the deadline
            if server.stopped.wait(0.2):
                return
            conn.sendall(HEAD % len(REPLY))
            conn.recv(1)  # until the client closes the connection

        with RawServer(silent_after_head) as server:
            decision, elapsed = act_within(remote_spec(server.url, timeout_ms=300))
        assert decision.failure is FailureKind.TIMEOUT
        assert elapsed < 0.4

    def test_a_reply_shorter_than_its_content_length_is_a_transport_failure(self):
        def short_body_then_close(server: RawServer, conn: socket.socket) -> None:
            server.next_request(conn)
            conn.sendall(HEAD % 100 + b'{"reply": "A"}')

        with RawServer(short_body_then_close) as server:
            decision, _ = act_within(remote_spec(server.url, retries=2))
            connections = server.connections
        assert decision.failure is FailureKind.TRANSPORT
        assert decision.command.normalized == "C"
        assert connections == 3

    def test_every_read_of_the_reply_checks_the_deadline(self):
        ours, theirs = socket.socketpair()
        with ours, theirs:
            reader = remote._TimedReader(ours, time.monotonic() + 0.2)
            with reader.makefile("rb") as file:
                assert reader.readable()
                theirs.sendall(b"x")
                assert file.read(1) == b"x"
                started = time.perf_counter()
                with pytest.raises(TimeoutError):
                    file.read(1)
                assert time.perf_counter() - started < 0.3
                with pytest.raises(TimeoutError):  # the deadline has passed
                    file.read(1)


class TestKeepAlive:
    def test_each_side_of_a_match_keeps_one_connection(self):
        with MockAgentServer(replies=["A", "B"]) as s1, MockAgentServer(
            replies=["Forward + B"], wire_format="chat"
        ) as s2:
            log = run_match(
                AgentSpec(id="one", kind=AgentKind.REMOTE, endpoint=s1.url),
                AgentSpec(id="two", kind=AgentKind.REMOTE, endpoint=s2.url, wire_format="chat"),
                TEN_TICKS,
            )
            served = (len(s1.requests), len(s2.requests))
            connections = (s1.connections, s2.connections)
        assert [d["failure"] for d in log.decisions] == [None] * 20
        assert served == (10, 10)
        assert connections == (1, 1)

    def test_a_connection_the_server_closed_is_reopened_without_a_retry(self):
        def one_reply_then_close(server: RawServer, conn: socket.socket) -> None:
            server.next_request(conn)
            conn.sendall(HEAD % len(REPLY) + REPLY)  # no Connection: close

        with RawServer(one_reply_then_close) as server:
            log = run_match(
                remote_spec(server.url, retries=0),
                AgentSpec(id="idle", kind=AgentKind.SCRIPTED, policy=BotPolicy.IDLE),
                TEN_TICKS,
            )
            served = server.requests
        remote_decisions = log.decisions[0::2]
        assert [d["failure"] for d in remote_decisions] == [None] * 10
        assert {d["command"] for d in remote_decisions} == {"Forward + A"}
        assert served == 10

    def test_a_decision_outside_a_match_leaves_no_socket_open(self):
        closed = []

        def reply_then_wait(server: RawServer, conn: socket.socket) -> None:
            server.next_request(conn)
            conn.sendall(HEAD % len(REPLY) + REPLY)
            conn.settimeout(2)
            closed.append(conn.recv(1) == b"")

        with RawServer(reply_then_wait) as server:
            decision, _ = act_within(remote_spec(server.url))
            deadline = time.monotonic() + 3
            while not closed and time.monotonic() < deadline:
                time.sleep(0.01)
        assert decision.failure is None
        assert closed == [True]
