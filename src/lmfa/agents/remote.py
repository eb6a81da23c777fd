"""HTTP transport for remote agents.

Wire protocol (JSON POST, HTTP 200 only):

    request:  {"protocol": "lmfa/1", "system_prompt": str,
               "frames_b64": [str, ...], "state_text": str,
               "reply_format": "single_command_last_line"}
    response: {"reply": str}

An optional adapter reshapes the request into the common chat-completions
form (system message plus one user message with interleaved image parts)
for endpoints that only speak that dialect. The env var LMFA_AUTH_HEADER
("Header-Name: value") is attached verbatim; any other set value, or a
name in RESERVED_HEADERS, is an AgentSetupError.

The body is exactly ``json.dumps(request, default=str).encode()`` for the
request of ``build_wire_request(...)``, whose frames are the WireText of
``encode_frame_base64``. ``encode_wire_request`` has ``json.JSONEncoder``
write it and returns it as a WireBody that ``post`` sends one frame at a
time: each block joins one frame's base64 row pieces, so the whole body is
never built.

``post`` speaks HTTP/1.1 through ``http.client``. Inside ``keep_alive()``,
as ``run_match`` holds it, each endpoint keeps one connection for the
next decision; outside it every POST closes its connection. One deadline
covers connect, send, status line, headers and body: the socket timeout
is set to what is left of it before each of them.

``http.client`` is imported only when an agent is remote: ``load_transport``
binds it on first use, which constructing a remote ``AgentSpec`` does, so
scripted tournaments, ``lmfa replay`` and ``lmfa report`` never load it and
no decision pays the import.
"""

from __future__ import annotations

import io
import json
import os
import re
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlsplit

from lmfa.agents.specs import AgentSetupError, AgentSpec, FailureKind
from lmfa.observe.describe import PPM_MEDIA_TYPE, Observation, WireText

PROTOCOL = "lmfa/1"
REPLY_FORMAT = "single_command_last_line"
AUTH_ENV_VAR = "LMFA_AUTH_HEADER"
FRAME_URL_PREFIX = f"data:{PPM_MEDIA_TYPE};base64,"
MAX_REPLY_BYTES = 64 * 1024  # a longer response body is a parse failure
HEADER_NAME = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")  # an RFC 9110 token
# a non-empty RFC 9110 field-value: VCHAR and obs-text, with SP or HTAB only
# between them; http.client sends each of its characters as one Latin-1 byte
HEADER_VALUE = re.compile(r"[!-~\x80-\xff]+(?:[ \t]+[!-~\x80-\xff]+)*")
# headers that lmfa's requests set or that frame the body; a second one
# beside lmfa's own would contradict it, so LMFA_AUTH_HEADER may not name one
RESERVED_HEADERS = {
    "host", "content-type", "content-length", "accept-encoding", "transfer-encoding", "connection"
}

client = None  # http.client, bound by load_transport
# bench/tracing.py's Tracer.installed() saves and restores this name; lmfa never reads it
requests = None
# endpoint -> its open connection, while a keep_alive() block runs in this context
_connections: ContextVar[Optional[Dict[str, object]]] = ContextVar("lmfa_connections", default=None)


def load_transport() -> None:
    """Import ``http.client`` and bind it to ``client``, once."""
    global client
    if client is None:
        import http.client as module

        client = module


@contextmanager
def keep_alive() -> Iterator[None]:
    """Within the block, ``post`` keeps one connection per endpoint open
    for the next POST, in this context and in copies of it made with
    ``contextvars.copy_context``; leaving the block closes them all."""
    pool: Dict[str, object] = {}
    token = _connections.set(pool)
    try:
        yield
    finally:
        _connections.reset(token)
        for connection in pool.values():
            connection.close()


def build_wire_request(spec: AgentSpec, obs: Observation, system_prompt: str) -> dict:
    if spec.wire_format == "chat":
        content = [{"type": "text", "text": obs.state_text}]
        for b64 in obs.frames:
            content.append(
                {
                    "type": "image_url",
                    "image_url": {"url": b64.prefixed(FRAME_URL_PREFIX)},
                }
            )
        return {
            "model": spec.model_name,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": content},
            ],
        }
    return {
        "protocol": PROTOCOL,
        "system_prompt": system_prompt,
        "frames_b64": list(obs.frames),
        "state_text": obs.state_text,
        "reply_format": REPLY_FORMAT,
    }


def encode_wire_request(payload) -> WireBody:
    """``json.dumps(payload).encode()``, byte for byte, as a WireBody.

    ``json.JSONEncoder`` writes every byte but the frames' own: it hands
    each WireText to ``default``, which keeps it and returns None, and the
    ``null`` written for that is replaced by the text between quotes. Any
    other object that is not JSON raises json's own TypeError.
    """
    texts: List[WireText] = []

    def default(value):
        if not isinstance(value, WireText):
            return json.JSONEncoder.default(encoder, value)
        texts.append(value)
        return None

    encoder = json.JSONEncoder(default=default)
    frames: List[Tuple[bytes, WireText]] = []
    glue = ""
    # without _one_shot, iterencode is the pure-Python encoder, which
    # yields the null for a value of default as a chunk of its own
    for chunk in encoder.iterencode(payload):
        if texts:
            frames.append(((glue + '"').encode(), texts.pop()))
            glue = '"'
        else:
            glue += chunk
    return WireBody(frames, glue.encode())


class WireBody:
    """A request body sent in blocks, one per frame.

    ``frames`` pairs each frame's WireText with the JSON text before it,
    back to the previous frame; ``tail`` is the text after the last frame.
    Each block is one such pair made by a single join, and ``tail`` is the
    last block. ``len`` is the exact byte count, which ``post`` sends as the
    ``Content-Length``. Each iteration starts from the first byte, so a
    retried POST sends the whole body again.
    """

    __slots__ = ("_frames", "_tail", "_length")

    def __init__(self, frames: List[Tuple[bytes, WireText]], tail: bytes) -> None:
        self._frames = frames
        self._tail = tail
        self._length = len(tail) + sum(len(glue) + len(text) for glue, text in frames)

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[bytes]:
        for glue, text in self._frames:
            yield b"".join((glue, *text.pieces))
        yield self._tail


def extract_reply_text(spec: AgentSpec, body: dict) -> str:
    if spec.wire_format == "chat":
        reply = body["choices"][0]["message"]["content"]
    else:
        reply = body["reply"]
    if not isinstance(reply, str):
        raise TypeError(f"reply is {type(reply).__name__}, not a string")
    return reply


def request_headers() -> dict:
    """Raises AgentSetupError if LMFA_AUTH_HEADER is set but not ``Name: value``,
    the name a token and the value a field-value (RFC 9110), or if the name
    is one of RESERVED_HEADERS, in any case."""
    headers = {"Content-Type": "application/json"}
    raw = os.environ.get(AUTH_ENV_VAR, "")
    if raw:
        name, _, value = raw.partition(":")
        value = value.strip(" \t")
        if not HEADER_NAME.fullmatch(name) or not HEADER_VALUE.fullmatch(value):
            # the message leaves out the value: it is a credential
            raise AgentSetupError(f"{AUTH_ENV_VAR} must be 'Name: value'")
        if name.lower() in RESERVED_HEADERS:
            raise AgentSetupError(f"{AUTH_ENV_VAR} may not set {name}, a header lmfa controls")
        headers[name] = value
    return headers


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline`` (a ``time.monotonic`` value); raises
    TimeoutError once it has passed."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("the decision's deadline passed")
    return left


class _TimedReader(io.RawIOBase):
    """Stands in for the socket that ``getresponse`` hands ``HTTPResponse``,
    which reads the reply, status line and headers included, from its
    ``makefile``: before every read the socket timeout is set to what is
    left before ``deadline``, so no drip outlasts it."""

    def __init__(self, sock, deadline: float) -> None:
        super().__init__()
        self._sock = sock
        self._deadline = deadline
        # a socket file keeps the descriptor open after the connection
        # closes, as HTTPResponse's own would, for a reply that ends with it
        self._file = sock.makefile("rb", buffering=0)

    def makefile(self, mode: str) -> io.BufferedReader:
        return io.BufferedReader(self)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        self._sock.settimeout(_time_left(self._deadline))
        return self._file.readinto(buffer)

    def close(self) -> None:
        self._file.close()
        super().close()


def _send(connection, target: str, body: WireBody, headers: dict, deadline: float):
    """Send the POST on ``connection``, opening it first if it is closed,
    and return the response with its status line and headers read."""
    if connection.sock is None:
        connection.timeout = _time_left(deadline)
        connection.connect()  # http.client sets TCP_NODELAY on the socket
    connection.putrequest("POST", target)  # adds Host and Accept-Encoding: identity
    for name, value in headers.items():
        connection.putheader(name, value)
    connection.putheader("Content-Length", str(len(body)))
    connection.sock.settimeout(_time_left(deadline))
    connection.endheaders()
    for block in body:
        connection.sock.settimeout(_time_left(deadline))
        connection.send(block)
    connection.response_class = lambda sock, method=None: client.HTTPResponse(
        _TimedReader(sock, deadline), method=method
    )
    return connection.getresponse()


def _read_reply(response) -> Optional[bytes]:
    """The whole response body, or None once it passes MAX_REPLY_BYTES.
    Raises IncompleteRead if the body ends before its Content-Length."""
    body = response.read(MAX_REPLY_BYTES + 1)
    if len(body) > MAX_REPLY_BYTES:
        return None
    if response.length:
        raise client.IncompleteRead(body, response.length)
    return body


def post(
    endpoint: str, body: WireBody, headers: dict, deadline: float
) -> Tuple[int, Optional[bytes]]:
    """POST ``body`` to ``endpoint``; returns the status and the whole
    response body, or None for a body longer than MAX_REPLY_BYTES.

    Inside ``keep_alive()`` the endpoint's open connection is reused, and
    kept for the next call unless the reply was too long or ended it. A
    kept connection that the server closed before replying is reopened
    and the request sent again, once. Raises TimeoutError once
    ``deadline`` (a ``time.monotonic`` value) passes, and another OSError
    or an ``http.client.HTTPException`` if the exchange fails; the
    connection is then closed.
    """
    pool = _connections.get()
    connection = pool.pop(endpoint, None) if pool is not None else None
    kept = connection is not None
    parts = urlsplit(endpoint)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    if connection is None:
        kind = client.HTTPSConnection if parts.scheme == "https" else client.HTTPConnection
        connection = kind(parts.hostname, parts.port)
    try:
        try:
            response = _send(connection, target, body, headers, deadline)
        except ConnectionError:
            if not kept:
                raise
            connection.close()  # the server closed it while it was idle
            response = _send(connection, target, body, headers, deadline)
        with response:
            reply = _read_reply(response)
    except BaseException:
        connection.close()
        raise
    if (
        pool is None
        or reply is None
        or response.will_close
        or pool.setdefault(endpoint, connection) is not connection
    ):
        connection.close()
    return response.status, reply


def query_remote(
    spec: AgentSpec, obs: Observation, system_prompt: str
) -> Tuple[Optional[str], Optional[FailureKind]]:
    """POST the observation; returns (reply_text, failure).

    ``timeout_ms`` is a wall-clock deadline for the whole exchange, retries
    included; passing it is a timeout. Timeouts, transport errors and
    statuses other than 200 are retried while time remains, up to
    max_retries; malformed response bodies, including a reply that is not
    a string, a body longer than MAX_REPLY_BYTES or one nested too deep
    for ``json.loads``, are parse failures and are never retried.
    """
    body = encode_wire_request(build_wire_request(spec, obs, system_prompt))
    headers = request_headers()
    deadline = time.monotonic() + spec.timeout_ms / 1000
    failure: Optional[FailureKind] = None
    for _ in range(spec.max_retries + 1):
        if time.monotonic() >= deadline:
            return None, FailureKind.TIMEOUT
        try:
            status, reply = post(spec.endpoint, body, headers, deadline)
        except TimeoutError:
            failure = FailureKind.TIMEOUT
            continue
        except (OSError, client.HTTPException):
            failure = FailureKind.TRANSPORT
            continue
        if status != 200:
            failure = FailureKind.TRANSPORT
            continue
        if reply is None:
            return None, FailureKind.PARSE_ERROR
        try:
            return extract_reply_text(spec, json.loads(reply)), None
        except (ValueError, KeyError, IndexError, TypeError, RecursionError):
            return None, FailureKind.PARSE_ERROR
    return None, failure
