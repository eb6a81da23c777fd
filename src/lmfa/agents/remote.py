"""HTTP transport for remote agents.

Wire protocol (JSON POST, HTTP 200 only):

    request:  {"protocol": "lmfa/1", "system_prompt": str,
               "frames_b64": [str, ...], "state_text": str,
               "reply_format": "single_command_last_line"}
    response: {"reply": str}

An optional adapter reshapes the request into the common chat-completions
form (system message plus one user message with interleaved image parts)
for endpoints that only speak that dialect. The env var LMFA_AUTH_HEADER
("Header-Name: value") is attached verbatim; any other set value is an
AgentSetupError.

The body is exactly ``json.dumps(request, default=str).encode()`` for the
request of ``build_wire_request(...)``, whose frames are the WireText of
``encode_frame_base64``. ``encode_wire_request`` returns it as a WireBody
that ``requests`` streams one frame at a time: each block joins one
frame's base64 row pieces, so the whole body is never built.

``requests`` is imported only when an agent is remote: ``load_transport``
binds it on first use, which constructing a remote ``AgentSpec`` does, so
scripted tournaments, ``lmfa replay`` and ``lmfa report`` never load it and
no decision pays the import. A missing package is an AgentSetupError
(exit 3) before any match.
"""

from __future__ import annotations

import json
import os
import re
import time
from typing import Iterator, List, Optional, Tuple, Union

from lmfa.agents.specs import AgentSetupError, AgentSpec, FailureKind
from lmfa.observe.describe import Observation, WireText

PROTOCOL = "lmfa/1"
REPLY_FORMAT = "single_command_last_line"
AUTH_ENV_VAR = "LMFA_AUTH_HEADER"
FRAME_URL_PREFIX = "data:image/x-portable-pixmap;base64,"
MAX_REPLY_BYTES = 64 * 1024  # a longer response body is a parse failure
HEADER_NAME = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")  # an RFC 9110 token
# a non-empty RFC 9110 field-value: VCHAR and obs-text, with SP or HTAB only
# between them; http.client sends each of its characters as one Latin-1 byte
HEADER_VALUE = re.compile(r"[!-~\x80-\xff]+(?:[ \t]+[!-~\x80-\xff]+)*")

requests = None  # the transport module, bound by load_transport


def load_transport():
    """The ``requests`` module, imported on the first call; a module already
    bound to ``requests`` here is returned as it is. Raises AgentSetupError
    if the package is not installed."""
    global requests
    if requests is None:
        try:
            import requests as module
        except ImportError as exc:
            raise AgentSetupError(
                f"remote agents need the requests package, which cannot be imported: {exc}"
            ) from exc
        requests = module
    return requests


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
    """``json.dumps(payload).encode()``, byte for byte, as a WireBody that
    writes every WireText as its text from its ``pieces``."""
    frames: List[Tuple[bytes, WireText]] = []
    glue: List[bytes] = []
    for part in _write_json(payload):
        if isinstance(part, WireText):
            frames.append((b"".join(glue), part))
            glue.clear()
        else:
            glue.append(part)
    return WireBody(frames, b"".join(glue))


class WireBody:
    """A request body sent in blocks, one per frame.

    ``frames`` pairs each frame's WireText with the JSON text before it,
    back to the previous frame; ``tail`` is the text after the last frame.
    Each block is one such pair made by a single join, and ``tail`` is the
    last block. ``len`` is the exact byte count, so ``requests`` sends a
    ``Content-Length`` rather than chunked encoding. Each iteration starts
    from the first byte, so a retried POST sends the whole body again.
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


def _write_json(value) -> Iterator[Union[bytes, WireText]]:
    """The JSON text of ``value`` as ``bytes`` parts, with every WireText
    yielded as it is between its quotes."""
    if isinstance(value, WireText):
        yield b'"'
        yield value
        yield b'"'
    elif isinstance(value, dict):
        yield b"{"
        for i, (key, item) in enumerate(value.items()):
            if i:
                yield b", "
            yield json.dumps(key).encode()
            yield b": "
            yield from _write_json(item)
        yield b"}"
    elif isinstance(value, (list, tuple)):
        yield b"["
        for i, item in enumerate(value):
            if i:
                yield b", "
            yield from _write_json(item)
        yield b"]"
    else:
        yield json.dumps(value).encode()


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
    the name a token and the value a field-value (RFC 9110)."""
    headers = {"Content-Type": "application/json"}
    raw = os.environ.get(AUTH_ENV_VAR, "")
    if raw:
        name, _, value = raw.partition(":")
        value = value.strip(" \t")
        if not HEADER_NAME.fullmatch(name) or not HEADER_VALUE.fullmatch(value):
            # the message leaves out the value: it is a credential
            raise AgentSetupError(f"{AUTH_ENV_VAR} must be 'Name: value'")
        headers[name] = value
    return headers


def _read_reply(response: requests.Response, deadline: float) -> Optional[bytes]:
    """The decoded body, read as chunks arrive; None once it passes
    MAX_REPLY_BYTES. Raises TimeoutError when ``deadline`` (a
    ``time.monotonic`` value) passes between chunks."""
    body = bytearray()
    while time.monotonic() < deadline:
        chunk = response.raw.read1(MAX_REPLY_BYTES + 1, decode_content=True)
        if not chunk:
            return bytes(body)
        body += chunk
        if len(body) > MAX_REPLY_BYTES:
            return None
    raise TimeoutError("deadline passed while reading the reply")


def query_remote(
    spec: AgentSpec, obs: Observation, system_prompt: str
) -> Tuple[Optional[str], Optional[FailureKind]]:
    """POST the observation; returns (reply_text, failure).

    ``timeout_ms`` is a wall-clock deadline for the whole exchange, retries
    included; passing it is a timeout. Timeouts and transport errors are
    retried while time remains, up to max_retries; malformed response
    bodies, including a reply that is not a string, a body longer than
    MAX_REPLY_BYTES or one nested too deep for ``json.loads``, are parse
    failures and are never retried.
    """
    from urllib3.exceptions import HTTPError, ReadTimeoutError

    body = encode_wire_request(build_wire_request(spec, obs, system_prompt))
    headers = request_headers()
    deadline = time.monotonic() + spec.timeout_ms / 1000
    failure: Optional[FailureKind] = None
    for _ in range(spec.max_retries + 1):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None, FailureKind.TIMEOUT
        try:
            with requests.post(
                spec.endpoint, data=body, headers=headers, timeout=remaining, stream=True
            ) as response:
                if response.status_code != 200:
                    failure = FailureKind.TRANSPORT
                    continue
                reply = _read_reply(response, deadline)
        except (requests.Timeout, ReadTimeoutError, TimeoutError):
            failure = FailureKind.TIMEOUT
            continue
        except (requests.RequestException, HTTPError):
            failure = FailureKind.TRANSPORT
            continue
        if reply is None:
            return None, FailureKind.PARSE_ERROR
        try:
            return extract_reply_text(spec, json.loads(reply)), None
        except (ValueError, KeyError, IndexError, TypeError, RecursionError):
            return None, FailureKind.PARSE_ERROR
    return None, failure
