"""HTTP transport for remote agents.

Wire protocol (JSON POST, HTTP 200 only):

    request:  {"protocol": "lmfa/1", "system_prompt": str,
               "frames_b64": [str, ...], "state_text": str,
               "reply_format": "single_command_last_line"}
    response: {"reply": str}

An optional adapter reshapes the request into the common chat-completions
form (system message plus one user message with interleaved image parts)
for endpoints that only speak that dialect. The env var LMFA_AUTH_HEADER
("Header-Name: value") is attached verbatim when set.

The body is exactly ``json.dumps(request).encode()`` for the request of
``build_wire_request(...)`` with each frame replaced by its text,
``str(frame)``. Rendered frames are WireText, base64 held as row pieces;
``encode_wire_request`` splices those pieces in as pre-encoded bytes and
joins each body once, so a frame's text is never built.
"""

from __future__ import annotations

import json
import os
import time
from typing import List, Optional, Tuple, Union

import requests
from urllib3.exceptions import HTTPError, ReadTimeoutError

from lmfa.agents.specs import AgentSpec, FailureKind
from lmfa.observe.describe import Observation, WireText

PROTOCOL = "lmfa/1"
REPLY_FORMAT = "single_command_last_line"
AUTH_ENV_VAR = "LMFA_AUTH_HEADER"
FRAME_URL_PREFIX = "data:image/x-portable-pixmap;base64,"
MAX_REPLY_BYTES = 64 * 1024  # a longer response body is a parse failure


def _frame_url(b64: Union[WireText, str]) -> Union[WireText, str]:
    if isinstance(b64, WireText):
        return b64.prefixed(FRAME_URL_PREFIX)
    return FRAME_URL_PREFIX + b64


def build_wire_request(spec: AgentSpec, obs: Observation, system_prompt: str) -> dict:
    if spec.wire_format == "chat":
        content = [{"type": "text", "text": obs.state_text}]
        for b64 in obs.frames:
            content.append(
                {
                    "type": "image_url",
                    "image_url": {"url": _frame_url(b64)},
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


def encode_wire_request(payload) -> bytes:
    """``json.dumps(payload).encode()``, byte for byte, with every WireText
    written as its text from its ``pieces``; the one copy is the final
    join."""
    out: List[bytes] = []
    _write_json(payload, out)
    return b"".join(out)


def _write_json(value, out: List[bytes]) -> None:
    if isinstance(value, WireText):
        out.append(b'"')
        out.extend(value.pieces)
        out.append(b'"')
    elif isinstance(value, dict):
        out.append(b"{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(b", ")
            out.append(json.dumps(key).encode())
            out.append(b": ")
            _write_json(item, out)
        out.append(b"}")
    elif isinstance(value, (list, tuple)):
        out.append(b"[")
        for i, item in enumerate(value):
            if i:
                out.append(b", ")
            _write_json(item, out)
        out.append(b"]")
    else:
        out.append(json.dumps(value).encode())


def extract_reply_text(spec: AgentSpec, body: dict) -> str:
    if spec.wire_format == "chat":
        reply = body["choices"][0]["message"]["content"]
    else:
        reply = body["reply"]
    if not isinstance(reply, str):
        raise TypeError(f"reply is {type(reply).__name__}, not a string")
    return reply


def request_headers() -> dict:
    headers = {"Content-Type": "application/json"}
    raw = os.environ.get(AUTH_ENV_VAR, "")
    if raw:
        name, _, value = raw.partition(":")
        if name.strip() and value.strip():
            headers[name.strip()] = value.strip()
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
