"""Uniform agent interface: one act() call per decision, never raises.

Remote transport/timeout/parse failures and unparseable replies are all
captured inside the Decision; the fallback command (block) is what the
match runner actually executes, so failure never turns into offense. Any
other exception raised on the remote path is a transport failure, and
its traceback goes to this module's logger.
"""

from __future__ import annotations

import logging
import time

from lmfa.actions import (
    CommandError,
    NoCommandFoundError,
    extract_command,
    parse,
)
from lmfa.agents import bots
from lmfa.agents.bots import FALLBACK_COMMAND
from lmfa.agents.remote import query_remote
from lmfa.agents.specs import AgentKind, AgentSpec, Decision, FailureKind
from lmfa.observe.describe import Observation


def act(spec: AgentSpec, obs: Observation, system_prompt: str) -> Decision:
    if spec.kind is AgentKind.SCRIPTED:
        return _act_scripted(spec, obs)
    return _act_remote(spec, obs, system_prompt)


def _act_scripted(spec: AgentSpec, obs: Observation) -> Decision:
    text = bots.decide(spec, obs)
    try:
        command = parse(text)
        failure = None
    except CommandError:
        command = parse(FALLBACK_COMMAND)
        failure = FailureKind.PARSE_ERROR
    # scripted latency is identically zero to keep logs byte-reproducible
    return Decision(
        raw_reply=text,
        command=command,
        latency_ms=0,
        failure=failure,
    )


def _act_remote(spec: AgentSpec, obs: Observation, system_prompt: str) -> Decision:
    started = time.perf_counter()
    reply = command = None
    try:
        reply, failure = query_remote(spec, obs, system_prompt)
        if reply is not None:
            command = extract_command(reply)
    except NoCommandFoundError:
        failure = FailureKind.NO_COMMAND
    except Exception:  # any other fault on the remote path: act never raises
        logging.getLogger(__name__).exception("agent %s: remote decision failed", spec.id)
        failure = FailureKind.TRANSPORT
    latency_ms = int((time.perf_counter() - started) * 1000)
    if command is None:
        command = parse(FALLBACK_COMMAND)
    return Decision(
        raw_reply=reply or "",
        command=command,
        latency_ms=latency_ms,
        failure=failure,
    )
