"""Uniform agent interface: one act() call per decision.

A bot's text parses by construction: ``fixed_script`` lines are parsed
when the spec is made, and the other policies return fixed texts or
``RANDOM_COMMAND_POOL`` entries. So a scripted decision's ``failure`` is
always None, and a bot text that does not parse, an lmfa bug, raises.

A remote decision never raises: transport/timeout/parse failures and
unparseable replies are captured inside the Decision; the fallback command
(block) is what the match runner executes, so failure never turns into
offense. Any other exception raised on the remote path is a transport
failure, and its traceback goes to this module's logger.
"""

from __future__ import annotations

import logging
import time

from lmfa.actions import NoCommandFoundError, extract_command, parse
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
    # scripted latency is identically zero to keep logs byte-reproducible
    return Decision(text, parse(text), 0)


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
