"""Deterministic scripted opponents.

Every bot is a pure function of (observation, spec seed): replaying a
match with the same specs reproduces every decision bit-exactly, and no
bot ever inspects hidden engine state - only what a remote agent would
see in the structured features. A fixed_script bot plays the lines its
spec read and checked when it was made.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from lmfa.agents.specs import AgentSpec, BotPolicy
from lmfa.observe.describe import Observation

FALLBACK_COMMAND = "C"

RUSHDOWN_KICK_RANGE = 100
ZONER_RETREAT_RANGE = 80

# Pool for the random bot; every entry must parse (tested).
RANDOM_COMMAND_POOL: Tuple[str, ...] = (
    "A",
    "B",
    "C",
    "Forward",
    "Back",
    "Jump",
    "Jump + Forward",
    "Crouch + B",
    "Down + A",
    "Forward + A",
    "Back + B",
    "Down, Forward, A",
    "Forward, Forward, C",
    "B, B",
    "Forward, A",
)


def _distance(obs: Observation) -> int:
    sx, _ = obs.features.self_position
    ox, _ = obs.features.opponent_position
    return abs(sx - ox)


def _seeded_index(seed: int, obs: Observation, modulus: int) -> int:
    key = f"{seed}:{obs.decision_index}:{obs.for_player.value}".encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") % modulus


def decide(spec: AgentSpec, obs: Observation) -> str:
    """Return the bot's command text for this decision."""
    policy = spec.policy
    if policy is BotPolicy.IDLE:
        return FALLBACK_COMMAND
    if policy is BotPolicy.RUSHDOWN:
        if _distance(obs) > RUSHDOWN_KICK_RANGE:
            return "Forward, Forward, C"
        return "A"
    if policy is BotPolicy.ZONER:
        if _distance(obs) < ZONER_RETREAT_RANGE:
            return "Back"
        return "Down, Forward, A"
    if policy is BotPolicy.RANDOM:
        pool = RANDOM_COMMAND_POOL
        return pool[_seeded_index(spec.seed, obs, len(pool))]
    if policy is BotPolicy.FIXED_SCRIPT:
        script = spec.script
        return script[obs.decision_index % len(script)]
