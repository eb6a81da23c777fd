"""Agent specifications and per-decision records."""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from lmfa.actions import Command


class AgentSetupError(ValueError):
    """Agent spec cannot be resolved; raised before any frame runs."""


class AgentKind(enum.Enum):
    REMOTE = "remote"
    SCRIPTED = "scripted"


class BotPolicy(enum.Enum):
    IDLE = "idle"
    RANDOM = "random"
    RUSHDOWN = "rushdown"
    ZONER = "zoner"
    FIXED_SCRIPT = "fixed_script"


class FailureKind(enum.Enum):
    TIMEOUT = "timeout"
    TRANSPORT = "transport"
    NO_COMMAND = "no_command"
    PARSE_ERROR = "parse_error"


WIRE_FORMATS = ("lmfa", "chat")

_ID_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


@dataclass(frozen=True)
class AgentSpec:
    id: str
    kind: AgentKind
    endpoint: str = ""
    model_name: str = ""
    bot_policy: Optional[BotPolicy] = None
    seed: int = 0
    script_path: str = ""
    timeout_ms: int = 10_000
    max_retries: int = 1
    wire_format: str = "lmfa"

    def validated(self) -> "AgentSpec":
        if not self.id or not _ID_RE.match(self.id):
            raise AgentSetupError(
                f"agent id {self.id!r} must match [A-Za-z0-9_.-]+"
            )
        if self.timeout_ms < 1:
            raise AgentSetupError(f"agent {self.id}: timeout_ms must be >= 1")
        if self.max_retries < 0:
            raise AgentSetupError(f"agent {self.id}: max_retries must be >= 0")
        if self.kind is AgentKind.REMOTE:
            if not self.endpoint:
                raise AgentSetupError(f"agent {self.id}: remote agent needs endpoint")
            if self.wire_format not in WIRE_FORMATS:
                raise AgentSetupError(
                    f"agent {self.id}: unknown wire_format {self.wire_format!r}"
                )
        else:
            if self.bot_policy is None:
                raise AgentSetupError(f"agent {self.id}: scripted agent needs policy")
            if self.bot_policy is BotPolicy.FIXED_SCRIPT and not self.script_path:
                raise AgentSetupError(
                    f"agent {self.id}: fixed_script policy needs script_path"
                )
        return self


@dataclass(frozen=True)
class Decision:
    """One agent decision; failures carry the fallback command executed."""

    raw_reply: str
    command: Command
    latency_ms: int
    failure: Optional[FailureKind] = None


_TEXT_KEYS = {"id", "kind", "endpoint", "model_name", "policy", "script_path", "wire_format"}
_INT_KEYS = {"seed", "timeout_ms", "max_retries"}


def _spec_from_dict(raw: object, source: str) -> AgentSpec:
    if not isinstance(raw, dict):
        raise AgentSetupError(f"agent entry {raw!r} in {source} is not an object")
    unknown = set(raw) - _TEXT_KEYS - _INT_KEYS
    if unknown:
        raise AgentSetupError(f"unknown agent keys {sorted(unknown)} in {source}")
    name = raw.get("id")
    for key, value in raw.items():
        if key in _INT_KEYS and type(value) is not int:  # rejects bool
            raise AgentSetupError(f"agent {name!r}: {key} must be an integer, not {value!r}")
        if key in _TEXT_KEYS and not isinstance(value, str):
            raise AgentSetupError(f"agent {name!r}: {key} must be a string, not {value!r}")
    if "id" not in raw:
        raise AgentSetupError(f"agent entry without an id in {source}")
    kwargs = dict(raw)
    try:
        kwargs["kind"] = AgentKind(raw.get("kind"))
    except ValueError:
        raise AgentSetupError(
            f"agent {name!r}: kind must be one of {[k.value for k in AgentKind]}"
        ) from None
    if "policy" in kwargs:
        try:
            kwargs["bot_policy"] = BotPolicy(kwargs.pop("policy"))
        except ValueError:
            raise AgentSetupError(
                f"agent {name!r}: unknown policy {raw['policy']!r}"
            ) from None
    return AgentSpec(**kwargs).validated()


def load_agents_file(path: Union[str, Path]) -> List[AgentSpec]:
    """Read the versioned agents file: {"lmfa_agents": 1, "agents": [...]}."""
    p = Path(path)
    if not p.is_file():
        raise AgentSetupError(f"agents file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise AgentSetupError(f"agents file {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("lmfa_agents") != 1:
        raise AgentSetupError(f'agents file {p} must carry "lmfa_agents": 1')
    unknown = set(data) - {"lmfa_agents", "agents"}
    if unknown:
        raise AgentSetupError(f"unknown top-level keys {sorted(unknown)} in {p}")
    entries = data.get("agents", [])
    if not isinstance(entries, list):
        raise AgentSetupError(f'"agents" in {p} must be a list of agent objects')
    specs = [_spec_from_dict(raw, str(p)) for raw in entries]
    require_unique_ids(specs)
    return specs


def require_unique_ids(specs: List[AgentSpec]) -> None:
    seen = set()
    for spec in specs:
        if spec.id in seen:
            raise AgentSetupError(f"duplicate agent id {spec.id!r}")
        seen.add(spec.id)
