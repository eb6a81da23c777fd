"""Agent specifications and per-decision records.

An ``AgentSpec`` is checked when it is made, however it is made: a
fixed_script bot's script is read and each of its lines parsed then, so
a bad script fails before any match is played, not at its first decision,
and the spec keeps the lines it checked: a later edit to the file does not
reach it. A remote spec checks ``LMFA_AUTH_HEADER`` the same way.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union
from urllib.parse import urlsplit

from lmfa.actions import Command, CommandError, parse
from lmfa.config import check_fields, load_document


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

# ids name report rows and columns and log files, so no comma, space or
# slash, and short enough that two fit in one file name
AGENT_ID = re.compile(r"[A-Za-z0-9_.-]{1,64}")


@dataclass(frozen=True)
class AgentSpec:
    id: str
    kind: AgentKind
    endpoint: str = ""
    model_name: str = ""
    policy: Optional[BotPolicy] = None
    seed: int = 0
    script_path: str = ""
    timeout_ms: int = 10_000
    max_retries: int = 1
    wire_format: str = "lmfa"
    # a fixed_script bot's command lines, read and checked as the spec is made
    script: Tuple[str, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not AGENT_ID.fullmatch(self.id):
            raise AgentSetupError(f"agent id {self.id!r} must match {AGENT_ID.pattern}")
        if self.timeout_ms < 1:
            raise AgentSetupError(f"agent {self.id}: timeout_ms must be >= 1")
        if self.max_retries < 0:
            raise AgentSetupError(f"agent {self.id}: max_retries must be >= 0")
        if self.kind is AgentKind.REMOTE:
            if not self.endpoint:
                raise AgentSetupError(f"agent {self.id}: remote agent needs endpoint")
            if not _postable(self.endpoint):
                raise AgentSetupError(
                    f"agent {self.id}: endpoint {self.endpoint!r} is not an http or https URL"
                    " with a host"
                )
            if self.wire_format not in WIRE_FORMATS:
                raise AgentSetupError(f"agent {self.id}: unknown wire_format {self.wire_format!r}")
            from lmfa.agents.remote import load_transport, request_headers  # imports this module
            load_transport()  # setup pays the import, not the first decision
            request_headers()  # a malformed LMFA_AUTH_HEADER fails setup, not each decision
        else:
            if self.policy is None:
                raise AgentSetupError(f"agent {self.id}: scripted agent needs policy")
            if self.policy is BotPolicy.FIXED_SCRIPT:
                if not self.script_path:
                    raise AgentSetupError(f"agent {self.id}: fixed_script policy needs script_path")
                object.__setattr__(self, "script", load_script(self.script_path))


def _postable(url: str) -> bool:
    """Whether ``url`` is http or https with a host, and a valid port if any."""
    try:
        parts = urlsplit(url)
        parts.port  # ValueError unless a number in 0-65535
    except ValueError:  # as for an unclosed IPv6 bracket
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def load_script(path: str) -> Tuple[str, ...]:
    """The command lines of a fixed_script file; blank and ``#`` lines skipped."""
    p = Path(path)
    if not p.is_file():
        raise AgentSetupError(f"bot script not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise AgentSetupError(f"bot script {p} is not UTF-8 text: {exc}") from None
    lines = []
    for number, line in enumerate(map(str.strip, text.splitlines()), 1):
        if line and not line.startswith("#"):
            try:
                parse(line)
            except CommandError as exc:
                raise AgentSetupError(f"bot script {p} line {number}: {exc}") from None
            lines.append(line)
    if not lines:
        raise AgentSetupError(f"bot script {p} contains no commands")
    return tuple(lines)


@dataclass(frozen=True)
class Decision:
    """One agent decision; failures carry the fallback command executed."""

    raw_reply: str
    command: Command
    latency_ms: int
    failure: Optional[FailureKind] = None


# an agents-file entry, whose keys are AgentSpec's fields; the table lets
# every key but id and kind be left out, and AgentSpec then requires those
# its kind needs
_ENTRY_KINDS = {
    "id": str,
    "kind": tuple(k.value for k in AgentKind),
    "endpoint": str,
    "model_name": str,
    "policy": tuple(p.value for p in BotPolicy),
    "seed": int,
    "script_path": str,
    "timeout_ms": int,
    "max_retries": int,
    "wire_format": str,
}


def _spec_from_dict(raw: dict, where: str) -> AgentSpec:
    present = raw if type(raw) is dict else {}
    kinds = {k: kind for k, kind in _ENTRY_KINDS.items() if k in present or k in ("id", "kind")}
    check_fields(raw, kinds, AgentSetupError, where)
    kwargs = dict(raw, kind=AgentKind(raw["kind"]))
    if "policy" in raw:
        kwargs["policy"] = BotPolicy(raw["policy"])
    return AgentSpec(**kwargs)


def _specs_from_dict(data: dict) -> List[AgentSpec]:
    check_fields(data, {"lmfa_agents": (1,), "agents": list}, AgentSetupError, "")
    specs = [_spec_from_dict(raw, f"agents[{i}].") for i, raw in enumerate(data["agents"])]
    require_unique_ids(specs)
    return specs


def load_agents_file(path: Union[str, Path]) -> List[AgentSpec]:
    """Read the versioned agents file {"lmfa_agents": 1, "agents": [...]}."""
    return load_document(path, "agents", _specs_from_dict, AgentSetupError)


def require_unique_ids(specs: List[AgentSpec]) -> None:
    seen = set()
    for spec in specs:
        if spec.id in seen:
            raise AgentSetupError(f"duplicate agent id {spec.id!r}")
        seen.add(spec.id)
