"""Match configuration and the versioned JSON config file format.

Config files carry a ``"lmfa_config": 1`` schema key; unknown keys are
hard errors so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Union


class ConfigError(ValueError):
    """Invalid configuration; names the offending field or file."""


@dataclass(frozen=True)
class MatchConfig:
    arena_width: int = 400
    start_offset: int = 80
    match_length_frames: int = 5940  # 99 in-game seconds at 60 fps
    decision_interval_frames: int = 40
    best_of: int = 1
    seed: int = 0

    def validated(self) -> "MatchConfig":
        if self.arena_width <= 0:
            raise ConfigError("arena_width must be > 0")
        if self.arena_width % 2 != 0:
            raise ConfigError("arena_width must be even for a symmetric start")
        if self.match_length_frames <= 0:
            raise ConfigError("match_length_frames must be > 0")
        if not 0 < self.start_offset <= self.arena_width // 2:
            raise ConfigError("start_offset must be in (0, arena_width/2]")
        if self.decision_interval_frames < 1:
            raise ConfigError("decision_interval_frames must be >= 1")
        if self.best_of != 1:
            raise ConfigError("best_of values other than 1 are not supported")
        return self


_CONFIG_FIELDS = {f.name for f in fields(MatchConfig)}


def load_config_file(path: Union[str, Path]) -> MatchConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"config file {p}: {exc}") from None


def config_to_dict(cfg: MatchConfig) -> dict:
    out = {"lmfa_config": 1}
    out.update({f.name: getattr(cfg, f.name) for f in fields(MatchConfig)})
    return out


def config_from_dict(data: dict) -> MatchConfig:
    """A validated config from a config document, as a file or a match log
    carries it; unknown keys and non-integer values are errors."""
    if not isinstance(data, dict) or data.get("lmfa_config") != 1:
        raise ConfigError('a config must be an object carrying "lmfa_config": 1')
    kwargs = {}
    for key, value in data.items():
        if key == "lmfa_config":
            continue
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        if type(value) is not int:  # rejects bool
            raise ConfigError(f"config key {key!r} must be an integer")
        kwargs[key] = value
    return MatchConfig(**kwargs).validated()


def with_seed(cfg: MatchConfig, seed: int) -> MatchConfig:
    return replace(cfg, seed=seed)
