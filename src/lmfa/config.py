"""Match configuration, the versioned JSON config file format, the field
checker that every document lmfa reads goes through, and the one reader and
the one writer of lmfa's files: ``load_document`` reads every config, agents
file and match log, and ``write_document`` writes every log and report.

Config files carry a ``"lmfa_config": 1`` schema key and may carry
``"best_of": 1``, a constant of the format that every log's config holds;
unknown keys are hard errors so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Type, Union


class ConfigError(ValueError):
    """Invalid configuration; names the offending field or file."""


_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def check_fields(doc, kinds: dict, error: Type[Exception], where: str) -> None:
    """Raise ``error`` unless ``doc`` is an object that holds exactly the
    keys of ``kinds``, each with a value of its kind. A kind is a type,
    matched exactly, so ``int`` refuses ``bool``; or a tuple of the allowed
    values, matched by type as well as value, so ``True`` is not ``1``; no
    two of its values may be equal, as ``1`` and ``True`` are; or a dict of
    kinds, for a nested object that is checked the same way.
    ``where`` is the path of ``doc`` in its document, ending in a dot (empty
    for the whole document); messages name each field by its full path."""
    if type(doc) is not dict:
        raise error(f"field '{where[:-1]}' is not an object" if where else "not an object")
    # with as many keys as kinds, a key is unknown only if another is missing
    try:
        if len(doc) != len(kinds):
            raise KeyError
        for key, kind in kinds.items():
            value = doc[key]
            if type(kind) is tuple:
                if value not in kind or type(kind[kind.index(value)]) is not type(value):
                    raise error(f"field '{where}{key}' is not {' or '.join(map(repr, kind))}")
            elif type(kind) is dict:
                check_fields(value, kind, error, f"{where}{key}.")
            elif type(value) is not kind:
                raise error(f"field '{where}{key}' is not {_KIND_NAMES[kind]}")
    except KeyError:
        missing = [where + key for key in kinds if key not in doc]
        if missing:
            raise error(f"lacks field(s): {', '.join(missing)}") from None
        unknown = [where + key for key in doc if key not in kinds]
        raise error(f"unknown field(s): {', '.join(unknown)}") from None


@dataclass(frozen=True)
class MatchConfig:
    arena_width: int = 400
    start_offset: int = 80
    match_length_frames: int = 5940  # 99 in-game seconds at 60 fps
    decision_interval_frames: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
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


# keys whose one value the format fixes: the schema version, and best_of,
# which every log's config holds until the schema drops it
_FIXED_KEYS = {"lmfa_config": (1,), "best_of": (1,)}
# a config document as config_to_dict writes it
CONFIG_KINDS = {**_FIXED_KEYS, **{f.name: int for f in fields(MatchConfig)}}


def load_document(path: Union[str, Path], name: str, parse: Callable, error: Type[Exception]):
    """``parse`` of the JSON file at ``path``. A missing file, one that
    cannot be read, text that is not JSON or nests too deep to parse, and
    ``parse``'s own ``error`` all raise ``error``, naming the file."""
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except FileNotFoundError:
        raise error(f"{name} file not found: {p}") from None
    except OSError as exc:  # a directory, or no permission
        raise error(f"{name} file {p} cannot be read: {exc}") from None
    except ValueError as exc:  # bad JSON, or text that is not UTF-8 (JSON text is)
        raise error(f"{name} file {p} is not valid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{name} file {p} nests too deep to parse") from None
    try:
        return parse(data)
    except error as exc:
        raise error(f"{name} file {p}: {exc}") from None


def write_document(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all, making its directory
    first: the text goes to a hidden ``.NAME.part`` file beside it, which
    then replaces ``path``. The hidden name never matches ``match_*.json``,
    so no reader sees a half-written file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(f".{path.name}.part")
    try:
        part.write_text(text)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def load_config_file(path: Union[str, Path]) -> MatchConfig:
    return load_document(path, "config", config_from_dict, ConfigError)


def config_to_dict(cfg: MatchConfig) -> dict:
    return {**{key: value for key, (value,) in _FIXED_KEYS.items()}, **vars(cfg)}


def config_from_dict(data: dict) -> MatchConfig:
    """The config that a config document describes; a key it leaves out
    keeps its default."""
    present = data if type(data) is dict else {}
    kinds = {k: kind for k, kind in CONFIG_KINDS.items() if k in present or k == "lmfa_config"}
    check_fields(data, kinds, ConfigError, "")
    return MatchConfig(**{k: v for k, v in data.items() if k not in _FIXED_KEYS})


def with_seed(cfg: MatchConfig, seed: int) -> MatchConfig:
    return replace(cfg, seed=seed)
