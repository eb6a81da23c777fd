"""Reference six-agent tournament fixture with hand-written outcomes.

Used as a golden input for the aggregation/reporting code: outcomes are
fixed data, not engine runs. Cells marked ``known`` carry externally
pinned winner-health values that reports must reproduce to 3 decimals;
the remaining cells use a placeholder margin.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from lmfa.agents.prompt import PROMPT_VERSION
from lmfa.config import MatchConfig, config_to_dict
from lmfa.tourney.match import BUTTON_NAMES, LOG_SCHEMA

AGENTS: Tuple[str, ...] = (
    "claude",
    "gemini",
    "qwen72",
    "qwen32",
    "internvl",
    "gpt4o",
)

PLACEHOLDER = 0.900  # margin for cells without a pinned value

# (row, col, winner_id, winner_health_fraction, known)
OUTCOMES: List[Tuple[str, str, str, float, bool]] = [
    ("claude", "gemini", "claude", 0.200, True),
    ("claude", "qwen72", "claude", PLACEHOLDER, False),
    ("claude", "qwen32", "claude", PLACEHOLDER, False),
    ("claude", "internvl", "claude", PLACEHOLDER, False),
    ("claude", "gpt4o", "claude", 0.775, True),
    ("gemini", "qwen72", "gemini", PLACEHOLDER, False),
    ("gemini", "qwen32", "gemini", PLACEHOLDER, False),
    ("gemini", "internvl", "gemini", PLACEHOLDER, False),
    ("gemini", "gpt4o", "gemini", PLACEHOLDER, False),
    ("qwen72", "qwen32", "qwen72", 0.025, True),
    ("qwen72", "internvl", "qwen72", 1.000, True),
    ("qwen72", "gpt4o", "qwen72", 0.683, True),
    ("qwen32", "internvl", "qwen32", PLACEHOLDER, False),
    ("qwen32", "gpt4o", "qwen32", PLACEHOLDER, False),
    ("internvl", "gpt4o", "internvl", 0.200, True),
]

KNOWN_CELLS: Dict[Tuple[str, str], float] = {
    (row, col): health for row, col, _, health, known in OUTCOMES if known
}

EXPECTED_WIN_RATE_ORDER = list(AGENTS)
EXPECTED_WIN_RATES = [1.0, 0.8, 0.6, 0.4, 0.2, 0.0]


def fixture_log(
    pair_index: int,
    row: str,
    col: str,
    winner_id: str,
    health_fraction: float,
    frames_elapsed: int = 1200,
) -> dict:
    """A minimal schema-valid log dict carrying a fixed outcome."""
    flip = pair_index % 2 == 1
    p1, p2 = (col, row) if flip else (row, col)
    winner = "P1" if winner_id == p1 else "P2"
    health = round(health_fraction * 1000)
    return {
        "schema": LOG_SCHEMA,
        "config": config_to_dict(MatchConfig()),
        "p1": p1,
        "p2": p2,
        "seed": pair_index,
        "pair_index": pair_index,
        "repeat_index": 0,
        "prompt_version": PROMPT_VERSION,
        "result": {
            "winner": winner,
            "winner_health": health,
            "winner_health_fraction": f"{health / 1000:.3f}",
            "end_reason": "knockout",
            "frames_elapsed": frames_elapsed,
        },
        "decisions": [],
        "input_trace": [],
        "state_digests": [],
        "button_counts": {
            side: dict.fromkeys(BUTTON_NAMES.values(), 0) for side in ("P1", "P2")
        },
    }


def fixture_logs() -> List[dict]:
    return [
        fixture_log(i, row, col, winner, health)
        for i, (row, col, winner, health, _) in enumerate(OUTCOMES)
    ]
