"""Tournament artifacts: matchup matrix, win rates, button heatmap, replay.

The tournament document that aggregation returns (``tournament.json``)
is the one tournament record: every other report is derived from it
alone. All reports are deterministic functions of their inputs;
regenerating from archived logs is byte-identical. File formats:

  tournament.json   the document: agents, matrix cells, standings, button counts
  matrix.csv        square matrix, row perspective: ``W:0.758`` / ``L`` / ``D``
  win_rates.csv     agent,win_rate,wins,draws,losses
  heatmap.csv       raw button counts per agent
  heatmap_norm.csv  row-max normalized frequencies
  heatmap_norm.dat  whitespace grid, gnuplot-ready
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from lmfa.config import write_document
from lmfa.engine.buttons import decode_chord
from lmfa.engine.core import RoundOverError, new_match, step
from lmfa.engine.state import trace_line
from lmfa.tourney.match import BUTTON_NAMES, MatchLog, chain_digest, count_buttons, initial_digest


# -- matchup matrix ----------------------------------------------------


def matrix_csv(doc: dict) -> str:
    """Square matrix mirrored across the diagonal, row perspective."""
    ids = doc["agents"]
    cells = {(c["row"], c["col"]): c for c in doc["matrix"]}
    lines = ["," + ",".join(ids)]
    for row in ids:
        out = [row]
        for col in ids:
            if row == col:
                out.append("-")
                continue
            cell, side = cells.get((row, col)), "row"
            if cell is None:
                cell, side = cells[(col, row)], "col"
            if cell["winner"] == "draw":
                out.append("D")
            elif cell["winner"] == side:
                out.append(f"W:{cell['winner_health_fraction']}")
            else:
                out.append("L")
        lines.append(",".join(out))
    return "\n".join(lines) + "\n"


# -- win rates ----------------------------------------------------------


def build_win_rates(doc: dict) -> List[dict]:
    """Standings sorted by descending win rate; ties break by total winner
    health retained, then agent id."""
    return sorted(
        doc["standings"],
        key=lambda s: (-s["win_rate"], -s["winner_health_sum"], s["agent"]),
    )


def win_rates_csv(rows: Sequence[dict]) -> str:
    lines = ["agent,win_rate,wins,draws,losses"]
    for r in rows:
        lines.append(f"{r['agent']},{r['win_rate']},{r['wins']},{r['draws']},{r['losses']}")
    return "\n".join(lines) + "\n"


# -- button heatmap -------------------------------------------------------


def build_heatmap(doc: dict) -> Dict[str, Dict[str, float]]:
    """Row-max normalize the per-agent held-frame button counts (a button
    held k frames counts k) that aggregation summed across matches."""
    normalized = {}
    for agent, row in doc["button_counts"].items():
        peak = max(row.values())
        normalized[agent] = {
            name: (n / peak if peak else 0.0) for name, n in row.items()
        }
    return normalized


def heatmap_table(
    agents: Sequence[str], rows: Dict[str, Dict[str, float]], head: str, sep: str, fmt: str
) -> str:
    """One row per agent, one column per button: the raw counts, or the
    normalized rows, as CSV or as a plot-ready text grid."""
    names = BUTTON_NAMES.values()
    lines = [sep.join([head, *names])]
    for agent in agents:
        lines.append(sep.join([agent, *(format(rows[agent][n], fmt) for n in names)]))
    return "\n".join(lines) + "\n"


# -- replay verification ---------------------------------------------------


@dataclass(frozen=True)
class ReplayVerdict:
    kind: str  # "match" | "state_divergence" | "result_forgery" | "decision_mismatch"
    first_divergent_frame: Optional[int] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.kind == "match"


def verify_replay(log: MatchLog) -> ReplayVerdict:
    """Re-run the engine over the logged inputs and compare digest chains,
    then the result and the held-frame button counts, then the decision
    ticks: one P1 and one P2 entry per tick, each with that tick's
    ``decision_index`` and ``frame``.

    The chain covers both the injected inputs and the serialized state, so
    any single-bit mutation of the input trace diverges at exactly the
    frame following the tampered entry.
    """
    state = new_match(log.config)
    logged = log.state_digests
    digest = initial_digest(log.config, state)
    if not logged or logged[0] != digest:
        return ReplayVerdict("state_divergence", 0, "initial state digest mismatch")
    for i, row in enumerate(log.input_trace):
        # A row is a list; a two-character string or a two-key object would
        # unpack as well, so it counts as no pair.
        pair = row if isinstance(row, list) else ()
        try:
            enc1, enc2 = pair
            m1, m2 = decode_chord(enc1), decode_chord(enc2)
        except (ValueError, TypeError):  # not a pair of strings, or an unknown code
            return ReplayVerdict("state_divergence", i + 1, f"invalid chord encoding at frame {i}")
        try:
            state = step(state, m1, m2)
        except RoundOverError:  # trace longer than the match it claims to be
            return ReplayVerdict(
                "state_divergence", i + 1, f"trace continues past round end at frame {i}"
            )
        digest = chain_digest(digest, enc1, enc2, trace_line(state))
        if i + 1 >= len(logged) or logged[i + 1] != digest:
            return ReplayVerdict(
                "state_divergence", i + 1, f"digest chain diverges at frame {i + 1}"
            )
    if len(logged) != len(log.input_trace) + 1:
        return ReplayVerdict(
            "state_divergence", len(log.input_trace), "digest list longer than replayed trace"
        )
    if state.round_over != log.result:
        return ReplayVerdict("result_forgery", None, "logged result does not match replay")
    if count_buttons(log.input_trace) != log.button_counts:
        return ReplayVerdict("result_forgery", None, "logged button_counts do not match replay")
    interval = log.config.decision_interval_frames
    ticks = -(-len(log.input_trace) // interval)
    expected = [(side, t, t * interval) for t in range(ticks) for side in ("P1", "P2")]
    entries = [(d["player"], d["decision_index"], d["frame"]) for d in log.decisions]
    if entries != expected:
        first = next(
            (i for i, (got, want) in enumerate(zip(entries, expected)) if got != want),
            min(len(entries), len(expected)),
        )
        tick = first // 2
        return ReplayVerdict(
            "decision_mismatch",
            tick * interval,
            f"decision entries do not match tick {tick} at frame {tick * interval}",
        )
    return ReplayVerdict("match")


# -- report emission ---------------------------------------------------


def write_reports(doc: dict, out_dir: Union[str, Path]) -> None:
    """Emit ``tournament.json``, the CSV reports and the plot grid into
    out_dir, each through ``write_document``; ``lmfa tournament`` and
    ``lmfa report`` both write through here."""
    agents, counts = doc["agents"], doc["button_counts"]
    normalized = build_heatmap(doc)
    for name, text in (
        ("tournament.json", json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"),
        ("matrix.csv", matrix_csv(doc)),
        ("win_rates.csv", win_rates_csv(build_win_rates(doc))),
        ("heatmap.csv", heatmap_table(agents, counts, "agent", ",", "")),
        ("heatmap_norm.csv", heatmap_table(agents, normalized, "agent", ",", ".4f")),
        ("heatmap_norm.dat", heatmap_table(agents, normalized, "# agent", " ", ".4f")),
    ):
        write_document(Path(out_dir, name), text)
