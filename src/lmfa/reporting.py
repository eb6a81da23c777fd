"""Tournament artifacts: matchup matrix, win rates, button heatmap, replay.

All reports are deterministic functions of their inputs; regenerating
from archived logs is byte-identical. File formats:

  matrix.csv        square matrix, row perspective: ``W:0.758`` / ``L`` / ``D``
  win_rates.csv     agent,win_rate,wins,draws,losses
  heatmap.csv       raw button counts per agent
  heatmap_norm.csv  row-max normalized frequencies
  heatmap_norm.dat  whitespace grid, gnuplot-ready
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from lmfa.config import config_from_dict
from lmfa.engine import (
    Chord,
    RoundOverError,
    decode_chord,
    new_match,
    step,
    trace_line,
)
from lmfa.engine.buttons import CHORD_OF, ENCODE
from lmfa.tourney.match import (
    BUTTON_NAMES,
    BUTTON_ORDER,
    chain_digest,
    initial_digest,
    log_from_dict,
)
from lmfa.tourney.roundrobin import TournamentResult

BUTTON_COLUMNS = tuple(BUTTON_NAMES[b] for b in BUTTON_ORDER)


class ReportIntegrityError(ValueError):
    pass


# -- matchup matrix ----------------------------------------------------


@dataclass(frozen=True)
class MatrixCell:
    outcome: str  # "row_win" | "col_win" | "draw"
    winner_health_fraction: Optional[float]


@dataclass(frozen=True)
class MatrixReport:
    agents: Tuple[str, ...]
    cells: Dict[Tuple[str, str], MatrixCell]  # keyed (row, col), row before col


def build_matrix(result: TournamentResult) -> MatrixReport:
    """Upper-triangle matchup cells in agent order; health copied verbatim."""
    ids = result.agents
    expected = {(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]}
    got = {
        (c.row, c.col)
        for c in result.cells
        if c.row_wins + c.col_wins + c.draws > 0
    }
    missing = expected - got
    if missing:
        raise ReportIntegrityError(f"missing pairs in tournament result: {sorted(missing)}")
    cells = {}
    for c in result.cells:
        outcome = {"row": "row_win", "col": "col_win", "draw": "draw"}[c.winner]
        cells[(c.row, c.col)] = MatrixCell(outcome, c.winner_health_fraction)
    return MatrixReport(agents=ids, cells=cells)


def matrix_csv(report: MatrixReport) -> str:
    """Square rendering mirrored across the diagonal, row perspective."""
    lines = ["," + ",".join(report.agents)]
    for row in report.agents:
        out = [row]
        for col in report.agents:
            if row == col:
                out.append("-")
                continue
            cell = report.cells.get((row, col))
            if cell is not None:
                won = cell.outcome == "row_win"
            else:
                cell = report.cells[(col, row)]
                won = cell.outcome == "col_win"
            if cell.outcome == "draw":
                out.append("D")
            elif won:
                out.append(f"W:{cell.winner_health_fraction:.3f}")
            else:
                out.append("L")
        lines.append(",".join(out))
    return "\n".join(lines) + "\n"


# -- win rates ----------------------------------------------------------


@dataclass(frozen=True)
class WinRateRow:
    agent: str
    win_rate: float
    wins: int
    draws: int
    losses: int
    winner_health_sum: int


def build_win_rates(result: TournamentResult) -> List[WinRateRow]:
    """Rows sorted by descending win rate; ties break by total winner
    health retained, then agent id."""
    rows = [
        WinRateRow(
            agent=s.agent,
            win_rate=s.win_rate,
            wins=s.wins,
            draws=s.draws,
            losses=s.losses,
            winner_health_sum=s.winner_health_sum,
        )
        for s in result.standings
    ]
    rows.sort(key=lambda r: (-r.win_rate, -r.winner_health_sum, r.agent))
    return rows


def win_rates_csv(rows: Sequence[WinRateRow]) -> str:
    lines = ["agent,win_rate,wins,draws,losses"]
    for r in rows:
        lines.append(f"{r.agent},{r.win_rate},{r.wins},{r.draws},{r.losses}")
    return "\n".join(lines) + "\n"


# -- button heatmap -------------------------------------------------------


@dataclass(frozen=True)
class HeatmapReport:
    agents: Tuple[str, ...]
    counts: Dict[str, Dict[str, int]]
    normalized: Dict[str, Dict[str, float]]


def _recount_from_trace(log: dict) -> Dict[str, Dict[str, int]]:
    counts = {
        "P1": {name: 0 for name in BUTTON_COLUMNS},
        "P2": {name: 0 for name in BUTTON_COLUMNS},
    }
    for enc1, enc2 in log["input_trace"]:
        for side, enc in (("P1", enc1), ("P2", enc2)):
            for b in decode_chord(enc):
                counts[side][BUTTON_NAMES[b]] += 1
    return counts


def _edge_counts_from_trace(log: dict) -> Dict[str, Dict[str, int]]:
    counts = {
        "P1": {name: 0 for name in BUTTON_COLUMNS},
        "P2": {name: 0 for name in BUTTON_COLUMNS},
    }
    prev = {"P1": frozenset(), "P2": frozenset()}
    for enc1, enc2 in log["input_trace"]:
        for side, enc in (("P1", enc1), ("P2", enc2)):
            held = decode_chord(enc)
            for b in held - prev[side]:
                counts[side][BUTTON_NAMES[b]] += 1
            prev[side] = held
    return counts


def build_heatmap(logs: Sequence[dict], counting: str = "held_frames") -> HeatmapReport:
    """Sum button usage per agent across matches, then row-max normalize.

    ``counting`` selects held-frame counting (default: a button held k
    frames counts k) or press-edge counting.
    """
    if counting not in ("held_frames", "press_edges"):
        raise ValueError(f"unknown counting mode {counting!r}")
    agents: List[str] = []
    totals: Dict[str, Dict[str, int]] = {}
    for log in logs:
        if counting == "held_frames":
            per_side = log["button_counts"]
        else:
            per_side = _edge_counts_from_trace(log)
        for side_key, agent in (("P1", log["p1"]), ("P2", log["p2"])):
            if agent not in totals:
                agents.append(agent)
                totals[agent] = {name: 0 for name in BUTTON_COLUMNS}
            for name in BUTTON_COLUMNS:
                totals[agent][name] += per_side[side_key].get(name, 0)
    normalized = {}
    for agent, row in totals.items():
        peak = max(row.values())
        normalized[agent] = {
            name: (row[name] / peak if peak else 0.0) for name in BUTTON_COLUMNS
        }
    return HeatmapReport(agents=tuple(agents), counts=totals, normalized=normalized)


def heatmap_csv(report: HeatmapReport) -> str:
    lines = ["agent," + ",".join(BUTTON_COLUMNS)]
    for agent in report.agents:
        row = report.counts[agent]
        lines.append(agent + "," + ",".join(str(row[n]) for n in BUTTON_COLUMNS))
    return "\n".join(lines) + "\n"


def heatmap_norm_csv(report: HeatmapReport) -> str:
    lines = ["agent," + ",".join(BUTTON_COLUMNS)]
    for agent in report.agents:
        row = report.normalized[agent]
        lines.append(
            agent + "," + ",".join(f"{row[n]:.4f}" for n in BUTTON_COLUMNS)
        )
    return "\n".join(lines) + "\n"


def heatmap_grid(report: HeatmapReport) -> str:
    """Plot-ready text grid: one row per agent, one column per button."""
    lines = ["# agent " + " ".join(BUTTON_COLUMNS)]
    for agent in report.agents:
        row = report.normalized[agent]
        lines.append(
            agent + " " + " ".join(f"{row[n]:.4f}" for n in BUTTON_COLUMNS)
        )
    return "\n".join(lines) + "\n"


# -- replay verification ---------------------------------------------------


@dataclass(frozen=True)
class ReplayVerdict:
    ok: bool
    kind: str  # "match" | "state_divergence" | "result_forgery"
    first_divergent_frame: Optional[int] = None
    detail: str = ""


_CHORD_BY_CODE: Dict[str, Chord] = {ENCODE[m]: CHORD_OF[m] for m in range(256)}


def _decode(text: str) -> Chord:
    """Canonical codes by table; any other spelling decode_chord accepts."""
    c = _CHORD_BY_CODE.get(text)
    return decode_chord(text) if c is None else c


def verify_replay(log_data: dict) -> ReplayVerdict:
    """Re-run the engine over the logged inputs and compare digest chains.

    The chain covers both the injected inputs and the serialized state, so
    any single-bit mutation of the input trace diverges at exactly the
    frame following the tampered entry.
    """
    log = log_from_dict(log_data)
    config = config_from_dict(log["config"])
    seed = log["seed"]
    state = new_match(config, seed)

    logged = log["state_digests"]
    digest = initial_digest(config, seed, state)
    if not logged or logged[0] != digest:
        return ReplayVerdict(
            False, "state_divergence", 0, "initial state digest mismatch"
        )
    for i, row in enumerate(log["input_trace"]):
        try:
            enc1, enc2 = row
            c1, c2 = _decode(enc1), _decode(enc2)
        except (ValueError, TypeError):  # not a pair of strings, or an unknown code
            return ReplayVerdict(
                False, "state_divergence", i + 1, f"invalid chord encoding at frame {i}"
            )
        try:
            state = step(state, c1, c2)
        except RoundOverError:  # trace longer than the match it claims to be
            return ReplayVerdict(
                False, "state_divergence", i + 1, f"trace continues past round end at frame {i}"
            )
        digest = chain_digest(digest, enc1, enc2, trace_line(state))
        if i + 1 >= len(logged) or logged[i + 1] != digest:
            return ReplayVerdict(
                False,
                "state_divergence",
                i + 1,
                f"digest chain diverges at frame {i + 1}",
            )
    if len(logged) != len(log["input_trace"]) + 1:
        return ReplayVerdict(
            False,
            "state_divergence",
            len(log["input_trace"]),
            "digest list longer than replayed trace",
        )

    recomputed = state.round_over
    declared = log["result"]
    if (
        recomputed is None
        or declared["winner"] != recomputed.winner.value
        or declared["end_reason"] != recomputed.end_reason.value
        or declared["winner_health"] != recomputed.winner_health
        or declared["frames_elapsed"] != recomputed.frames_elapsed
    ):
        return ReplayVerdict(
            False, "result_forgery", None, "logged result does not match replay"
        )
    return ReplayVerdict(True, "match")


# -- report emission ---------------------------------------------------


def write_reports(
    result: TournamentResult, logs: Sequence[dict], out_dir: Union[str, Path]
) -> List[Path]:
    """Emit all CSV reports (and the plot grid) into out_dir.

    Raises ReportIntegrityError before creating or writing anything when
    the result misses a round-robin pair.
    """
    matrix = build_matrix(result)
    rates = build_win_rates(result)
    heat = build_heatmap(logs)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in (
        ("matrix.csv", matrix_csv(matrix)),
        ("win_rates.csv", win_rates_csv(rates)),
        ("heatmap.csv", heatmap_csv(heat)),
        ("heatmap_norm.csv", heatmap_norm_csv(heat)),
        ("heatmap_norm.dat", heatmap_grid(heat)),
    ):
        path = out / name
        path.write_text(text)
        written.append(path)
    return written
