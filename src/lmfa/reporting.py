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

from lmfa.engine.buttons import CHORD_OF, ENCODE, Chord, decode_chord
from lmfa.engine.core import RoundOverError, new_match, step
from lmfa.engine.state import trace_line
from lmfa.tourney.match import BUTTON_NAMES, LogRecord, chain_digest, initial_digest
from lmfa.tourney.roundrobin import AgentStanding, TournamentResult, pair_schedule


class ReportIntegrityError(ValueError):
    pass


# -- matchup matrix ----------------------------------------------------


def matrix_csv(result: TournamentResult) -> str:
    """Square matrix mirrored across the diagonal, row perspective.

    Raises ReportIntegrityError when a round-robin pair has no match.
    """
    ids = result.agents
    cells = {
        (c.row, c.col): c
        for c in result.cells
        if c.row_wins + c.col_wins + c.draws > 0
    }
    missing = [
        (a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if (a, b) not in cells
    ]
    if missing:
        raise ReportIntegrityError(f"missing pairs in tournament result: {sorted(missing)}")
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
            if cell.winner == "draw":
                out.append("D")
            elif cell.winner == side:
                out.append(f"W:{cell.winner_health_fraction:.3f}")
            else:
                out.append("L")
        lines.append(",".join(out))
    return "\n".join(lines) + "\n"


def check_schedule(agents: Sequence[str], logs: Sequence[LogRecord]) -> None:
    """Raise ReportIntegrityError unless the logs are exactly a round-robin
    schedule over ``agents``: each log is the schedule entry for its
    ``(pair_index, repeat_index)`` (pair inside the schedule, sides set by
    the flip rule), no entry comes twice, and every pair has the same
    repeats ``0..k-1``.
    """
    repeats = 1 + max((log.repeat_index for log in logs), default=0)
    schedule = {
        (e["pair_index"], e["repeat_index"]): e for e in pair_schedule(agents, repeats)
    }
    seen = set()
    for log in logs:
        key = (log.pair_index, log.repeat_index)
        where = f"log {log.p1_id} vs {log.p2_id} (pair {key[0]}, repeat {key[1]})"
        entry = schedule.get(key)
        if entry is None:
            raise ReportIntegrityError(f"{where} is outside the round-robin schedule")
        if (log.p1_id, log.p2_id) != (entry["p1"], entry["p2"]):
            raise ReportIntegrityError(f"{where} should be {entry['p1']} vs {entry['p2']}")
        if key in seen:
            raise ReportIntegrityError(f"{where} appears twice")
        seen.add(key)
    missing = [
        f"pair {p} {(schedule[p, r]['row'], schedule[p, r]['col'])} repeat {r}"
        for p, r in sorted(schedule.keys() - seen)
    ]
    if missing:
        raise ReportIntegrityError(f"no log for {'; '.join(missing)}")


# -- win rates ----------------------------------------------------------


def build_win_rates(result: TournamentResult) -> List[AgentStanding]:
    """Standings sorted by descending win rate; ties break by total winner
    health retained, then agent id."""
    return sorted(
        result.standings,
        key=lambda s: (-s.win_rate, -s.winner_health_sum, s.agent),
    )


def win_rates_csv(rows: Sequence[AgentStanding]) -> str:
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


def build_heatmap(result: TournamentResult) -> HeatmapReport:
    """Row-max normalize the per-agent held-frame button counts (a button
    held k frames counts k) that aggregation summed across matches."""
    normalized = {}
    for agent, row in result.button_counts.items():
        peak = max(row.values())
        normalized[agent] = {
            name: (n / peak if peak else 0.0) for name, n in row.items()
        }
    return HeatmapReport(
        agents=result.agents, counts=result.button_counts, normalized=normalized
    )


def heatmap_csv(report: HeatmapReport) -> str:
    lines = ["agent," + ",".join(BUTTON_NAMES.values())]
    for agent in report.agents:
        row = report.counts[agent]
        lines.append(agent + "," + ",".join(str(row[n]) for n in BUTTON_NAMES.values()))
    return "\n".join(lines) + "\n"


def heatmap_norm_csv(report: HeatmapReport) -> str:
    lines = ["agent," + ",".join(BUTTON_NAMES.values())]
    for agent in report.agents:
        row = report.normalized[agent]
        lines.append(
            agent + "," + ",".join(f"{row[n]:.4f}" for n in BUTTON_NAMES.values())
        )
    return "\n".join(lines) + "\n"


def heatmap_grid(report: HeatmapReport) -> str:
    """Plot-ready text grid: one row per agent, one column per button."""
    lines = ["# agent " + " ".join(BUTTON_NAMES.values())]
    for agent in report.agents:
        row = report.normalized[agent]
        lines.append(
            agent + " " + " ".join(f"{row[n]:.4f}" for n in BUTTON_NAMES.values())
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


def verify_replay(log: LogRecord) -> ReplayVerdict:
    """Re-run the engine over the logged inputs and compare digest chains.

    The chain covers both the injected inputs and the serialized state, so
    any single-bit mutation of the input trace diverges at exactly the
    frame following the tampered entry.
    """
    state = new_match(log.config)
    logged = log.state_digests
    digest = initial_digest(log.config, log.seed, state)
    if not logged or logged[0] != digest:
        return ReplayVerdict(
            False, "state_divergence", 0, "initial state digest mismatch"
        )
    for i, row in enumerate(log.input_trace):
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
    if len(logged) != len(log.input_trace) + 1:
        return ReplayVerdict(
            False,
            "state_divergence",
            len(log.input_trace),
            "digest list longer than replayed trace",
        )
    if state.round_over != log.result:
        return ReplayVerdict(
            False, "result_forgery", None, "logged result does not match replay"
        )
    return ReplayVerdict(True, "match")


# -- report emission ---------------------------------------------------


def write_reports(
    result: TournamentResult, logs: Sequence[LogRecord], out_dir: Union[str, Path]
) -> List[Path]:
    """Emit all CSV reports (and the plot grid) into out_dir.

    Raises ReportIntegrityError before creating or writing anything when
    the logs are not a round-robin schedule or the result misses a pair.
    """
    check_schedule(result.agents, logs)
    matrix = matrix_csv(result)
    heat = build_heatmap(result)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in (
        ("matrix.csv", matrix),
        ("win_rates.csv", win_rates_csv(build_win_rates(result))),
        ("heatmap.csv", heatmap_csv(heat)),
        ("heatmap_norm.csv", heatmap_norm_csv(heat)),
        ("heatmap_norm.dat", heatmap_grid(heat)),
    ):
        path = out / name
        path.write_text(text)
        written.append(path)
    return written
