"""Correctness gate: checks only what lmfa promises to keep deterministic.

Every check returns a list of problems (empty when it holds). A problem is
counted by the caller as a failed operation. The checks drive lmfa through
``lmfa.cli.main`` in-process, the way an operator would, and never use a
CLI error path on purpose.
"""

from __future__ import annotations

import hashlib
import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

# files ``lmfa tournament`` and ``lmfa report`` both write
REPORT_FILES = (
    "tournament.json",
    "matrix.csv",
    "win_rates.csv",
    "heatmap.csv",
    "heatmap_norm.csv",
    "heatmap_norm.dat",
)
ROW_ORDER_FREE = ("heatmap.csv", "heatmap_norm.csv", "heatmap_norm.dat")


def cli(*argv: str) -> Tuple[Optional[int], str, str]:
    """Run ``lmfa <argv>`` in-process; returns (exit code, stdout, stderr).

    An exception escaping the CLI is reported as exit code None with the
    traceback as stderr, so a broken program fails the gate instead of
    crashing the benchmark.
    """
    from lmfa.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception:  # boundary: record and report as a failed operation
            traceback.print_exc(file=err)
            code = None
    return code, out.getvalue(), err.getvalue()


def cli_problem(argv: Sequence[str], code: Optional[int], err: str) -> List[str]:
    if code == 0:
        return []
    tail = err.strip().splitlines()[-1:] or [""]
    return [f"lmfa {' '.join(argv[:1])} exited {code}: {tail[0]}"]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def file_digests(directory: Path, names: Optional[Sequence[str]] = None) -> Dict[str, str]:
    """SHA-256 of each named file (default: every file) in ``directory``."""
    if names is None:
        names = sorted(p.name for p in directory.iterdir() if p.is_file())
    return {
        name: sha256_file(directory / name) if (directory / name).is_file() else "missing"
        for name in names
    }


def diff_digests(expected: Dict[str, str], actual: Dict[str, str], what: str) -> List[str]:
    problems = []
    for name in sorted(set(expected) | set(actual)):
        if expected.get(name) != actual.get(name):
            problems.append(f"{what}: {name} differs")
    return problems


def replay_problem(path: Path) -> List[str]:
    """``lmfa replay`` must print REPLAY=match for the log."""
    code, out, err = cli("replay", str(path))
    if code == 0 and out.strip() == "REPLAY=match":
        return []
    return [f"replay {path.name}: exit {code}, {out.strip() or err.strip()[-200:]}"]


def check_replays(paths: Sequence[Path]) -> List[str]:
    return [p for path in paths for p in replay_problem(path)]


def _rows(text: str) -> Tuple[str, List[str]]:
    header, *rows = text.splitlines(keepends=True)
    return header, sorted(rows)


def compare_reports(reference_dir: Path, out_dir: Path) -> List[str]:
    """Reports in ``out_dir`` must equal those in ``reference_dir``.

    Known defect of lmfa: heatmap rows follow each agent's first appearance
    in the logs, which ``lmfa tournament`` visits in schedule order and
    ``lmfa report`` in file-name order (match_10_* before match_2_*). From
    11 pairs on the row order differs, so the heatmap files are compared as
    a header plus a set of rows, each row byte for byte; every other file
    byte for byte.
    """
    problems = []
    for name in REPORT_FILES:
        want, got = reference_dir / name, out_dir / name
        if not got.is_file():
            problems.append(f"report {name} missing")
            continue
        a, b = want.read_bytes(), got.read_bytes()
        if a == b:
            continue
        if name in ROW_ORDER_FREE and _rows(a.decode()) == _rows(b.decode()):
            continue
        problems.append(f"report {name} differs from {reference_dir.name}")
    return problems


def check_report_regen(log_dir: Path, out_dir: Path) -> List[str]:
    """``lmfa report`` over ``log_dir`` must rewrite the reports found there."""
    argv = ("report", str(log_dir), "--out", str(out_dir))
    code, _, err = cli(*argv)
    return cli_problem(argv, code, err) or compare_reports(log_dir, out_dir)


def load_log(path: Path) -> dict:
    return json.loads(path.read_text())


def check_beats_by_knockout(log_dir: Path, winner_id: str, loser_id: str) -> List[str]:
    """Every match between the two agents ends with ``winner_id`` winning by knockout."""
    problems = []
    found = 0
    for path in sorted(log_dir.glob("match_*.json")):
        log = load_log(path)
        if {log["p1"], log["p2"]} != {winner_id, loser_id}:
            continue
        found += 1
        result = log["result"]
        side = "P1" if log["p1"] == winner_id else "P2"
        if result["winner"] != side or result["end_reason"] != "knockout":
            problems.append(f"{path.name}: {winner_id} did not beat {loser_id} by knockout")
    if not found:
        problems.append(f"no match between {winner_id} and {loser_id}")
    return problems


def check_remote_log(
    log: dict,
    replies: Sequence[str],
    expected_commands: Sequence[str],
    served: Sequence[int],
) -> List[str]:
    """Check one remote-vs-remote match against the mock's reply sequence.

    ``expected_commands[k]`` is the normalized command of ``replies[k]``;
    ``served`` holds the request count each endpoint saw (P1's, then P2's).
    Each player's k-th decision must have received reply k without failure
    and executed its command; no request may have been retried; and because
    both players get the same facing-relative stream, the mirror oracle
    requires a draw.
    """
    problems = []
    per_player = {"P1": [], "P2": []}
    for d in log["decisions"]:
        per_player[d["player"]].append(d)
    for (player, decisions), count in zip(per_player.items(), served):
        if count != len(decisions):
            problems.append(f"{player}: {count} requests served for {len(decisions)} decisions")
        for k, d in enumerate(decisions):
            if k >= len(replies):
                problems.append(f"{player} decision {k}: more decisions than replies")
                break
            if d["failure"] is not None:
                problems.append(f"{player} decision {k}: failure {d['failure']}")
            if d["raw_reply"] != replies[k]:
                problems.append(f"{player} decision {k}: reply is not mock reply {k}")
            if d["command"] != expected_commands[k]:
                problems.append(
                    f"{player} decision {k}: executed {d['command']!r}, "
                    f"mock sent {expected_commands[k]!r}"
                )
    if log["result"]["winner"] != "Draw":
        problems.append(f"mirror oracle: identical streams gave {log['result']['winner']}")
    return problems


def masked_log(log: dict) -> str:
    """Canonical text of a log with the only nondeterministic field masked."""
    masked = dict(log)
    masked["decisions"] = [dict(d, latency_ms=0) for d in log["decisions"]]
    return json.dumps(masked, sort_keys=True)


def trace_digests(log: dict) -> Dict[str, str]:
    """Digests of a log's replay-relevant content, for the golden list."""

    def sha(obj) -> str:
        return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()

    return {
        "input_trace": sha(log["input_trace"]),
        "state_digests": sha(log["state_digests"]),
        "final_state_digest": log["state_digests"][-1],
        "result": sha(log["result"]),
    }
