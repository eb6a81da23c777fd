"""Command-line interface: exit codes, outputs, determinism."""

from __future__ import annotations

import json
from pathlib import Path

from outcome_fixture import fixture_logs
from lmfa.cli import EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_OK, EXIT_SETUP, main
from lmfa.engine import Button, decode_chord, encode_chord


def write_config(path: Path, **overrides) -> Path:
    doc = {"lmfa_config": 1, "match_length_frames": 1200, "seed": 42}
    doc.update(overrides)
    p = path / "config.json"
    p.write_text(json.dumps(doc))
    return p


def write_agents(path: Path, specs) -> Path:
    p = path / "agents.json"
    p.write_text(json.dumps({"lmfa_agents": 1, "agents": specs}))
    return p


BOTS_4 = [
    {"id": "rush", "kind": "scripted", "policy": "rushdown"},
    {"id": "zone", "kind": "scripted", "policy": "zoner"},
    {"id": "rand", "kind": "scripted", "policy": "random", "seed": 7},
    {"id": "idle", "kind": "scripted", "policy": "idle"},
]


def write_logs(logs_dir: Path, logs) -> Path:
    logs_dir.mkdir()
    for log in logs:
        name = f"match_{log['pair_index']}_0_{log['p1']}_vs_{log['p2']}.json"
        (logs_dir / name).write_text(json.dumps(log))
    return logs_dir


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestRunMatch:
    def test_outcome_line_and_log(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        agents = write_agents(tmp_path, BOTS_4[:1] + BOTS_4[3:])
        out = tmp_path / "out"
        code = main(["run-match", "--config", str(cfg), "--agents", str(agents), "--out", str(out)])
        assert code == EXIT_OK
        assert "WINNER=rush HEALTH=1.000 REASON=knockout" in capsys.readouterr().out
        assert (out / "match_0_0_rush_vs_idle.json").is_file()

    def test_missing_config_exit_2(self, tmp_path, capsys):
        agents = write_agents(tmp_path, BOTS_4[:2])
        code = main(
            ["run-match", "--config", str(tmp_path / "nope.json"), "--agents", str(agents), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG
        assert "nope.json" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, typo_key=3)
        agents = write_agents(tmp_path, BOTS_4[:2])
        code = main(["run-match", "--config", str(cfg), "--agents", str(agents), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_bad_agents_exit_3(self, tmp_path):
        cfg = write_config(tmp_path)
        agents = write_agents(tmp_path, [{"id": "only-one", "kind": "scripted", "policy": "idle"}])
        code = main(["run-match", "--config", str(cfg), "--agents", str(agents), "--out", str(tmp_path / "o")])
        assert code == EXIT_SETUP

    def test_same_seed_identical_logs(self, tmp_path):
        cfg = write_config(tmp_path)
        agents = write_agents(tmp_path, BOTS_4[:1] + BOTS_4[3:])
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert main(
                ["run-match", "--config", str(cfg), "--agents", str(agents), "--out", str(out), "--seed", "42"]
            ) == EXIT_OK
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_refuses_nonempty_out_without_force(self, tmp_path):
        cfg = write_config(tmp_path)
        agents = write_agents(tmp_path, BOTS_4[:1] + BOTS_4[3:])
        out = tmp_path / "out"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        code = main(["run-match", "--config", str(cfg), "--agents", str(agents), "--out", str(out)])
        assert code == EXIT_CONFIG
        code = main(["run-match", "--config", str(cfg), "--agents", str(agents), "--out", str(out), "--force"])
        assert code == EXIT_OK


class TestTournament:
    def test_four_bots_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        agents = write_agents(tmp_path, BOTS_4)
        out = tmp_path / "t"
        code = main(["tournament", "--config", str(cfg), "--agents", str(agents), "--out", str(out)])
        assert code == EXIT_OK
        logs = sorted(out.glob("match_*.json"))
        assert len(logs) == 6
        for name in ("tournament.json", "matrix.csv", "win_rates.csv", "heatmap.csv", "heatmap_norm.csv"):
            assert (out / name).is_file()

    def test_matches_per_pair_alternates_sides(self, tmp_path):
        cfg = write_config(tmp_path, match_length_frames=600)
        agents = write_agents(tmp_path, BOTS_4[:2])
        out = tmp_path / "t"
        code = main(
            ["tournament", "--config", str(cfg), "--agents", str(agents), "--out", str(out), "--matches-per-pair", "3"]
        )
        assert code == EXIT_OK
        logs = sorted(out.glob("match_*.json"))
        assert len(logs) == 3
        sides = [json.loads(p.read_text())["p1"] for p in logs]
        assert sides == ["rush", "zone", "rush"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        agents = write_agents(tmp_path, BOTS_4)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        for out in (out1, out2):
            assert main(
                ["tournament", "--config", str(cfg), "--agents", str(agents), "--out", str(out), "--seed", "42"]
            ) == EXIT_OK
        assert tree_bytes(out1) == tree_bytes(out2)


class TestReplay:
    def run_one(self, tmp_path) -> Path:
        cfg = write_config(tmp_path)
        agents = write_agents(tmp_path, BOTS_4[:1] + BOTS_4[3:])
        out = tmp_path / "m"
        assert main(["run-match", "--config", str(cfg), "--agents", str(agents), "--out", str(out)]) == EXIT_OK
        return next(out.glob("match_*.json"))

    def test_untampered_exit_0(self, tmp_path, capsys):
        log = self.run_one(tmp_path)
        assert main(["replay", str(log)]) == EXIT_OK
        assert "REPLAY=match" in capsys.readouterr().out

    def test_tampered_exit_4_with_frame(self, tmp_path, capsys):
        path = self.run_one(tmp_path)
        data = json.loads(path.read_text())
        held = set(decode_chord(data["input_trace"][25][0]))
        held.symmetric_difference_update({Button.B})
        data["input_trace"][25][0] = encode_chord(frozenset(held))
        path.write_text(json.dumps(data))
        assert main(["replay", str(path)]) == EXIT_DIVERGENCE
        assert "FRAME=26" in capsys.readouterr().out

    def test_missing_log_exit_2(self, tmp_path):
        assert main(["replay", str(tmp_path / "missing.json")]) == EXIT_CONFIG

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["replay", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: unreadable match log")
        assert "broken.json" in err

    def test_wrong_schema_exit_2(self, tmp_path, capsys):
        log = fixture_logs()[0]
        log["schema"] = "lmfa-log/0"
        path = tmp_path / "future.json"
        path.write_text(json.dumps(log))
        assert main(["replay", str(path)]) == EXIT_CONFIG
        assert "unsupported log schema" in capsys.readouterr().err

    def test_missing_field_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"schema": "lmfa-log/1"}))
        assert main(["replay", str(path)]) == EXIT_CONFIG
        assert "lacks field(s): config" in capsys.readouterr().err

    def test_directory_exit_2(self, tmp_path, capsys):
        path = tmp_path / "dir.json"
        path.mkdir()
        assert main(["replay", str(path)]) == EXIT_CONFIG
        assert "dir.json" in capsys.readouterr().err


class TestReport:
    def test_fixture_logs_produce_expected_rates(self, tmp_path, capsys):
        logs_dir = tmp_path / "logs"
        logs_dir.mkdir()
        for log in fixture_logs():
            name = f"match_{log['pair_index']}_0_{log['p1']}_vs_{log['p2']}.json"
            (logs_dir / name).write_text(json.dumps(log))
        assert main(["report", str(logs_dir)]) == EXIT_OK
        column = [
            line.split(",")[1]
            for line in (logs_dir / "win_rates.csv").read_text().strip().splitlines()[1:]
        ]
        assert column == ["1.0", "0.8", "0.6", "0.4", "0.2", "0.0"]

    def test_empty_dir_exit_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", str(empty)]) == EXIT_CONFIG

    def test_regeneration_idempotent_and_matches_tournament(self, tmp_path):
        cfg = write_config(tmp_path)
        agents = write_agents(tmp_path, BOTS_4)
        out = tmp_path / "t"
        assert main(["tournament", "--config", str(cfg), "--agents", str(agents), "--out", str(out)]) == EXIT_OK
        originals = tree_bytes(out)
        assert main(["report", str(out)]) == EXIT_OK
        assert tree_bytes(out) == originals
        assert main(["report", str(out)]) == EXIT_OK
        assert tree_bytes(out) == originals

    def test_missing_pair_exit_2_names_pair(self, tmp_path, capsys):
        logs_dir = write_logs(tmp_path / "logs", fixture_logs()[:-1])
        assert main(["report", str(logs_dir)]) == EXIT_CONFIG
        assert "('internvl', 'gpt4o')" in capsys.readouterr().err

    def test_refused_report_leaves_out_dir_unchanged(self, tmp_path):
        logs_dir = write_logs(tmp_path / "logs", fixture_logs())
        assert main(["report", str(logs_dir)]) == EXIT_OK
        removed = next(logs_dir.glob("match_14_*.json"))
        removed.unlink()
        before = tree_bytes(logs_dir)
        assert "tournament.json" in before and "matrix.csv" in before
        assert main(["report", str(logs_dir)]) == EXIT_CONFIG
        assert tree_bytes(logs_dir) == before

    def test_refused_report_creates_no_out_dir(self, tmp_path):
        logs_dir = write_logs(tmp_path / "logs", fixture_logs()[:-1])
        out = tmp_path / "reports"
        assert main(["report", str(logs_dir), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_wrong_schema_log_exit_2(self, tmp_path, capsys):
        logs = fixture_logs()
        logs[3]["schema"] = "lmfa-log/0"
        logs_dir = write_logs(tmp_path / "logs", logs)
        assert main(["report", str(logs_dir)]) == EXIT_CONFIG
        assert "unsupported log schema" in capsys.readouterr().err
        assert sorted(p.name for p in logs_dir.iterdir()) == sorted(
            p.name for p in logs_dir.glob("match_*.json")
        )

    def test_missing_field_exit_2(self, tmp_path, capsys):
        logs = fixture_logs()
        del logs[4]["pair_index"]
        logs_dir = tmp_path / "logs"
        logs_dir.mkdir()
        for i, log in enumerate(logs):
            (logs_dir / f"match_{i}_0_{log['p1']}_vs_{log['p2']}.json").write_text(json.dumps(log))
        assert main(["report", str(logs_dir)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "match_4_0_" in err and "pair_index" in err

    def test_directory_named_like_log_exit_2(self, tmp_path, capsys):
        logs_dir = write_logs(tmp_path / "logs", fixture_logs())
        (logs_dir / "match_99_0_a_vs_b.json").mkdir()
        assert main(["report", str(logs_dir), "--out", str(tmp_path / "r")]) == EXIT_CONFIG
        assert "match_99_0_a_vs_b.json" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_report_reproduces_six_agent_tournament_bytes(self, tmp_path):
        # 15 pairs: file-name order (match_10_* before match_2_*) differs
        # from schedule order, which is what the heatmap rows follow.
        cfg = write_config(tmp_path, match_length_frames=240)
        agents = write_agents(
            tmp_path,
            BOTS_4
            + [
                {"id": "rand2", "kind": "scripted", "policy": "random", "seed": 8},
                {"id": "rand3", "kind": "scripted", "policy": "random", "seed": 9},
            ],
        )
        out = tmp_path / "t"
        assert main(["tournament", "--config", str(cfg), "--agents", str(agents), "--out", str(out)]) == EXIT_OK
        assert len(list(out.glob("match_*.json"))) == 15
        reports = tmp_path / "r"
        assert main(["report", str(out), "--out", str(reports)]) == EXIT_OK
        names = (
            "tournament.json",
            "matrix.csv",
            "win_rates.csv",
            "heatmap.csv",
            "heatmap_norm.csv",
            "heatmap_norm.dat",
        )
        assert sorted(p.name for p in reports.iterdir()) == sorted(names)
        for name in names:
            assert (reports / name).read_bytes() == (out / name).read_bytes(), name
