"""Command-line interface: exit codes, outputs, determinism."""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import pytest

from outcome_fixture import fixture_logs
from lmfa import cli as cli_module
from lmfa.cli import EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_OK, EXIT_SETUP, main
from lmfa.engine.buttons import BIT, Button, decode_chord, encode_chord
from lmfa.tourney import roundrobin as roundrobin_module
from lmfa.tourney.match import log_filename, read_log
from lmfa.tourney.roundrobin import pair_schedule, result_from_logs


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


def rush_and_idle(**rush_overrides) -> list:
    return [{**BOTS_4[0], **rush_overrides}, BOTS_4[3]]


DELETED = object()
# a JSON document nested deeper than any parser's recursion limit
DEEP = "[" * 200_000 + "]" * 200_000


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


def no_match(*args, **kwargs):
    raise AssertionError("a match ran")


class TestRunMatch:
    @pytest.mark.parametrize(
        "specs, line",
        [
            ([BOTS_4[0], BOTS_4[3]], "WINNER=rush HEALTH=1.000 REASON=knockout"),
            ([BOTS_4[3], BOTS_4[0]], "WINNER=rush HEALTH=1.000 REASON=knockout"),
            ([BOTS_4[3], {**BOTS_4[3], "id": "idle2"}], "WINNER=DRAW HEALTH=NA REASON=timeout"),
        ],
        ids=["p1_wins", "p2_wins", "draw"],
    )
    def test_outcome_line_and_log(self, tmp_path, capsys, specs, line):
        cfg = write_config(tmp_path)
        agents = write_agents(tmp_path, specs)
        out = tmp_path / "out"
        code = main(["run-match", "--config", str(cfg), "--agents", str(agents), "--out", str(out)])
        assert code == EXIT_OK
        assert line in capsys.readouterr().out
        assert (out / f"match_0_0_{specs[0]['id']}_vs_{specs[1]['id']}.json").is_file()

    def test_zero_decision_interval_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "run_match", no_match)
        cfg = write_config(tmp_path, decision_interval_frames=0)
        agents = write_agents(tmp_path, BOTS_4[:2])
        out = tmp_path / "o"
        argv = ["run-match", "--config", str(cfg), "--agents", str(agents), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: config file {cfg}: decision_interval_frames must be >= 1\n"
        )
        assert not out.exists()

    def test_missing_config_exit_2(self, tmp_path, capsys):
        agents = write_agents(tmp_path, BOTS_4[:2])
        code = main(
            ["run-match", "--config", str(tmp_path / "nope.json"), "--agents", str(agents), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize("which, code", [("config", EXIT_CONFIG), ("agents", EXIT_SETUP)])
    def test_file_not_utf8_exit_without_traceback(self, tmp_path, capsys, which, code):
        paths = {"config": write_config(tmp_path), "agents": write_agents(tmp_path, BOTS_4[:2])}
        paths[which].write_bytes(b"\xff\xfe{}")
        argv = ["run-match", "--config", str(paths["config"]), "--agents", str(paths["agents"])]
        assert main(argv + ["--out", str(tmp_path / "o")]) == code
        assert f"{which} file {paths[which]} is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("which, code", [("config", EXIT_CONFIG), ("agents", EXIT_SETUP)])
    def test_document_nested_too_deep_exits_with_one_line(self, tmp_path, capsys, which, code):
        paths = {"config": write_config(tmp_path), "agents": write_agents(tmp_path, BOTS_4[:2])}
        paths[which].write_text(DEEP)
        out = tmp_path / "o"
        argv = ["run-match", "--config", str(paths["config"]), "--agents", str(paths["agents"])]
        assert main(argv + ["--out", str(out)]) == code
        prefix = "config error" if which == "config" else "setup error"
        err = capsys.readouterr().err
        assert err == f"{prefix}: {which} file {paths[which]} nests too deep to parse\n"
        assert not out.exists()

    @pytest.mark.parametrize("which, code", [("config", EXIT_CONFIG), ("agents", EXIT_SETUP)])
    def test_document_that_cannot_be_read_exits_naming_it(self, tmp_path, capsys, which, code):
        paths = {"config": write_config(tmp_path), "agents": write_agents(tmp_path, BOTS_4[:2])}
        paths[which].unlink()
        paths[which].mkdir()
        argv = ["run-match", "--config", str(paths["config"]), "--agents", str(paths["agents"])]
        assert main(argv + ["--out", str(tmp_path / "o")]) == code
        assert f"{which} file {paths[which]} cannot be read" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "agents_value, named",
        [
            (rush_and_idle(timeout_ms="x"), "timeout_ms"),
            (rush_and_idle(max_retries="2"), "max_retries"),
            (rush_and_idle(seed="s"), "seed"),
            (rush_and_idle(seed=True), "seed"),
            (rush_and_idle(id=5), "'agents[0].id' is not a string"),
            (rush_and_idle(kind="remote", endpoint=7), "'agents[0].endpoint' is not a string"),
            (5, "'agents' is not a list"),
            ([5], "'agents[0]' is not an object"),
        ],
    )
    def test_wrong_type_agent_value_exit_3(self, tmp_path, capsys, agents_value, named):
        cfg = write_config(tmp_path)
        agents = write_agents(tmp_path, agents_value)
        code = main(["run-match", "--config", str(cfg), "--agents", str(agents), "--out", str(tmp_path / "o")])
        assert code == EXIT_SETUP
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_ids_too_long_for_a_log_name_exit_3(self, tmp_path, capsys):
        long_ids = ["p" * 130, "q" * 120]
        cfg = write_config(tmp_path, match_length_frames=60)
        agents = write_agents(
            tmp_path, [{"id": i, "kind": "scripted", "policy": "idle"} for i in long_ids]
        )
        out = tmp_path / "o"
        code = main(["run-match", "--config", str(cfg), "--agents", str(agents), "--out", str(out)])
        assert code == EXIT_SETUP
        assert long_ids[0] in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("parallel", ["0", "-3"])
    def test_parallel_below_one_exit_3(self, tmp_path, capsys, parallel):
        cfg = write_config(tmp_path)
        agents = write_agents(tmp_path, BOTS_4)
        out = tmp_path / "t"
        argv = ["tournament", "--config", str(cfg), "--agents", str(agents), "--out", str(out)]
        assert main(argv + ["--parallel", parallel]) == EXIT_SETUP
        assert "parallel must be >= 1" in capsys.readouterr().err
        assert not list(out.glob("match_*.json"))

    @pytest.mark.parametrize(
        "specs, flags",
        [
            (BOTS_4[:2], ["--parallel", "0"]),
            (BOTS_4[:2], ["--matches-per-pair", "0"]),
            (BOTS_4[:1], []),
        ],
        ids=["parallel-0", "matches-per-pair-0", "one-agent"],
    )
    def test_refused_tournament_creates_no_out_dir(self, tmp_path, specs, flags):
        cfg = write_config(tmp_path, match_length_frames=240)
        agents = write_agents(tmp_path, specs)
        out = tmp_path / "t"
        argv = ["tournament", "--config", str(cfg), "--agents", str(agents), "--out", str(out)]
        assert main(argv + flags) == EXIT_SETUP
        assert not out.exists()

    def test_nonempty_out_refused_before_any_match(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_module, "run_round_robin", no_match)
        cfg = write_config(tmp_path, match_length_frames=240)
        agents = write_agents(tmp_path, BOTS_4[:2])
        out = tmp_path / "t"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        argv = ["tournament", "--config", str(cfg), "--agents", str(agents), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert tree_bytes(out) == {"junk.txt": b"x"}

    @pytest.mark.parametrize(
        "specs, flags, foreign",
        [
            (BOTS_4[:2], ["--matches-per-pair", "2"], "match_1_0_rand_vs_rush.json"),
            (BOTS_4[:3], [], "match_0_1_zone_vs_rush.json"),
        ],
        ids=["fewer-agents", "fewer-repeats"],
    )
    def test_force_refuses_another_runs_logs(
        self, tmp_path, capsys, monkeypatch, specs, flags, foreign
    ):
        cfg = write_config(tmp_path, match_length_frames=240)
        out = tmp_path / "t"
        argv = ["tournament", "--config", str(cfg), "--out", str(out)]
        first = write_agents(tmp_path, BOTS_4[:3])
        assert main(argv + ["--agents", str(first), "--matches-per-pair", "2"]) == EXIT_OK
        before = tree_bytes(out)
        (tmp_path / "second").mkdir()
        second = write_agents(tmp_path / "second", specs)
        monkeypatch.setattr(cli_module, "run_round_robin", no_match)
        capsys.readouterr()
        assert main(argv + ["--agents", str(second), "--force"] + flags) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: output directory {out} holds other match logs")
        assert foreign in err
        assert tree_bytes(out) == before

    def test_force_reruns_the_same_tournament_in_place(self, tmp_path):
        cfg = write_config(tmp_path, match_length_frames=240)
        agents = write_agents(tmp_path, BOTS_4[:3])
        out = tmp_path / "t"
        argv = ["tournament", "--config", str(cfg), "--agents", str(agents), "--out", str(out)]
        assert main(argv) == EXIT_OK
        before = tree_bytes(out)
        assert main(argv + ["--force"]) == EXIT_OK
        assert tree_bytes(out) == before

    def test_tournament_json_is_the_aggregate_of_its_logs(self, tmp_path):
        cfg = write_config(tmp_path, match_length_frames=600)
        agents = write_agents(tmp_path, BOTS_4)
        out = tmp_path / "t"
        argv = ["tournament", "--config", str(cfg), "--agents", str(agents), "--out", str(out)]
        assert main(argv) == EXIT_OK
        logs = [read_log(path) for path in sorted(out.glob("match_*.json"))]
        doc = json.loads((out / "tournament.json").read_text())
        assert doc == result_from_logs(logs)
        assert doc["agents"] == ["rush", "zone", "rand", "idle"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        agents = write_agents(tmp_path, BOTS_4)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        for out in (out1, out2):
            assert main(
                ["tournament", "--config", str(cfg), "--agents", str(agents), "--out", str(out), "--seed", "42"]
            ) == EXIT_OK
        assert tree_bytes(out1) == tree_bytes(out2)


class Interrupted(Exception):
    """Stands for a crash or a kill in the middle of a tournament."""


class TestStreamedLogs:
    """A tournament writes each log as its match ends, and a report folds
    its logs one at a time: neither keeps more than one match's frames."""

    @pytest.mark.parametrize("k", [2, 5])
    def test_an_interrupted_tournament_keeps_its_finished_logs(
        self, tmp_path, capsys, monkeypatch, k
    ):
        cfg = write_config(tmp_path, match_length_frames=600)
        agents = write_agents(tmp_path, BOTS_4)
        argv = ["tournament", "--config", str(cfg), "--agents", str(agents), "--out"]
        whole = tmp_path / "whole"
        assert main(argv + [str(whole)]) == EXIT_OK
        schedule = pair_schedule([b["id"] for b in BOTS_4], 1)
        names = [log_filename(e["pair_index"], 0, e["p1"], e["p2"]) for e in schedule]
        played = []
        real = roundrobin_module.run_match

        def interrupted(*args, **kwargs):
            if len(played) == k:
                raise Interrupted(f"schedule entry {k}")
            played.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(roundrobin_module, "run_match", interrupted)
        partial = tmp_path / "partial"
        with pytest.raises(Interrupted):
            main(argv + [str(partial)])
        finished = tree_bytes(whole)
        assert tree_bytes(partial) == {name: finished[name] for name in names[:k]}
        capsys.readouterr()
        assert main(["report", str(partial)]) == EXIT_CONFIG
        assert "no log for" in capsys.readouterr().err
        assert sorted(p.name for p in partial.iterdir()) == sorted(names[:k])

    def test_memory_stays_within_one_match(self, tmp_path):
        # idle bots play full-length matches to a draw on time; the peak of
        # six matches, for tournament and for report, stays near one's
        cfg = write_config(tmp_path, match_length_frames=5940)
        bots = [{"id": f"idle{i}", "kind": "scripted", "policy": "idle"} for i in range(3)]
        (tmp_path / "two").mkdir()
        two = write_agents(tmp_path / "two", bots[:2])
        three = write_agents(tmp_path, bots)

        def tournament(agents, out, *flags):
            return ["tournament", "--config", str(cfg), "--agents", str(agents),
                    "--out", str(tmp_path / out), *flags]

        def peak(argv) -> int:
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert main(tournament(two, "warm")) == EXIT_OK
        assert main(["report", str(tmp_path / "warm")]) == EXIT_OK
        one = peak(tournament(two, "one"))
        six = peak(tournament(three, "six", "--matches-per-pair", "2"))
        assert len(list((tmp_path / "six").glob("match_*.json"))) == 6
        assert six <= 2 * one, (six, one)
        one = peak(["report", str(tmp_path / "one")])
        six = peak(["report", str(tmp_path / "six")])
        assert six <= 2 * one, (six, one)


class TestReplay:
    def run_one(self, tmp_path, **config) -> Path:
        cfg = write_config(tmp_path, **config)
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
        held = decode_chord(data["input_trace"][25][0])
        data["input_trace"][25][0] = encode_chord(held ^ BIT[Button.B])
        path.write_text(json.dumps(data))
        assert main(["replay", str(path)]) == EXIT_DIVERGENCE
        assert "FRAME=26" in capsys.readouterr().out

    def test_divergence_reason_goes_to_stderr(self, tmp_path, capsys):
        path = self.run_one(tmp_path)
        data = json.loads(path.read_text())
        held = decode_chord(data["input_trace"][25][0])
        data["input_trace"][25][0] = encode_chord(held ^ BIT[Button.B])
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["replay", str(path)]) == EXIT_DIVERGENCE
        captured = capsys.readouterr()
        assert captured.out == "REPLAY=divergence FRAME=26\n"
        assert captured.err == "replay: digest chain diverges at frame 26\n"

    def test_forged_button_counts_exit_4(self, tmp_path, capsys):
        path = self.run_one(tmp_path)
        data = json.loads(path.read_text())
        data["button_counts"]["P1"]["A"] += 1000
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["replay", str(path)]) == EXIT_DIVERGENCE
        captured = capsys.readouterr()
        assert captured.out == "REPLAY=result_forgery\n"
        assert captured.err == "replay: logged button_counts do not match replay\n"

    @pytest.mark.parametrize(
        "tamper, frame",
        [
            (lambda entries: entries.pop(), 200),
            (lambda entries: entries.__delitem__(slice(2, 4)), 40),
            (lambda entries: entries.clear(), 0),
            (lambda entries: entries[0].update(frame=999), 0),
            (lambda entries: entries[0].update(decision_index=7), 0),
            (lambda entries: entries.extend(entries[-2:]), 240),
        ],
        ids=["last-entry", "tick-1", "empty", "frame", "decision-index", "extra-tick"],
    )
    def test_decision_ticks_checked(self, tmp_path, capsys, tamper, frame):
        path = self.run_one(tmp_path, match_length_frames=240)
        data = json.loads(path.read_text())
        assert len(data["decisions"]) == 12  # one P1 and one P2 entry per 40-frame tick
        tamper(data["decisions"])
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["replay", str(path)]) == EXIT_DIVERGENCE
        captured = capsys.readouterr()
        assert captured.out == f"REPLAY=divergence FRAME={frame}\n"
        assert captured.err == (
            f"replay: decision entries do not match tick {frame // 40} at frame {frame}\n"
        )

    @pytest.mark.parametrize(
        "tamper, frame, detail",
        [
            (
                lambda data: data["config"].update(match_length_frames=201),
                0,
                "initial state digest mismatch",
            ),
            (
                lambda data: (data["input_trace"].append(["", ""]),
                              data["state_digests"].append("0" * 64)),
                201,
                "trace continues past round end at frame 200",
            ),
            (
                lambda data: data["state_digests"].append("0" * 64),
                200,
                "digest list longer than replayed trace",
            ),
        ],
        ids=["config", "trace-past-round-end", "extra-digest"],
    )
    def test_chain_edits_exit_4_at_their_frame(self, tmp_path, capsys, tamper, frame, detail):
        path = self.run_one(tmp_path, match_length_frames=200, seed=3)
        data = json.loads(path.read_text())
        assert data["result"]["end_reason"] == "timeout" and len(data["input_trace"]) == 200
        tamper(data)
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["replay", str(path)]) == EXIT_DIVERGENCE
        captured = capsys.readouterr()
        assert captured.out == f"REPLAY=divergence FRAME={frame}\n"
        assert captured.err == f"replay: {detail}\n"

    def test_seed_other_than_config_seed_exit_2(self, tmp_path, capsys):
        path = self.run_one(tmp_path)
        data = json.loads(path.read_text())
        data["seed"] += 1
        path.write_text(json.dumps(data))
        assert main(["replay", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: log file ")
        assert "'seed' is not config.seed, 42" in err

    def test_config_that_fails_its_value_checks_exit_2(self, tmp_path, capsys):
        path = self.run_one(tmp_path, match_length_frames=200, seed=3)
        data = json.loads(path.read_text())
        data["config"]["arena_width"] = 401
        path.write_text(json.dumps(data))
        named = "field 'config': arena_width must be even for a symmetric start\n"
        assert main(["replay", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: log file {path}") and err.endswith(named)
        out = tmp_path / "reports"
        assert main(["report", str(path.parent), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: log file {path}") and err.endswith(named)
        assert not out.exists()

    def test_missing_log_exit_2(self, tmp_path):
        assert main(["replay", str(tmp_path / "missing.json")]) == EXIT_CONFIG

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["replay", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: log file ")
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

    def test_missing_nested_field_exit_2(self, tmp_path, capsys):
        path = self.run_one(tmp_path)
        data = json.loads(path.read_text())
        del data["result"]["winner"]
        path.write_text(json.dumps(data))
        assert main(["replay", str(path)]) == EXIT_CONFIG
        assert "result.winner" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("state_digests",), 5, "'state_digests' is not a list"),
            (("input_trace",), 5, "'input_trace' is not a list"),
            (("seed",), "42", "'seed' is not an integer"),
            (("prompt_version",), 1, "'prompt_version' is not a string"),
            (("config", "arena_width"), "400", "'config.arena_width' is not an integer"),
            (("config",), [], "'config' is not an object"),
            (("decisions",), {}, "'decisions' is not a list"),
            (("decisions", 2), "A", "'decisions[2]' is not an object"),
            (("decisions", 2, "player"), "P3", "'decisions[2].player' is not 'P1'"),
            (("decisions", 2, "agent_id"), "idle", "'decisions[2].agent_id' is not 'rush'"),
            (("decisions", 0, "plan"), 5, "'decisions[0].plan' is not a list"),
            (("decisions", 1, "command"), DELETED, "lacks field(s): decisions[1].command"),
            (("decisions", 2, "failure"), "oops", "'decisions[2].failure' is not None or 'timeout'"),
            (("decisions", 2, "latency_ms"), True, "'decisions[2].latency_ms' is not an integer"),
            (("decisions", 2, "failure"), ["timeout"], "'decisions[2].failure' is not None"),
            (("decisions", 3, "player"), {"P2": 1}, "'decisions[3].player' is not 'P2'"),
        ],
    )
    def test_wrong_type_field_exit_2(self, tmp_path, capsys, path, value, named):
        log = self.run_one(tmp_path)
        data = json.loads(log.read_text())
        *parents, key = path
        target = data
        for parent in parents:
            target = target[parent]
        if value is DELETED:
            del target[key]
        else:
            target[key] = value
        log.write_text(json.dumps(data))
        assert main(["replay", str(log)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: log file ") and named in err


class TestReport:
    def test_log_nested_too_deep_exits_2_and_writes_nothing(self, tmp_path, capsys):
        logs_dir = tmp_path / "logs"
        logs_dir.mkdir()
        log = logs_dir / "match_0_0_a_vs_b.json"
        log.write_text(DEEP)
        line = f"config error: log file {log} nests too deep to parse\n"
        assert main(["replay", str(log)]) == EXIT_CONFIG
        assert capsys.readouterr().err == line
        out = tmp_path / "reports"
        assert main(["report", str(logs_dir), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == line
        assert not out.exists()

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

    def test_missing_dir_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(["report", str(missing)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: log directory not found: {missing}\n"
        assert not missing.exists()

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

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("result", "winner"), None, "result.winner"),
            (("result", "frames_elapsed"), None, "result.frames_elapsed"),
            (("button_counts", "P2"), None, "button_counts.P2"),
            (("result",), [], "'result' is not an object"),
            (("result", "winner"), "P3", "'result.winner'"),
        ],
    )
    def test_malformed_nested_field_exit_2(self, tmp_path, capsys, path, value, named):
        logs = fixture_logs()
        *parents, key = path
        target = logs[4]
        for parent in parents:
            target = target[parent]
        if value is None:
            del target[key]
        else:
            target[key] = value
        logs_dir = write_logs(tmp_path / "logs", logs)
        assert main(["report", str(logs_dir), "--out", str(tmp_path / "r")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "match_4_0_" in err and named in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("result", "winner_health"), "900", "'result.winner_health'"),
            (("button_counts", "P1"), [], "'button_counts.P1'"),
            (("p1",), 7, "'p1' is not a string"),
            (("p2",), "intern vl", "'p2' does not match [A-Za-z0-9_.-]{1,64}"),
        ],
    )
    def test_wrong_type_field_exit_2(self, tmp_path, capsys, path, value, named):
        logs = fixture_logs()
        *parents, key = path
        target = logs[4]
        for parent in parents:
            target = target[parent]
        target[key] = value
        logs_dir = write_logs(tmp_path / "logs", logs)
        assert main(["report", str(logs_dir), "--out", str(tmp_path / "r")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "match_4_0_" in err and named in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("side", ["P1", "P2"])
    def test_agent_id_outside_agents_file_rule_exit_2(self, tmp_path, capsys, side):
        # the id is renamed in its decisions as well, so only the id rule
        # stands between it and the columns of win_rates.csv and matrix.csv
        cfg = write_config(tmp_path, match_length_frames=240)
        agents = write_agents(tmp_path, rush_and_idle())
        logs_dir = tmp_path / "m"
        argv = ["run-match", "--config", str(cfg), "--agents", str(agents), "--out", str(logs_dir)]
        assert main(argv) == EXIT_OK
        (path,) = logs_dir.glob("match_*.json")
        data = json.loads(path.read_text())
        data[side.lower()] = "id,le"
        for entry in data["decisions"]:
            if entry["player"] == side:
                entry["agent_id"] = "id,le"
        path.write_text(json.dumps(data))
        before = tree_bytes(tmp_path)
        named = f"field '{side.lower()}' does not match [A-Za-z0-9_.-]{{1,64}}"
        capsys.readouterr()
        assert main(["replay", str(path)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert main(["report", str(logs_dir)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert tree_bytes(tmp_path) == before

    def test_swapped_agent_ids_exit_2(self, tmp_path, capsys):
        # Agent ids are outside the digest chain, so this log still replays
        # move for move; only its decisions tell that rush played P1.
        cfg = write_config(tmp_path, match_length_frames=600)
        agents = write_agents(tmp_path, rush_and_idle())
        logs_dir = tmp_path / "t"
        argv = ["tournament", "--config", str(cfg), "--agents", str(agents), "--out", str(logs_dir)]
        assert main(argv) == EXIT_OK
        original = logs_dir / "match_0_0_rush_vs_idle.json"
        data = json.loads(original.read_text())
        assert data["result"]["winner"] == "P1"
        data["p1"], data["p2"] = data["p2"], data["p1"]
        original.unlink()
        swapped = logs_dir / "match_0_0_idle_vs_rush.json"
        swapped.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
        named = "'decisions[0].agent_id' is not 'idle'"
        assert main(["replay", str(swapped)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        out = tmp_path / "r"
        assert main(["report", str(logs_dir), "--out", str(out)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_directory_named_like_log_exit_2(self, tmp_path, capsys):
        logs_dir = write_logs(tmp_path / "logs", fixture_logs())
        (logs_dir / "match_99_0_a_vs_b.json").mkdir()
        assert main(["report", str(logs_dir), "--out", str(tmp_path / "r")]) == EXIT_CONFIG
        assert "match_99_0_a_vs_b.json" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "tamper",
        ["pair_outside_schedule", "log_refiled_under_other_pair", "entry_twice", "repeat_missing"],
    )
    def test_log_set_off_schedule_exit_2(self, tmp_path, capsys, tamper):
        cfg = write_config(tmp_path, match_length_frames=600)
        agents = write_agents(tmp_path, BOTS_4[:3])
        logs_dir = tmp_path / "t"
        assert main(
            ["tournament", "--config", str(cfg), "--agents", str(agents),
             "--out", str(logs_dir), "--matches-per-pair", "2"]
        ) == EXIT_OK

        def log_at(pair, repeat):
            (path,) = logs_dir.glob(f"match_{pair}_{repeat}_*.json")
            return path

        if tamper == "pair_outside_schedule":
            data = json.loads(log_at(0, 0).read_text())
            data["pair_index"] = 99
            (logs_dir / f"match_99_0_{data['p1']}_vs_{data['p2']}.json").write_text(
                json.dumps(data)
            )
            named = "(pair 99, repeat 0) is outside the round-robin schedule"
        elif tamper == "log_refiled_under_other_pair":
            data = json.loads(log_at(2, 0).read_text())  # zone vs rand
            data["pair_index"] = 0  # rush vs zone
            log_at(0, 0).unlink()
            (logs_dir / f"match_0_0_{data['p1']}_vs_{data['p2']}.json").write_text(
                json.dumps(data)
            )
            named = "should be"
        elif tamper == "entry_twice":
            (logs_dir / "match_0_0_copy.json").write_bytes(log_at(0, 0).read_bytes())
            named = "(pair 0, repeat 0) appears twice"
        else:
            log_at(1, 1).unlink()
            named = "no log for pair 1 ('rush', 'rand') repeat 1"
        out = tmp_path / "r"
        assert main(["report", str(logs_dir), "--out", str(out)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_logs_from_two_configs_exit_2(self, tmp_path, capsys):
        agents = write_agents(tmp_path, BOTS_4[:3])
        runs = []
        for name, overrides in (("short", {"match_length_frames": 600, "seed": 0}), ("long", {"seed": 7})):
            (tmp_path / name).mkdir()
            cfg = write_config(tmp_path / name, **overrides)
            out = tmp_path / name / "t"
            assert main(["tournament", "--config", str(cfg), "--agents", str(agents), "--out", str(out)]) == EXIT_OK
            runs.append(out)
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        for source, pattern in ((runs[0], "match_[01]_*.json"), (runs[1], "match_2_*.json")):
            for path in source.glob(pattern):
                (mixed / path.name).write_bytes(path.read_bytes())
        for path in mixed.iterdir():
            assert main(["replay", str(path)]) == EXIT_OK
        out = tmp_path / "r"
        assert main(["report", str(mixed), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "log zone vs rand (pair 2, repeat 0)" in err and "match_length_frames" in err
        assert not out.exists()

    def test_logs_from_two_base_seeds_exit_2(self, tmp_path, capsys):
        # same config, but per-match seeds 0, 1000 and 2007 fit no one base seed
        agents = write_agents(tmp_path, BOTS_4[:3])
        runs = []
        for seed in (0, 7):
            (tmp_path / str(seed)).mkdir()
            cfg = write_config(tmp_path / str(seed), match_length_frames=600)
            out = tmp_path / str(seed) / "t"
            argv = ["tournament", "--config", str(cfg), "--agents", str(agents), "--out", str(out)]
            assert main(argv + ["--seed", str(seed)]) == EXIT_OK
            runs.append(out)
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        for source, pattern in ((runs[0], "match_[01]_*.json"), (runs[1], "match_2_*.json")):
            for path in source.glob(pattern):
                (mixed / path.name).write_bytes(path.read_bytes())
        assert len(list(mixed.iterdir())) == 3
        for path in mixed.iterdir():
            assert main(["replay", str(path)]) == EXIT_OK
        out = tmp_path / "r"
        assert main(["report", str(mixed), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "log zone vs rand (pair 2, repeat 0) has seed 2007" in err
        assert not out.exists()

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


class TestOutPathUnderFile:
    @pytest.mark.parametrize(
        "below", ["", "sub", None], ids=["file", "under-file", "dangling-symlink"]
    )
    @pytest.mark.parametrize("command", ["report", "run-match", "tournament"])
    def test_exit_2_before_any_match(self, tmp_path, capsys, monkeypatch, command, below):
        monkeypatch.setattr(cli_module, "run_match", no_match)
        monkeypatch.setattr(cli_module, "run_round_robin", no_match)
        logs_dir = write_logs(tmp_path / "logs", fixture_logs())
        cfg = write_config(tmp_path, match_length_frames=240)
        agents = write_agents(tmp_path, BOTS_4[:2])
        afile = tmp_path / "afile"
        if below is None:  # afile is a symlink to a path that does not exist
            afile.symlink_to(tmp_path / "nowhere" / "x")
            below = ""
        else:
            afile.write_text("x")
        if command == "report":
            argv = ["report", str(logs_dir)]
        else:
            argv = [command, "--config", str(cfg), "--agents", str(agents)]
        before = tree_bytes(tmp_path)
        assert main(argv + ["--out", str(afile / below)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        under = f" is under {afile}, which" if below else ""
        assert err == f"config error: output path {afile / below}{under} is not a directory\n"
        assert tree_bytes(tmp_path) == before
        assert not (tmp_path / "nowhere").exists()


class TestAgentsFileRefusedBeforeAnyMatch:
    """An agents file whose agents cannot play exits 3 before any match
    runs and leaves no output directory."""

    @staticmethod
    def refused(tmp_path, monkeypatch, command, specs) -> None:
        monkeypatch.setattr(cli_module, "run_match", no_match)
        monkeypatch.setattr(cli_module, "run_round_robin", no_match)
        cfg = write_config(tmp_path, match_length_frames=240)
        agents = write_agents(tmp_path, specs)
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--agents", str(agents), "--out", str(out)]
        assert main(argv) == EXIT_SETUP
        assert not out.exists()

    @pytest.mark.parametrize("script", ["missing", "directory", "not-utf8"])
    @pytest.mark.parametrize("command", ["run-match", "tournament"])
    def test_unreadable_fixed_script(self, tmp_path, capsys, monkeypatch, command, script):
        path = tmp_path / script
        if script == "directory":
            path.mkdir()
        elif script == "not-utf8":
            path.write_bytes(b"A\n\xff\xfe B\n")
        bot = {"id": "s", "kind": "scripted", "policy": "fixed_script", "script_path": str(path)}
        self.refused(tmp_path, monkeypatch, command, [BOTS_4[3], bot])
        err = capsys.readouterr().err
        assert err.startswith(f"setup error: agents file {tmp_path / 'agents.json'}: bot script")
        assert str(path) in err

    @pytest.mark.parametrize("command", ["run-match", "tournament"])
    def test_unparsable_fixed_script_line(self, tmp_path, capsys, monkeypatch, command):
        path = tmp_path / "script.txt"
        path.write_text("# opener\nA\n\nFly + Z\nB\n")
        bot = {"id": "s", "kind": "scripted", "policy": "fixed_script", "script_path": str(path)}
        self.refused(tmp_path, monkeypatch, command, [BOTS_4[3], bot])
        err = capsys.readouterr().err
        assert err == (
            f"setup error: agents file {tmp_path / 'agents.json'}: "
            f"bot script {path} line 4: unknown token 'Fly' at position 1\n"
        )

    @pytest.mark.parametrize("endpoint", ["localhost:8000/", "htp://127.0.0.1:9/", "http:///nohost"])
    @pytest.mark.parametrize("command", ["run-match", "tournament"])
    def test_endpoint_that_cannot_be_posted_to(self, tmp_path, capsys, monkeypatch, command, endpoint):
        remote = {"id": "r", "kind": "remote", "endpoint": endpoint}
        self.refused(tmp_path, monkeypatch, command, [remote, BOTS_4[3]])
        err = capsys.readouterr().err
        assert err == (
            f"setup error: agents file {tmp_path / 'agents.json'}: agent r: "
            f"endpoint {endpoint!r} is not an http or https URL with a host\n"
        )

    @pytest.mark.parametrize("raw", ["X-Api-Key secret", ": secret", "X-Api-Key: a\nb"])
    @pytest.mark.parametrize("command", ["run-match", "tournament"])
    def test_malformed_auth_header(self, tmp_path, capsys, monkeypatch, command, raw):
        monkeypatch.setenv("LMFA_AUTH_HEADER", raw)
        remote = {"id": "r", "kind": "remote", "endpoint": "http://127.0.0.1:9/"}
        self.refused(tmp_path, monkeypatch, command, [remote, BOTS_4[3]])
        err = capsys.readouterr().err
        assert err == (
            f"setup error: agents file {tmp_path / 'agents.json'}: "
            "LMFA_AUTH_HEADER must be 'Name: value'\n"
        )

    @pytest.mark.parametrize("command", ["run-match", "tournament"])
    def test_auth_header_naming_a_header_lmfa_controls(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("LMFA_AUTH_HEADER", "content-LENGTH: 5")
        remote = {"id": "r", "kind": "remote", "endpoint": "http://127.0.0.1:9/"}
        self.refused(tmp_path, monkeypatch, command, [remote, BOTS_4[3]])
        assert capsys.readouterr().err == (
            f"setup error: agents file {tmp_path / 'agents.json'}: "
            "LMFA_AUTH_HEADER may not set content-LENGTH, a header lmfa controls\n"
        )

    @pytest.mark.parametrize("command", ["run-match", "tournament"])
    def test_unknown_wire_format(self, tmp_path, capsys, monkeypatch, command):
        remote = {"id": "r", "kind": "remote", "endpoint": "http://127.0.0.1:9/", "wire_format": "grpc"}
        self.refused(tmp_path, monkeypatch, command, [remote, BOTS_4[3]])
        assert capsys.readouterr().err == (
            f"setup error: agents file {tmp_path / 'agents.json'}: "
            "agent r: unknown wire_format 'grpc'\n"
        )

    @pytest.mark.parametrize("command", ["run-match", "tournament"])
    def test_scripted_agent_without_policy(self, tmp_path, capsys, monkeypatch, command):
        self.refused(tmp_path, monkeypatch, command, [{"id": "s", "kind": "scripted"}, BOTS_4[3]])
        assert capsys.readouterr().err == (
            f"setup error: agents file {tmp_path / 'agents.json'}: "
            "agent s: scripted agent needs policy\n"
        )

    @pytest.mark.parametrize("command", ["run-match", "tournament"])
    def test_fixed_script_without_a_command(self, tmp_path, capsys, monkeypatch, command):
        path = tmp_path / "script.txt"
        path.write_text("# opener\n\n   \n# closer\n")
        bot = {"id": "s", "kind": "scripted", "policy": "fixed_script", "script_path": str(path)}
        self.refused(tmp_path, monkeypatch, command, [BOTS_4[3], bot])
        assert capsys.readouterr().err == (
            f"setup error: agents file {tmp_path / 'agents.json'}: "
            f"bot script {path} contains no commands\n"
        )
