"""Reading a match log and writing it again reproduces its bytes, and a
log that lmfa would not have written is refused."""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmfa.agents.mock_server import MockAgentServer
from lmfa.agents.specs import AgentKind, AgentSpec, BotPolicy, FailureKind
from lmfa.cli import EXIT_CONFIG, EXIT_OK, main
from lmfa.config import (
    ConfigError,
    MatchConfig,
    config_from_dict,
    config_to_dict,
    load_config_file,
)
from lmfa.tourney.match import (
    MalformedLogError,
    log_from_dict,
    log_to_dict,
    read_log,
    run_match,
    write_log,
)

BOTS = [
    {"id": "rush", "kind": "scripted", "policy": "rushdown"},
    {"id": "zone", "kind": "scripted", "policy": "zoner"},
    {"id": "rand", "kind": "scripted", "policy": "random", "seed": 7},
    {"id": "idle", "kind": "scripted", "policy": "idle"},
]

# a command, an extraction failure, prose around a command, and non-ASCII text
REPLIES = ["Forward + A", "no idea", "I think Down + B now", "Bloqué: C ✓"]


def remote_log():
    cfg = MatchConfig(seed=3, match_length_frames=400, decision_interval_frames=40)
    with MockAgentServer(replies=REPLIES) as server:
        remote = AgentSpec(id="remote", kind=AgentKind.REMOTE, endpoint=server.url)
        idle = AgentSpec(id="idle", kind=AgentKind.SCRIPTED, bot_policy=BotPolicy.IDLE)
        return run_match(remote, idle, cfg)


def assert_rewrites_exactly(path, tmp_path):
    copy = tmp_path / "rewritten.json"
    write_log(read_log(path), copy)
    assert copy.read_bytes() == path.read_bytes(), path.name


def test_rewriting_every_tournament_log_is_byte_exact(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"lmfa_config": 1, "match_length_frames": 900, "seed": 5}))
    agents = tmp_path / "agents.json"
    agents.write_text(json.dumps({"lmfa_agents": 1, "agents": BOTS}))
    out = tmp_path / "t"
    argv = ["tournament", "--config", str(cfg), "--agents", str(agents), "--out", str(out)]
    assert main(argv + ["--matches-per-pair", "2"]) == EXIT_OK
    paths = sorted(out.glob("match_*.json"))
    assert len(paths) == 12
    for path in paths:
        assert_rewrites_exactly(path, tmp_path)


def test_rewriting_a_remote_log_is_byte_exact(tmp_path):
    log = remote_log()
    failures = {d["failure"] for d in log.decisions if d["player"] == "P1"}
    assert failures == {None, "no_command"}
    path = tmp_path / "remote.json"
    write_log(log, path)
    assert_rewrites_exactly(path, tmp_path)


class TestAtomicWrite:
    """A log is written whole or not at all, and nothing half-written is
    named like a log."""

    @staticmethod
    def failing_midway(monkeypatch):
        real = Path.write_text

        def half_then_raise(self, text, *args, **kwargs):
            real(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", half_then_raise)

    def test_a_write_that_raises_midway_leaves_no_file(self, tmp_path, monkeypatch):
        log = remote_log()
        self.failing_midway(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            write_log(log, tmp_path / "match_0_0_remote_vs_idle.json")
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_rewrite_keeps_the_old_log(self, tmp_path, monkeypatch):
        log = remote_log()
        path = tmp_path / "match_0_0_remote_vs_idle.json"
        write_log(log, path)
        before = path.read_bytes()
        self.failing_midway(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            write_log(log, path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before


@pytest.mark.parametrize(
    "text, named",
    [("{not json", "is not valid JSON"), ("[" * 200_000 + "]" * 200_000, "nests too deep")],
    ids=["not_json", "too_deep"],
)
def test_read_log_refuses_a_file_that_is_not_a_json_document(tmp_path, text, named):
    path = tmp_path / "match.json"
    path.write_text(text)
    with pytest.raises(MalformedLogError, match=f"^log file {re.escape(str(path))} {named}"):
        read_log(path)


def test_top_level_seed_must_equal_config_seed():
    data = log_to_dict(remote_log())
    assert data["seed"] == data["config"]["seed"] == 3
    with pytest.raises(MalformedLogError, match="'seed' is not config.seed, 3"):
        log_from_dict({**data, "seed": 4})


def scripted_doc() -> dict:
    """A fresh copy of one written scripted log: rush beats idle in 600 frames."""
    rush = AgentSpec(id="rush", kind=AgentKind.SCRIPTED, bot_policy=BotPolicy.RUSHDOWN)
    idle = AgentSpec(id="idle", kind=AgentKind.SCRIPTED, bot_policy=BotPolicy.IDLE)
    log = run_match(rush, idle, MatchConfig(seed=5, match_length_frames=600))
    return json.loads(json.dumps(log_to_dict(log)))


def written(path, doc):
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return path


def replay(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["replay", str(path)])
    return code, out.getvalue(), err.getvalue()


DELETED = object()
FORGED_FRACTIONS = ["0.999", 0.999, 1, None, True, [], {}, DELETED]


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("config", "lmfa_config"), True, "'config.lmfa_config' is not 1"),
        (("config", "lmfa_config"), 1.0, "'config.lmfa_config' is not 1"),
        (("config", "arena_width"), DELETED, "lacks field(s): config.arena_width"),
        (("button_counts", "P2", "Start"), DELETED, "lacks field(s): button_counts.P2.Start"),
        (("button_counts", "P1", "Turbo"), 0, "unknown field(s): button_counts.P1.Turbo"),
        (("surplus",), 1, "unknown field(s): surplus"),
    ]
    + [
        (("result", "winner_health_fraction"), forged, "result.winner_health_fraction")
        for forged in FORGED_FRACTIONS
    ]
    + [
        (("config", "best_of"), 2, "'config.best_of' is not 1"),
        (("config", "best_of"), DELETED, "lacks field(s): config.best_of"),
    ],
)
def test_a_field_the_writer_never_writes_is_refused(tmp_path, path, value, named):
    doc = scripted_doc()
    *parents, key = path
    target = doc
    for parent in parents:
        target = target[parent]
    if value is DELETED:
        del target[key]
    else:
        target[key] = value
    code, out, err = replay(written(tmp_path / "match.json", doc))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error: log file ") and named in err


def test_three_forgeries_together_are_refused_not_rewritten(tmp_path):
    doc = scripted_doc()
    doc["config"]["lmfa_config"] = True
    del doc["config"]["arena_width"]
    doc["result"]["winner_health_fraction"] = "0.999"
    with pytest.raises(MalformedLogError):
        read_log(written(tmp_path / "match.json", doc))


def test_version_keys_are_the_integer_one(tmp_path):
    for version, ok in ((1, True), (True, False), (1.0, False), ("1", False), (2, False)):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"lmfa_config": version, "seed": 3}))
        if ok:
            assert load_config_file(path) == MatchConfig(seed=3)
        else:
            with pytest.raises(ConfigError, match="'lmfa_config' is not 1"):
                load_config_file(path)


def test_best_of_is_a_fixed_key_of_the_format_not_a_setting():
    assert config_to_dict(MatchConfig())["best_of"] == 1
    for doc in ({"lmfa_config": 1}, {"lmfa_config": 1, "best_of": 1}):
        assert config_from_dict(doc) == MatchConfig()
    with pytest.raises(TypeError):
        MatchConfig(best_of=1)


@pytest.mark.parametrize("best_of", [3, True, 1.0])
def test_best_of_is_the_integer_one(best_of):
    with pytest.raises(ConfigError, match="'best_of' is not 1"):
        config_from_dict({"lmfa_config": 1, "best_of": best_of})


# A JSON value of each kind; bool and int count as different kinds.
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.lists(st.integers(0, 9), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
)
FAILURE_VALUES = tuple(f.value for f in FailureKind)


@pytest.fixture(scope="module")
def base_log(tmp_path_factory):
    return scripted_doc(), tmp_path_factory.mktemp("edited") / "match.json"


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_one_edited_field_is_refused_never_replayed(base_log, data):
    """Delete any one field, or give it a value of another kind; input_trace
    and state_digests rows are left to replay, which finds them itself."""
    base, path = base_log
    doc = json.loads(json.dumps(base))
    area = data.draw(st.sampled_from(["log", "config", "result", "button_counts", "side", "decision"]))
    if area == "log":
        target = doc
    elif area == "side":
        target = doc["button_counts"][data.draw(st.sampled_from(["P1", "P2"]))]
    elif area == "decision":
        target = data.draw(st.sampled_from(doc["decisions"]))
    else:
        target = doc[area]
    key = data.draw(st.sampled_from(sorted(target)))
    if data.draw(st.booleans()):
        del target[key]
    else:
        old = target[key]
        # a failure kind in place of null is a value that the writer writes
        allowed = FAILURE_VALUES if key == "failure" else ()
        target[key] = data.draw(
            JSON_VALUES.filter(lambda v: type(v) is not type(old) and v not in allowed)
        )
    code, out, err = replay(written(path, doc))
    assert (code, out) == (EXIT_CONFIG, ""), (area, key, err)
    assert err.startswith("config error: log file "), err
