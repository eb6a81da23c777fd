"""The row-tuple rasterizer against the numpy rasterizer it replaced
(``raster_oracle``): the same pixels for every sampled state, every row
``WIDTH * 3`` bytes long, and every row that nothing paints still the
background's own object."""

from __future__ import annotations

import dataclasses

import pytest

import raster_oracle
from lmfa.agents.specs import AgentKind, AgentSpec, BotPolicy
from lmfa.config import MatchConfig
from lmfa.engine.buttons import decode_chord
from lmfa.engine.core import mirror, new_match, step
from lmfa.engine.state import Jumping, KnockedDown
from lmfa.observe import raster
from lmfa.observe.raster import (
    FIGHTER_HEIGHT,
    GROUND_ROW,
    HEIGHT,
    WIDTH,
    _BACKGROUND,
    annotate,
    render,
)
from lmfa.tourney.match import run_match

ROW = WIDTH * 3
BACKGROUND = raster_oracle._BACKGROUND.tobytes()


def bot(name: str, policy: BotPolicy, seed: int = 0) -> AgentSpec:
    return AgentSpec(id=name, kind=AgentKind.SCRIPTED, bot_policy=policy, seed=seed)


MATCHES = [
    (bot("rand", BotPolicy.RANDOM, 1), bot("zone", BotPolicy.ZONER, 6), MatchConfig(seed=1)),
    (bot("rush", BotPolicy.RUSHDOWN), bot("rand", BotPolicy.RANDOM, 3), MatchConfig(seed=2)),
    (bot("zone", BotPolicy.ZONER), bot("zone2", BotPolicy.ZONER, 4), MatchConfig(seed=3)),
    (
        bot("rand", BotPolicy.RANDOM, 8),
        bot("rush", BotPolicy.RUSHDOWN),
        MatchConfig(seed=4, arena_width=240, start_offset=100),
    ),
]


def match_states(p1, p2, config):
    """Every 4th state of a played match."""
    log = run_match(p1, p2, config)
    state = new_match(log.config)
    states = [state]
    for enc1, enc2 in log.input_trace:
        state = step(state, decode_chord(enc1), decode_chord(enc2))
        states.append(state)
    return states[::4]


def edge_states(states):
    """A state of each P1 phase type with the fighters, and a projectile
    each, at opposite arena edges or one unit in."""
    shot = next(p for s in states for p in s.projectiles)
    out = []
    for s in {type(s.p1.phase): s for s in states}.values():
        w = s.arena_width
        for x in (0, 1, w - 1, w):
            out.append(
                dataclasses.replace(
                    s,
                    p1=dataclasses.replace(s.p1, x=x),
                    p2=dataclasses.replace(s.p2, x=w - x),
                    projectiles=tuple(dataclasses.replace(shot, x=px) for px in (x, w - x)),
                )
            )
    return out


@pytest.fixture(scope="module")
def sampled_states():
    states = [s for p1, p2, config in MATCHES for s in match_states(p1, p2, config)]
    states += edge_states(states)
    return states + [mirror(s) for s in states]


def painted_rows(flat: bytes) -> set:
    """Rows of a flat oracle frame that differ from the background."""
    spans = [slice(y * ROW, (y + 1) * ROW) for y in range(HEIGHT)]
    return {y for y, span in enumerate(spans) if flat[span] != BACKGROUND[span]}


def unshared_rows(rows) -> set:
    return {y for y, row in enumerate(rows) if row is not _BACKGROUND[y]}


def test_background_matches_the_oracle():
    assert b"".join(_BACKGROUND) == BACKGROUND
    assert len(_BACKGROUND) == HEIGHT
    assert {len(row) for row in _BACKGROUND} == {ROW}


def test_samples_cover_edges_air_knockdowns_and_projectiles(sampled_states):
    fighters = [f for s in sampled_states for f in (s.p1, s.p2)]
    assert any(isinstance(f.phase, Jumping) and f.y > 0 for f in fighters)
    assert any(isinstance(f.phase, KnockedDown) for f in fighters)
    assert any(s.projectiles for s in sampled_states)
    for s in sampled_states:
        edges = {0, s.arena_width}
        if {s.p1.x, s.p2.x} == edges and {p.x for p in s.projectiles} == edges:
            break
    else:
        pytest.fail("no state has fighters and projectiles at both edges")
    assert {s.arena_width for s in sampled_states} == {240, 400}


def test_render_and_annotate_match_the_oracle(sampled_states):
    for s in sampled_states:
        rows = render(s)
        annotated = annotate(rows, s)
        want = raster_oracle.render(s)
        want_annotated = raster_oracle.annotate(want, s)
        for got in (rows, annotated):
            assert len(got) == HEIGHT
            assert {len(row) for row in got} == {ROW}
        assert b"".join(rows) == want
        assert b"".join(annotated) == want_annotated
        assert unshared_rows(rows) == painted_rows(want)
        assert unshared_rows(annotated) == painted_rows(want_annotated)


def test_a_fill_builds_one_row_per_run_of_shared_rows():
    s = new_match(MatchConfig())
    rows = render(s)
    feet = GROUND_ROW - s.p1.y
    assert s.p1.y == s.p2.y == 0
    assert len({id(row) for row in rows[feet - FIGHTER_HEIGHT : feet]}) == 1
    # timer font rows 0, 2 and 4 (4 pixel rows each at scale 4) lie over
    # one run of shared HUD rows each; rows 1 and 3 cross a bar edge
    for top in (2, 10, 18):
        assert len({id(row) for row in rows[top : top + 4]}) == 1


def test_an_empty_fill_leaves_every_row():
    rows = list(_BACKGROUND)
    for x0, x1 in ((5, 5), (9, 4), (WIDTH, WIDTH)):
        raster._fill(rows, x0, 0, x1, HEIGHT, (1, 2, 3))
    assert all(row is bg for row, bg in zip(rows, _BACKGROUND))
