"""The benchmark's tracer and tick timers patch lmfa functions by name.

``bench/tracing.py`` replaces each (function, module) pair in ``LAYERS``
with ``setattr`` and times ticks by patching ``run_match`` and ``act``, so
a rename or a moved import here would break ``bench/run.py --trace 1``.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_layers():
    return load_tracing().LAYERS


def test_every_hooked_name_resolves():
    hooks = [
        (attr, module) for _, attr, modules, _ in load_layers() for module in modules
    ]
    hooks += [("run_match", "lmfa.tourney.roundrobin"), ("act", "lmfa.tourney.match")]
    missing = [
        f"{module}.{attr}"
        for attr, module in hooks
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert len(hooks) > 30  # LAYERS was read
    assert not missing, missing


def lmfa_globals() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "lmfa"
        for attr, value in list(vars(module).items())
    }


def test_the_tracer_installs_and_restores_every_global():
    tracing = load_tracing()
    for _, _, modules, _ in tracing.LAYERS:
        for module in modules:
            importlib.import_module(module)
    before = lmfa_globals()
    with tracing.Tracer().installed():
        during = lmfa_globals()
    after = lmfa_globals()
    replaced = [key for key, value in during.items() if before.get(key) is not value]
    assert len(replaced) > 30  # every LAYERS hook, and the transport hook
    assert [key for key in replaced if after.get(key) is not before[key]] == []
