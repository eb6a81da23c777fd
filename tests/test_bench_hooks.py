"""The benchmark's tracer and tick timers patch lmfa functions by name.

``bench/tracing.py`` replaces each (function, module) pair in ``LAYERS``
with ``setattr`` and times ticks by patching ``run_match`` and ``act``, so
a rename or a moved import here would break ``bench/run.py --trace 1``.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


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
