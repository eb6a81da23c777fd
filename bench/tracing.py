"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces each public lmfa function listed in
``LAYERS`` with a wrapper, in every module that calls it by that name, and
restores the originals on exit. Each call becomes a span on a per-thread
stack; a span's self time is its duration minus the time its child spans
cover. Spans are folded into per-layer totals (calls, total, child time) as
they close, so memory stays flat however long the run.

``decision_ticks`` and ``match_ticks`` are the light alternative used with
tracing off: they only time decision ticks.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import requests

FAILURE_KINDS = ("timeout", "transport", "no_command", "parse_error")


def _count_write_bytes(tracer: "Tracer", result, args) -> None:
    tracer.count("tourney.match.write_log.bytes", os.path.getsize(args[1]))


def _count_b64_bytes(tracer: "Tracer", result, args) -> None:
    tracer.count("observe.describe.encode_frame_base64.bytes", len(result))


def _count_frames_sent(tracer: "Tracer", result, args) -> None:
    tracer.count("observe.frames_sent", len(result.frames))


def _count_failures(tracer: "Tracer", result, args) -> None:
    if args[0].kind.value == "remote" and result.failure is not None:
        tracer.count(f"agents.remote.failures.{result.failure.value}")


def _count_post_bytes(tracer: "Tracer", result, args) -> None:
    tracer.count("agents.remote.post.bytes", len(result.request.body or b""))


After = Optional[Callable[["Tracer", object, tuple], None]]

# (span name, function name, modules whose global of that name is replaced,
#  hook run on each successful call)
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...], After], ...] = (
    ("engine.step", "step", ("lmfa.tourney.match", "lmfa.reporting"), None),
    ("engine.trace_line", "trace_line", ("lmfa.tourney.match", "lmfa.reporting"), None),
    ("engine.encode_chord", "encode_chord", ("lmfa.tourney.match",), None),
    ("engine.decode_chord", "decode_chord", ("lmfa.reporting",), None),
    ("tourney.match.chain_digest", "chain_digest", ("lmfa.tourney.match", "lmfa.reporting"), None),
    ("tourney.match.run_match", "run_match", ("lmfa.tourney.roundrobin", "lmfa.cli"), None),
    ("agents.gateway.act", "act", ("lmfa.tourney.match",), _count_failures),
    ("agents.bots.decide", "decide", ("lmfa.agents.bots",), None),
    ("actions.parse", "parse", ("lmfa.agents.gateway", "lmfa.actions"), None),
    ("actions.resolve", "resolve", ("lmfa.tourney.match",), None),
    ("tourney.match.write_log", "write_log", ("lmfa.cli",), _count_write_bytes),
    ("tourney.match.read_log", "read_log", ("lmfa.cli",), None),
    ("reporting.verify_replay", "verify_replay", ("lmfa.cli",), None),
    ("tourney.roundrobin.run_round_robin", "run_round_robin", ("lmfa.cli",), None),
    ("tourney.roundrobin.result_from_logs", "result_from_logs", ("lmfa.cli",), None),
    ("tourney.roundrobin.aggregate", "aggregate", ("lmfa.tourney.roundrobin",), None),
    ("reporting.build_heatmap", "build_heatmap", ("lmfa.reporting",), None),
    ("reporting.write_reports", "write_reports", ("lmfa.cli",), None),
    ("observe.raster.render", "render", ("lmfa.tourney.match",), None),
    ("observe.raster.annotate", "annotate", ("lmfa.tourney.match",), None),
    ("observe.describe.encode_frame_base64", "encode_frame_base64", ("lmfa.tourney.match",), _count_b64_bytes),
    ("observe.describe.describe_state", "describe_state", ("lmfa.tourney.match",), _count_frames_sent),
    ("observe.window.sample_window_encoded", "sample_window_encoded", ("lmfa.tourney.match",), None),
    ("agents.remote.build_wire_request", "build_wire_request", ("lmfa.agents.remote",), None),
    ("agents.remote.query_remote", "query_remote", ("lmfa.agents.gateway",), None),
    ("actions.extract_command", "extract_command", ("lmfa.agents.gateway",), None),
)
POST_SPAN = "agents.remote.post"  # requests.post as seen from lmfa.agents.remote

SPAN_NAMES = tuple(name for name, *_ in LAYERS) + (POST_SPAN,)


class _RequestsProxy:
    """The ``requests`` module with a traced ``post``."""

    def __init__(self, post: Callable) -> None:
        self.post = post

    def __getattr__(self, name: str):
        return getattr(requests, name)


class Tracer:
    def __init__(self) -> None:
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Tuple[Dict[str, List[float]], Dict[str, int]]] = []

    def _thread_state(self) -> Tuple[list, Dict[str, List[float]], Dict[str, int]]:
        state = getattr(self._local, "state", None)
        if state is None:
            spans: Dict[str, List[float]] = {}
            counters: Dict[str, int] = {}
            state = self._local.state = ([], spans, counters)
            with self._lock:
                self._threads.append((spans, counters))
        return state

    def wrap(self, name: str, fn: Callable, after: After = None) -> Callable:
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack, spans, _ = self._thread_state()
            children = [0.0]
            stack.append(children)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals = spans.get(name)
                if totals is None:
                    totals = spans[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += children[0]
            if after is not None:
                after(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, n: int = 1) -> None:
        counters = self._thread_state()[2]
        counters[name] = counters.get(name, 0) + n

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run gate work inside a traced iteration without recording it."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        saved = []
        try:
            for name, attr, modules, after in LAYERS:
                for module_name in modules:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original, after))
            remote = importlib.import_module("lmfa.agents.remote")
            saved.append((remote, "requests", remote.requests))
            remote.requests = _RequestsProxy(self.wrap(POST_SPAN, requests.post, _count_post_bytes))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> Tuple[Dict[str, Tuple[int, float, float]], Dict[str, int]]:
        """Per span: (calls, total seconds, self seconds); plus the counters."""
        spans: Dict[str, List[float]] = {}
        counters: Dict[str, int] = {}
        with self._lock:
            threads = list(self._threads)
        for thread_spans, thread_counters in threads:
            for name, (calls, total, child) in thread_spans.items():
                acc = spans.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += child
            for name, n in thread_counters.items():
                counters[name] = counters.get(name, 0) + n
        return (
            {name: (int(c), t, t - ch) for name, (c, t, ch) in spans.items()},
            counters,
        )


@contextmanager
def _patched(module_name: str, attr: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def decision_ticks(sink: List[float]):
    """Append the wall time between successive P1 decisions of each match.

    Decisions are keyed by thread, so matches running side by side are timed
    separately; a decision at frame 0 starts a new match.
    """
    last: Dict[int, float] = {}
    perf = time.perf_counter

    def make(act):
        def timed(spec, obs, system_prompt):
            if obs.for_player.value == "P1":
                now = perf()
                key = threading.get_ident()
                if obs.frame and key in last:
                    sink.append(now - last[key])
                last[key] = now
            return act(spec, obs, system_prompt)

        return timed

    return _patched("lmfa.tourney.match", "act", make)


def match_ticks(sink: List[float]):
    """Append, for every decision tick of a match, the match's mean tick time.

    Used where matches run two at a time: a single tick's wall time then
    hinges on whether the interpreter lock changed hands inside it, while a
    match's mean tick does not. Weighting by ticks keeps a short match's
    fixed cost from counting as much as a long match.
    """
    perf = time.perf_counter

    def make(run_match):
        def timed(*args, **kwargs):
            t0 = perf()
            log = run_match(*args, **kwargs)
            ticks = max(len(log.decisions) // 2, 1)
            sink.extend([(perf() - t0) / ticks] * ticks)
            return log

        return timed

    return _patched("lmfa.tourney.roundrobin", "run_match", make)


def layer_metrics(tracer: Tracer, iterations: int) -> Dict[str, Tuple[float, str]]:
    """Per-iteration per-layer metrics: name -> (value, unit)."""
    spans, counters = tracer.totals()
    n = max(iterations, 1)
    out: Dict[str, Tuple[float, str]] = {}
    for name in SPAN_NAMES:
        calls, total, self_s = spans.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.self_ms"] = (self_s * 1000 / n, "ms")
    for name in (
        "tourney.match.write_log.bytes",
        "observe.describe.encode_frame_base64.bytes",
        "agents.remote.post.bytes",
    ):
        out[name] = (counters.get(name, 0) / n, "B")
    posts = spans.get(POST_SPAN, (0, 0.0, 0.0))[0]
    queries = spans.get("agents.remote.query_remote", (0, 0.0, 0.0))[0]
    out["agents.remote.attempts"] = (posts / n, "count")
    out["agents.remote.retries"] = ((posts - queries) / n, "count")
    for kind in FAILURE_KINDS:
        out[f"agents.remote.failures.{kind}"] = (
            counters.get(f"agents.remote.failures.{kind}", 0) / n,
            "count",
        )
    renders = spans.get("observe.raster.render", (0, 0.0, 0.0))[0]
    sent = counters.get("observe.frames_sent", 0)
    out["observe.frames_used_ratio"] = (sent / renders if renders else 0.0, "ratio")
    match_s = spans.get("tourney.match.run_match", (0, 0.0, 0.0))[1]
    rr_s = spans.get("tourney.roundrobin.run_round_robin", (0, 0.0, 0.0))[1]
    out["tourney.roundrobin.parallel_overlap"] = (match_s / rr_s if rr_s else 0.0, "ratio")
    return out
