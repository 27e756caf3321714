"""Span tracing from outside the program, and the per-layer metrics it yields.

The traced run wraps public functions of each layer (the table
:data:`LAYERS`) with a timer; nothing under ``src/`` changes.  Each call
records a span: name, start, end, the span that caused it (the innermost
traced call on the same thread) and a request id shared by every span under
one outermost call.  Spans stay in memory and are written out when the
process ends.

Clocks are ``time.monotonic`` (``CLOCK_MONOTONIC`` on Linux), which is one
clock for every process on the machine, so spans written by the server can
be cut at instants the client took.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple, Sequence

import measure

#: ``(layer, module, attribute)`` for every wrapped function.  README.md says
#: which end-to-end metric each layer should move, and on which workload.
LAYERS = (
    ("api.experiment.simulate", "repro.api.experiment", "Experiment.simulate"),
    ("sim.propensity.compile", "repro.sim.propensity", "CompiledNetwork.compile"),
    ("sim.ensemble.run_chunks", "repro.sim.ensemble", "ParallelEnsembleRunner.run_chunks"),
    ("sim.ensemble.merge", "repro.sim.ensemble", "EnsembleResult.merge"),
    ("sim.batch.run_batch", "repro.sim.batch", "BatchDirectEngine.run_batch"),
    ("sim.batch.trajectory", "repro.sim.batch", "BatchResult.trajectory"),
    ("sim.direct.run", "repro.sim.direct", "DirectMethodSimulator.run"),
    ("sim.rng.spawn_children_range", "repro.sim.rng", "spawn_children_range"),
    ("crn.state.to_vector", "repro.crn.state", "State.to_vector"),
    (
        "core.synthesizer.classify_outcome",
        "repro.core.synthesizer",
        "SynthesizedSystem.classify_outcome",
    ),
    ("store.canonical.canonicalize_payload", "repro.store.canonical", "canonicalize_payload"),
    ("crn.canonical.canonical_form", "repro.crn.canonical", "canonical_form"),
    ("store.canonical.localize_envelope", "repro.store.canonical", "localize_envelope"),
    ("store.store.get_envelope", "repro.store.store", "ResultStore.get_envelope"),
    ("store.store.put", "repro.store.store", "ResultStore.put"),
    ("store.serialize.compute_payload", "repro.store.serialize", "compute_payload"),
    ("store.serialize.experiment_to_payload", "repro.store.serialize", "experiment_to_payload"),
    ("api.results.from_payload", "repro.api.results", "RunResult.from_payload"),
    ("service.server.simulate", "repro.service.server", "ResultService.simulate"),
    ("service.client.simulate_entry", "repro.client", "ServiceClient.simulate_entry"),
)

LAYER_NAMES = tuple(name for name, _, _ in LAYERS)

#: Per-layer metric suffixes and their units.
LAYER_FIELDS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("share", "ratio"))


class Span(NamedTuple):
    id: int
    parent: "int | None"
    request: int
    name: str
    start: float
    end: float


class Tracer:
    """Collects spans from wrapped functions, on any number of threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                span_id = next(self._ids)
            parent = stack[-1] if stack else None
            request = parent[1] if parent is not None else span_id
            stack.append((span_id, request))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = Span(
                    span_id, None if parent is None else parent[0], request, name, start, end
                )
                with self._lock:
                    self.spans.append(span)

        return traced

    def install(self, layers: Iterable[tuple[str, str, str]] = LAYERS) -> None:
        """Wrap every layer function in place (imports the modules it names)."""
        for name, module_name, attribute in layers:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                static = inspect.getattr_static(owner, leaf)
                if isinstance(static, classmethod):
                    setattr(owner, leaf, classmethod(self.wrap(name, static.__func__)))
                else:
                    setattr(owner, leaf, self.wrap(name, getattr(owner, leaf)))
            else:
                original = getattr(module, leaf)
                traced = self.wrap(name, original)
                # ``from module import fn`` copied the function into other
                # modules; rebind those names too.
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") and (
                        getattr(loaded, leaf, None) is original
                    ):
                        setattr(loaded, leaf, traced)

    def dump(self, path: str) -> None:
        """Write the spans recorded so far as a JSON list of rows."""
        with self._lock:
            rows = [list(span) for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


def load_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(*row) for row in json.load(handle)]


def within(spans: Iterable[Span], start: float, end: float) -> list[Span]:
    """The spans that started at or after ``start`` and ended by ``end``."""
    return [span for span in spans if span.start >= start and span.end <= end]


def layer_metrics(span_sets: Sequence[Sequence[Span]], root: str) -> dict[str, float]:
    """``<layer>.{calls,busy_s,self_s,share}`` for every name in :data:`LAYERS`.

    Each set holds one process's spans.  ``calls`` counts spans; ``busy_s``
    sums the durations of spans not nested in a span of the same name;
    ``self_s`` sums each span's duration minus what its children cover;
    ``share`` is ``busy_s`` over the ``busy_s`` of ``root``, the layer that
    times the user's operation on this workload.
    """
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for spans in span_sets:
        by_id = {span.id: span for span in spans}
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        for span in spans:
            calls[span.name] += 1
            own[span.name] += measure.self_time(span.start, span.end, children[span.id])
            ancestor = by_id.get(span.parent)
            while ancestor is not None and ancestor.name != span.name:
                ancestor = by_id.get(ancestor.parent)
            if ancestor is None:
                busy[span.name] += span.end - span.start
    metrics: dict[str, float] = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.busy_s"] = busy[name]
        metrics[f"{name}.self_s"] = own[name]
        metrics[f"{name}.share"] = measure.share(busy[name], busy[root])
    return metrics
