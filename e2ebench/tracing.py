"""Span tracing from outside the program.

The benchmark times each layer by wrapping calls into its public
functions — no file of the program changes.  A :class:`Target` names one
function or method and the layer (span name) it belongs to.
:meth:`Tracer.install` replaces a method on its defining class, and a
module-level function at *every* module of the program (the ``repro``
package) that binds it (``from x import render`` copies the reference
into the importing module, so wrapping only the defining module would
let those calls escape the span).  :meth:`Tracer.uninstall` restores
every site.

Each span records its name, start, end, parent span (the enclosing span
on the same thread) and a request id, which is ``(session id, frame
index)``: a session-level target derives it from its arguments and
nested spans inherit it.  Spans are kept in memory; :meth:`Tracer.write`
dumps them once, at the end.

The wrappers only read the clock around the original call and pass
arguments and results through untouched, so traced and untraced runs
are bit-identical (the tests check it).
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import json
import sys
import threading
import time
import weakref
from typing import Callable, NamedTuple


@dataclasses.dataclass(frozen=True)
class Target:
    """One wrapped function.

    Attributes:
        layer: span name recorded for each call.
        owner: ``"package.module"`` for a module-level function, or
            ``"package.module:Class"`` for a method defined on ``Class``.
        attr: the function or method name.
        request: optional ``(tracer, args) -> request id`` for calls that
            start a request; other spans inherit their parent's id.
        count: optional ``(counter name, result -> number)`` adding a
            count taken from the call's return value.
    """

    layer: str
    owner: str
    attr: str
    request: Callable | None = None
    count: tuple[str, Callable] | None = None


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: tuple | None
    thread: int


@dataclasses.dataclass
class LayerTime:
    """Aggregate of one layer's spans (seconds)."""

    busy_s: float = 0.0  # outermost spans of the layer: wall time it was busy
    self_s: float = 0.0  # busy time not covered by child spans of other calls
    calls: int = 0  # outermost spans

    @property
    def child_coverage(self) -> float:
        """Share of the layer's busy time covered by its child spans."""
        return 0.0 if self.busy_s == 0 else 1.0 - self.self_s / self.busy_s


class Tracer:
    """Installs span-recording wrappers and aggregates their spans."""

    def __init__(self, targets) -> None:
        self.targets = tuple(targets)
        self.spans: list[Span | None] = []
        self.counts: collections.Counter = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        self._labels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # Request ids
    # ------------------------------------------------------------------
    def label(self, session, session_id: str) -> None:
        """Name ``session`` for the request ids of its frames."""
        self._labels[session] = session_id

    def session_request(self, session) -> tuple:
        return (self._labels.get(session, "session"), session.next_frame_index)

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._installed)

    def install(self) -> None:
        """Wrap every target at every site of the program that binds it."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        functions: dict[int, tuple[object, Callable]] = {}
        for target in self.targets:
            module_name, _, class_name = target.owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[target.attr]
                self._replace(cls, target.attr, original, self._wrap(target, original))
            else:
                original = getattr(module, target.attr)
                functions[id(original)] = (original, self._wrap(target, original))
        for module in self._program_modules():
            for attr, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(module, attr, value, hit[1])

    def uninstall(self) -> None:
        """Restore every replaced binding (idempotent)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    @staticmethod
    def _program_modules() -> list:
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]

    def _wrap(self, target: Target, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, inherited = stack[-1] if stack else (None, None)
            request = target.request(tracer, args) if target.request else inherited
            with tracer._lock:
                spans = tracer.spans
                index = len(spans)
                spans.append(None)
            stack.append((index, request))
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = Span(
                    target.layer, start, end, parent, request, threading.get_ident()
                )
            if target.count is not None:
                name, extract = target.count
                with tracer._lock:
                    tracer.counts[name] += extract(result)
            return result

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def snapshot(self) -> list[Span | None]:
        """The spans so far, indexed as their ``parent`` fields refer to
        them (``None`` for a span still open)."""
        with self._lock:
            return list(self.spans)

    def reset(self) -> None:
        """Drop all spans and counts (call while no traced call is open)."""
        with self._lock:
            self.spans = []
            self.counts = collections.Counter()

    def write(self, path) -> None:
        """Dump the spans as JSON (once, when the run ends)."""
        spans = [None if span is None else list(span) for span in self.snapshot()]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": list(Span._fields), "spans": spans}, handle)


def summarize(spans) -> dict[str, LayerTime]:
    """Per-layer busy time, self time and outermost call count.

    A span's self time is its duration minus the durations of its direct
    child spans.  A layer's busy time counts only its outermost spans, so
    a layer function calling another function of the same layer is not
    counted twice.  ``parent`` fields index into ``spans``; a span whose
    parent is missing (still open when the list was taken) counts as
    outermost.
    """
    by_index = {index: span for index, span in enumerate(spans) if span is not None}
    child_ns: collections.Counter = collections.Counter()
    for span in by_index.values():
        if span.parent is not None:
            child_ns[span.parent] += span.end_ns - span.start_ns
    layers: dict[str, LayerTime] = collections.defaultdict(LayerTime)
    for index, span in by_index.items():
        duration = span.end_ns - span.start_ns
        layer = layers[span.name]
        layer.self_s += (duration - child_ns[index]) * 1e-9
        ancestor = span.parent
        while ancestor is not None and ancestor in by_index:
            if by_index[ancestor].name == span.name:
                break
            ancestor = by_index[ancestor].parent
        else:
            layer.busy_s += duration * 1e-9
            layer.calls += 1
    return dict(layers)
