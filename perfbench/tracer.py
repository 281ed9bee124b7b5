"""In-memory span tracing applied from outside the engine.

The engine has no tracing of its own yet, so the benchmark records spans
around the calls into each layer: :meth:`Tracer.wrap` replaces a bound
method on one object with a timing wrapper stored as an instance
attribute.  That works because the pipelines look these methods up on
their component objects at call time (see the workload definitions for
which lookups are per call).  Nothing in ``src/`` is modified, and an
object that is not wrapped runs exactly the code an untraced run does.

A span is ``(layer, start_ns, end_ns, parent, request)``: ``parent`` is
the index of the enclosing span (``-1`` for a call span issued by the
benchmark's replay loop) and ``request`` is the index of the replay-loop
call the span belongs to.  Spans stay in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, int, int, int, int]


class Tracer:
    """Collects spans and per-layer counters for one traced replay."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}
        self.request = -1
        self._stack: List[int] = []
        self._roots: set = set()

    def wrap(
        self,
        obj: object,
        method: str,
        layer: str,
        count: Optional[Callable[[object], Tuple[str, float]]] = None,
        after: Optional[Callable[[], Tuple[str, float]]] = None,
        root: bool = False,
    ) -> None:
        """Time every call of ``obj.method`` as a span of ``layer``.

        ``count(result)`` returns a ``(counter, amount)`` pair added to
        :attr:`counters`; ``after()`` returns a ``(gauge, value)`` pair
        whose maximum is kept in :attr:`maxima`.  A ``root`` wrapper
        marks a replay-loop call: it starts a new request.
        """
        original = getattr(obj, method)
        if root:
            self._roots.add(layer)
        spans = self.spans
        stack = self._stack
        counters = self.counters
        maxima = self.maxima

        def traced(*args, **kwargs):
            if root:
                self.request += 1
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((layer, 0, 0, parent, self.request))
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.request)
            if count is not None:
                name, amount = count(result)
                counters[name] = counters.get(name, 0) + amount
            if after is not None:
                name, value = after()
                if name not in maxima or value > maxima[name]:
                    maxima[name] = value
            return result

        setattr(obj, method, traced)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def busy_s(self) -> Dict[str, float]:
        """Total (inclusive) span seconds per layer."""
        totals: Dict[str, int] = {}
        for layer, start, end, _parent, _request in self.spans:
            totals[layer] = totals.get(layer, 0) + end - start
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def self_s(self) -> Dict[str, float]:
        """Self seconds per layer: span time not covered by child spans."""
        own = [end - start for _layer, start, end, _parent, _request in self.spans]
        for _layer, start, end, parent, _request in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: Dict[str, int] = {}
        for (layer, _start, _end, _parent, _request), ns in zip(self.spans, own):
            totals[layer] = totals.get(layer, 0) + ns
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def root_s(self) -> float:
        """Summed duration of the replay loop's call spans."""
        return sum(
            end - start
            for layer, start, end, _parent, _request in self.spans
            if layer in self._roots
        ) / 1e9

    def accounted_s(self) -> float:
        """Busy time of the layers plus the self time of the call spans.

        Equals :meth:`root_s` exactly when every layer span sits directly
        under a call span: no layer is counted twice or outside a call.
        """
        busy = self.busy_s()
        own = self.self_s()
        return sum(
            own[layer] if layer in self._roots else seconds
            for layer, seconds in busy.items()
        )

    def span_count(self, layer: str) -> int:
        return sum(1 for span in self.spans if span[0] == layer)

    def span_max_s(self, layer: str) -> float:
        return max(
            ((end - start) for name, start, end, _p, _r in self.spans if name == layer),
            default=0,
        ) / 1e9

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans as JSON: layer names once, spans as index rows."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [
            [index[layer], start, end, parent, request]
            for layer, start, end, parent, request in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "meta": meta,
                    "columns": ["layer", "start_ns", "end_ns", "parent", "request"],
                    "layers": names,
                    "spans": rows,
                },
                handle,
            )
