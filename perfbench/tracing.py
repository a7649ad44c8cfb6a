"""In-memory span tracer for the benchmark's traced runs.

A span is ``[name, start_ns, end_ns, parent]``, where ``parent`` is the
index of the enclosing span (``-1`` for a root).  Spans come from two
places: the benchmark's own :meth:`Tracer.span` blocks around each call it
makes into a layer, and wrappers that :func:`wrapped` installs on a few
library methods for the traced run only and removes afterwards.  Spans stay
in memory until :meth:`Tracer.dump` writes them out at the end of the run.

Untraced runs use :data:`NULL_TRACER`, whose ``span`` costs one method call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from typing import Dict, Iterable, List, Sequence, Tuple

#: (span name, module, class, attribute) of every wrapped library method.
WRAPPED: Tuple[Tuple[str, str, str, str], ...] = (
    ("graphs.subgraph", "repro.graphs.digraph", "WeightedDiGraph", "subgraph"),
    ("graphs.subgraph", "repro.graphs.graph", "Graph", "subgraph"),
    ("congest.network", "repro.congest.network", "CongestNetwork", "__init__"),
    ("congest.run", "repro.congest.network", "CongestNetwork", "run"),
    ("labeling.pack", "repro.labeling.packed", "PackedLabeling", "from_labeling"),
)


class Tracer:
    """Collects spans and per-wrapper call counts."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.calls: Dict[str, int] = {}
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"calls": self.calls, "spans": self.spans}, fh)


class _NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = _NullTracer()


def _wrap(tracer: Tracer, span_name: str, key: str, func):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        tracer.calls[key] = tracer.calls.get(key, 0) + 1
        with tracer.span(span_name):
            return func(*args, **kwargs)

    return traced


@contextlib.contextmanager
def wrapped(tracer: Tracer):
    """Install the span wrappers on their classes; restore them on exit.

    Every wrapper starts with a zero call count, so a wrapper whose method
    the run never reached shows up in :func:`missing_wrappers`.
    """
    originals = []
    try:
        for span_name, module, cls_name, attr in WRAPPED:
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[attr]
            key = f"{cls_name}.{attr}"
            tracer.calls.setdefault(key, 0)
            if isinstance(raw, classmethod):
                patched = classmethod(_wrap(tracer, span_name, key, raw.__func__))
            else:
                patched = _wrap(tracer, span_name, key, raw)
            originals.append((cls, attr, raw))
            setattr(cls, attr, patched)
        yield tracer
    finally:
        for cls, attr, raw in reversed(originals):
            setattr(cls, attr, raw)


def missing_wrappers(tracer: Tracer, expected: Iterable[str]) -> List[str]:
    """Expected wrappers that saw zero calls: a broken trace, never 0 s."""
    return sorted(key for key in expected if tracer.calls.get(key, 0) == 0)


def summarize(spans: Sequence[list]) -> Dict[str, List[Dict[str, List[int]]]]:
    """Per root span, ``{layer: [total_ns, self_ns, calls]}``, by root name.

    A layer's total counts only spans not nested in a span of the same name;
    its self time is each span's duration minus that of its direct children.
    """
    child_ns = [0] * len(spans)
    root = [0] * len(spans)
    for i, (_name, start, end, parent) in enumerate(spans):
        if parent < 0:
            root[i] = i
        else:
            root[i] = root[parent]
            child_ns[parent] += end - start
    per_root: Dict[int, Dict[str, List[int]]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        agg = per_root.setdefault(root[i], {}).setdefault(name, [0, 0, 0])
        if parent < 0 or spans[parent][0] != name:
            agg[0] += end - start
        agg[1] += end - start - child_ns[i]
        agg[2] += 1
    by_kind: Dict[str, List[Dict[str, List[int]]]] = {}
    for r, layers in per_root.items():
        by_kind.setdefault(spans[r][0], []).append(layers)
    return by_kind


def layer_median(summary, layer: str, field: int = 0) -> float:
    """Median over op roots of a layer's total (field 0), self time (1) or
    call count (2); over set-up roots when the ops never reach the layer."""
    for kind in ("op", "setup"):
        roots = summary.get(kind, [])
        if any(layer in r for r in roots):
            return float(statistics.median(r.get(layer, [0, 0, 0])[field] for r in roots))
    return 0.0
