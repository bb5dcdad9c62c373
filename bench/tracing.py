"""Per-layer timing taken from outside the library.

``Tracer.active`` replaces every public function of the layer modules
with a wrapper in every module namespace that binds it, so calls made
inside the library (``bandform.gl_form`` -> ``bandform.linking_number``)
are caught as well as the benchmark's own calls. Each call becomes a span
(name, start, end, parent, item) kept in memory; self time is a span's
duration minus the time its child spans cover. Nothing inside
``src/knotbands`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import time
from collections import defaultdict

import knotbands
from knotbands import algebra, bandform, cli, diagram, invariants, obstruct, presets

# the package modules that are layers; presets only loads data at import
LAYERS = (bandform, diagram, algebra, invariants, obstruct, cli)
NAMESPACES = LAYERS + (knotbands, presets)


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# counts recorded at a boundary: qualified name -> (counter, how, measure)
COUNTERS = {
    "diagram.linking_number": (
        "crossings_scanned", "sum", lambda a, k, r: len(_first(a, k).crossings)
    ),
    "bandform.compile_curves": ("crossings", "sum", lambda a, k, r: len(r.diagram.crossings)),
    "algebra.inertia": ("max_dim", "max", lambda a, k, r: len(_first(a, k))),
    "algebra.det_laurent": ("max_dim", "max", lambda a, k, r: len(_first(a, k))),
}

ITEM = "item"


class Tracer:
    """Spans of one traced run. The wrappers are made once; ``active()``
    puts them in place for the duration of a ``with`` block."""

    def __init__(self):
        self.names: list[str] = [ITEM]
        self.spans: list = []  # (name index, start ns, end ns, parent index, item)
        self.stack: list[int] = []
        self.item = -1
        self.counters: dict[str, int] = defaultdict(int)
        wrapped = {}
        for mod in LAYERS:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        # (namespace, attribute, original, wrapper) for every binding
        self._bindings = [
            (ns, attr, obj, wrapped[obj])
            for ns in NAMESPACES
            for attr, obj in vars(ns).items()
            if inspect.isfunction(obj) and obj in wrapped
        ]

    def _wrap(self, qualname: str, fn):
        name_idx = len(self.names)
        self.names.append(qualname)
        counted = COUNTERS.get(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_idx, start, end, parent, self.item)
            if counted is not None:
                counter, how, measure = counted
                key = f"{qualname}.{counter}"
                value = measure(args, kwargs, result)
                if how == "sum":
                    self.counters[key] += value
                else:
                    self.counters[key] = max(self.counters[key], value)
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        for ns, attr, _, wrapper in self._bindings:
            setattr(ns, attr, wrapper)
        try:
            yield self
        finally:
            for ns, attr, original, _ in self._bindings:
                setattr(ns, attr, original)

    @contextlib.contextmanager
    def item_span(self, item: int):
        """The root span of one benchmark item."""
        self.item = item
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[idx] = (0, start, end, -1, item)

    def self_times(self) -> list[int]:
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[k] for k, (_, start, end, _, _) in enumerate(self.spans)]

    def metrics(self, names, items: int, extra: dict) -> dict:
        """The named per-layer metrics, averaged over the traced items:
        ``<layer>.<function>.calls_per_item``, ``.self_ms_per_item``,
        ``.<counter>_per_item`` and ``.max_dim``, and ``<layer>.self_share``
        of the time inside items. ``extra`` supplies the values that the
        benchmark measures itself."""
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        layer_ns: dict[str, int] = defaultdict(int)
        item_ns = 0
        for (name_idx, start, end, _, _), own in zip(self.spans, self.self_times()):
            name = self.names[name_idx]
            if name == ITEM:
                item_ns += end - start
                continue
            calls[name] += 1
            self_ns[name] += own
            layer_ns[name.split(".")[0]] += own
        values = {}
        for metric in names:
            qual, _, kind = metric.rpartition(".")
            if metric in extra:
                values[metric] = extra[metric]
            elif kind == "calls_per_item":
                values[metric] = calls[qual] / items
            elif kind == "self_ms_per_item":
                values[metric] = self_ns[qual] / 1e6 / items
            elif kind == "self_share":
                values[metric] = layer_ns[qual] / item_ns if item_ns else 0.0
            elif kind.endswith("_per_item"):
                values[metric] = self.counters[f"{qual}.{kind[: -len('_per_item')]}"] / items
            else:
                values[metric] = self.counters[metric]
        return values

    def write(self, path) -> None:
        """All spans as gzipped JSON, times in ns from the first span."""
        t0 = min((s[1] for s in self.spans), default=0)
        data = {
            "fields": ["name", "start_ns", "end_ns", "parent", "item"],
            "names": self.names,
            "spans": [[n, s - t0, e - t0, p, i] for n, s, e, p, i in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh, separators=(",", ":"))

