"""Per-layer tracing from outside the package.

install() replaces the public functions and methods of every pqtouchard
module with timing wrappers, including the copies that other modules hold
through `from ... import` and module-level dicts.  Nothing in the package
changes on disk and nothing is installed in an untraced pass.

Each wrapped call pushes a frame; on return its duration counts as child
time of the frame below, so a key's self time excludes everything it
called through another wrapper.  Calls at layer granularity also leave a
span (name, start, end, parent span, op id).  Per-object calls (partition
objects, nsb/nse, polynomial arithmetic, table lookups, permutation scans,
stream steps) are only counted and timed in aggregate, so memory stays
bounded however many objects a pass makes.
"""

from __future__ import annotations

import importlib
import inspect
import math
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("tables", "poly", "series", "partitions", "permstats", "touchard", "cli")

# metric names for the keys the benchmark reports by name; every other
# wrapped callable is keyed "<layer>.<qualified name>"
KEYS = {
    "MultiPoly.__init__": "poly.construct",
    "MultiPoly.__mul__": "poly.mul",
    "MultiPoly.__add__": "poly.add",
    "MultiPoly.substitute": "poly.substitute",
    "MultiPoly.evaluate": "poly.evaluate",
    "touchard_poly": "touchard.poly",
    "s_pq": "touchard.s_pq",
    "touchard_eval": "touchard.eval",
    "taylor_oracle": "touchard.oracle",
    "egf_compose": "series.compose",
    "ogf_mul": "series.ogf",
    "ogf_binomial_power": "series.ogf",
    "OrderedPartition.__init__": "partitions.construct",
    "nsb": "partitions.stats",
    "nse": "partitions.stats",
    "enumerate_partitions": "partitions.enumerate",
    "dist_poly": "partitions.dist",
    "count_partitions": "partitions.count",
    "nse_distribution": "permstats.distribution",
    "ltr_max_distribution": "permstats.distribution",
    "main": "cli.main",
}

# keys that get a span; everything else is per-object and aggregated
SPANNED_LAYERS = {"series", "touchard", "cli"}
SPANNED_KEYS = {
    "poly.substitute", "poly.evaluate", "partitions.dist", "partitions.count",
    "permstats.distribution",
}

# dunder methods worth wrapping; the rest (repr, hash, len...) are bookkeeping
ARITHMETIC = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__neg__", "__pow__", "__eq__",
}

SPAN_CAP = 100_000


class Tracer:
    """Frames, aggregates and spans of one traced pass."""

    def __init__(self):
        self.enabled = False
        # frames: [key, layer, child seconds, span of children, own span]
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.entries: dict[str, int] = defaultdict(int)  # calls from another layer
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list = []
        self.dropped_spans = 0
        self.op = -1
        self._root_start = 0.0

    # -- the root frame of one operation --------------------------------------

    def begin(self, op: int):
        self.op = op
        span = self._open_span()
        self.stack = [["bench.op", "bench", 0.0, span, span]]
        self.enabled = True
        self._root_start = perf_counter()

    def end(self):
        end = perf_counter()
        self.enabled = False
        frame = self.stack.pop()
        self._close_span(frame[4], "bench.op", self._root_start, end, None)
        self.self_s["bench.op"] += end - self._root_start - frame[2]

    # -- spans -----------------------------------------------------------------

    def _open_span(self) -> int | None:
        if len(self.spans) >= SPAN_CAP:
            self.dropped_spans += 1
            return None
        self.spans.append(None)
        return len(self.spans) - 1

    def _close_span(self, index, key, start, end, parent):
        if index is not None:
            self.spans[index] = (key, start, end, parent, self.op)

    # -- wrapped calls ---------------------------------------------------------

    def enter(self, key: str, layer: str, spanned: bool) -> list:
        parent = self.stack[-1]
        if parent[1] != layer:
            self.entries[layer] += 1
        span = self._open_span() if spanned else None
        frame = [key, layer, 0.0, parent[3] if span is None else span, span]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, start: float, end: float):
        self.stack.pop()
        duration = end - start
        key = frame[0]
        self.calls[key] += 1
        self.self_s[key] += duration - frame[2]
        parent = self.stack[-1]
        parent[2] += duration
        if frame[4] is not None:
            self._close_span(frame[4], key, start, end, parent[3])

    def inside(self, key: str) -> bool:
        return any(frame[0] == key for frame in self.stack)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "entries": dict(self.entries),
            "counters": dict(self.counters),
            "spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                if span is not None:
                    key, start, end, parent, op = span
                    out.write(
                        f'{{"id": {index}, "name": "{key}", "start": {start!r}, '
                        f'"end": {end!r}, "parent": {"null" if parent is None else parent}, '
                        f'"op": {op}}}\n'
                    )


def _wrap(tracer: Tracer, fn, key: str, layer: str, after=None):
    spanned = layer in SPANNED_LAYERS or key in SPANNED_KEYS

    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        frame = tracer.enter(key, layer, spanned)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(frame, start, perf_counter())
        if after is not None:
            after(result, args)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", key)
    return traced


_DONE = object()


def _stream(tracer: Tracer, stream, useful: bool):
    """Time each step of a partition stream as partitions.enumerate."""
    counters = tracer.counters
    while True:
        if not tracer.enabled:
            item = next(stream, _DONE)
        else:
            frame = tracer.enter("partitions.enumerate", "partitions", False)
            start = perf_counter()
            try:
                item = next(stream, _DONE)
            finally:
                end = perf_counter()
                tracer.leave(frame, start, end)
            counters["partitions.enumerate.inclusive_s"] += end - start
        if item is _DONE:
            return
        counters["partitions.yielded"] += 1
        if useful:
            counters["partitions.objects"] += 1
        yield item


def _hooks(tracer: Tracer) -> dict:
    """Counters computed from arguments and results of some wrapped calls."""
    counters = tracer.counters

    def terms_built(_result, args):
        terms = len(getattr(args[0], "terms", ()))
        counters["poly.terms_built"] += terms
        counters["poly.max_terms"] = max(counters["poly.max_terms"], terms)

    def permutations_scanned(_result, args):
        counters["permstats.words"] += math.factorial(args[0])

    def one_word(_result, args):
        if tracer.stack[-1][1] != "permstats":
            counters["permstats.words"] += 1

    return {
        "poly.construct": terms_built,
        "permstats.distribution": permutations_scanned,
        "permstats.check_permutation": one_word,
        "permstats.decompose": one_word,
        "permstats.nse_perm": one_word,
        "permstats.ltr_max_count": one_word,
    }


def _enumerate_wrapper(tracer: Tracer, fn):
    wrapped = _wrap(tracer, fn, "partitions.enumerate", "partitions")

    def traced(*args, **kwargs):
        stream = wrapped(*args, **kwargs)
        if not tracer.enabled:
            return stream
        # the self-check inside count_partitions never reaches a caller
        return _stream(tracer, stream, useful=not tracer.inside("partitions.count"))

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer, package) -> dict:
    """Wrap every public callable of the package's layers; return the originals."""
    modules = {
        layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
    }
    hooks = _hooks(tracer)
    replaced: dict[int, object] = {}
    originals = {}

    def key_for(layer, qualname):
        return KEYS.get(qualname, f"{layer}.{qualname}")

    for layer, module in modules.items():
        for name, value in list(vars(module).items()):
            if name.startswith("_"):
                continue
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    if attr.startswith("_") and attr not in ARITHMETIC:
                        continue
                    method = member.__func__ if isinstance(member, classmethod) else member
                    if not isinstance(method, types.FunctionType):
                        continue
                    key = key_for(layer, f"{name}.{attr}")
                    traced = replaced.get(id(method)) or _wrap(
                        tracer, method, key, layer, hooks.get(key)
                    )
                    replaced[id(method)] = traced
                    if isinstance(member, classmethod):
                        traced = classmethod(traced)
                    setattr(value, attr, traced)
            elif callable(value) and getattr(value, "__module__", None) == module.__name__:
                key = key_for(layer, name)
                if key == "partitions.enumerate":
                    traced = _enumerate_wrapper(tracer, value)
                else:
                    traced = _wrap(tracer, value, key, layer, hooks.get(key))
                replaced[id(value)] = traced
                originals[key] = value

    # rebind every other reference: `from x import f` copies and dict values
    for module in [package, *modules.values()]:
        for name, value in list(vars(module).items()):
            if id(value) in replaced and callable(value):
                setattr(module, name, replaced[id(value)])
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if callable(v) and id(v) in replaced:
                        value[k] = replaced[id(v)]
    return originals
