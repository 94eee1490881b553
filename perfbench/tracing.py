"""Spans and counts at the public boundary of each sdcodes module.

The program is not edited.  `Tracer.install` replaces the public functions
and methods of the six layers with timing wrappers, in every sdcodes module
that holds a reference to them, and `Tracer.restore` puts the originals back.

Each wrapped call records its inclusive time, its self time (inclusive time
minus the inclusive time of wrapped calls made inside it) and a call count.
Calls outside gf2 also become spans (name, start, end, parent span, op id)
kept in memory and written out once the run ends.  gf2 is entered about 10^5
times per op, so its calls are timed and counted but not kept as spans.
"""

from __future__ import annotations

import enum
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("gf2", "code", "neighborhood", "equivalence", "fixtures_io", "cli")
AGGREGATE_ONLY = ("gf2",)
# Dunder methods that do work worth timing; the rest (hash, eq, iter, len)
# are container plumbing and are left alone.
TIMED_DUNDERS = ("__init__", "__xor__", "__add__", "__and__")
# Exhaustive sweeps: each call walks 2^k codewords of the code it is called on.
SWEEPS = ("minimum_distance", "weight_enumerator", "codewords")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.words: Counter = Counter()
        self.op = -1
        self._stack: list = []
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, record: bool, sweep: str | None = None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        calls, total, self_time, words = self.calls, self.total, self.self_time, self.words

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            sid = parent
            if record:
                sid = len(spans)
                spans.append(None)
            if sweep is not None:
                span_words = 1 << args[0].k
                words["sweep"] += span_words
                if sweep == "codewords":
                    words["listed"] += span_words
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[0]
                if record:
                    spans[sid] = (name, start, end, parent, self.op)

        return functools.wraps(fn)(wrapper)

    def _wrap_generator(self, name: str, fn, record: bool):
        """Each resumption of the generator is one span of `name`."""
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            step = tracer._wrap(name, inner.__next__, record)
            try:
                while True:
                    try:
                        value = step()
                    except StopIteration:
                        return
                    yield value
            finally:
                inner.close()

        return functools.wraps(fn)(wrapper)

    def _wrapped(self, name: str, fn, record: bool, sweep: str | None = None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, record)
        return self._wrap(name, fn, record, sweep)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the six layers."""
        package = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "sdcodes" or name.startswith("sdcodes.")
        }
        functions = []
        for layer in LAYERS:
            mod = package[f"sdcodes.{layer}"]
            record = layer not in AGGREGATE_ONLY
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions.append((obj, self._wrapped(f"{layer}.{attr}", obj, record)))
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    self._install_class(layer, obj, record)
        # a function imported elsewhere is replaced in every namespace holding it
        for original, wrapper in functions:
            for mod in package.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def _install_class(self, layer: str, cls: type, record: bool) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TIMED_DUNDERS:
                continue
            binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if binder else raw
            if not inspect.isfunction(fn):
                continue
            sweep = attr if layer == "code" and attr in SWEEPS else None
            wrapper = self._wrapped(f"{layer}.{cls.__name__}.{attr}", fn, record, sweep)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, binder(wrapper) if binder else wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def layer_self_ms(self, layer: str) -> float:
        return 1000 * sum(t for name, t in self.self_time.items() if name.startswith(layer + "."))

    def write_spans(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "names": names,
                    "spans": [
                        [index[name], round(start, 7), round(end, 7), parent, op]
                        for name, start, end, parent, op in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )
