"""In-memory span tracer for the traced benchmark run.

The package's modules bind each other's functions with ``from .x import``,
so a function is traced only if every module that holds a reference to it is
rebound.  ``Tracer.install`` wraps the public functions of each layer module
and rebinds every such reference across the package, plus scipy's
``minimize`` inside ``qmonogamy.convex_roof`` (the polish step) and a
counter on ``DensityMatrix.__post_init__`` (one eigvalsh validation each).

A span records its name, layer, the op it belongs to, start, end and parent.
Its self time is its duration minus the time of descendant spans in other
layers, so a layer's self time is the time during which that layer is the
innermost one running.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("states", "concurrence", "monogamy", "convex_roof", "statefile", "cases", "cli")
VALIDATIONS = "states.DensityMatrix.validations"

# span fields
NAME, LAYER, OP, PARENT, START, END, FOREIGN = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = -1
        self._restore = []

    def _wrap(self, name: str, layer: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, layer, self.op, parent, clock(), 0.0, 0.0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if parent >= 0:
                    up = spans[parent]
                    # time in another layer is foreign to the parent; a
                    # same-layer child passes on only its own foreign time
                    up[FOREIGN] += span[END] - span[START] if up[LAYER] != layer else span[FOREIGN]

        return traced

    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every public function of the layer modules and rebind all references to it."""
        modules = {layer: importlib.import_module(f"qmonogamy.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", layer, obj)
        for module in [importlib.import_module("qmonogamy"), *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(module, attr, wrapped[obj])

        roof = modules["convex_roof"]
        self._rebind(roof, "minimize", self._wrap("convex_roof.polish", "convex_roof", roof.minimize))

        dm_class = modules["states"].DensityMatrix
        validate = dm_class.__post_init__
        counts = self.counts

        def counted(dm):
            counts[VALIDATIONS] += 1
            validate(dm)

        self._rebind(dm_class, "__post_init__", counted)

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def summary(self):
        """Calls and self time per span name, self time per layer and per (op, layer), calls per (op, name)."""
        calls, self_s = Counter(), defaultdict(float)
        layer_s, op_layer_s = defaultdict(float), defaultdict(float)
        op_calls = Counter()
        for span in self.spans:
            own = span[END] - span[START] - span[FOREIGN]
            calls[span[NAME]] += 1
            self_s[span[NAME]] += own
            op_calls[span[OP], span[NAME]] += 1
            parent = span[PARENT]
            if parent < 0 or self.spans[parent][LAYER] != span[LAYER]:
                layer_s[span[LAYER]] += own
                op_layer_s[span[OP], span[LAYER]] += own
        return calls, self_s, layer_s, op_layer_s, op_calls

    def write(self, path):
        """Write the spans as JSON lines: name, layer, op, parent, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:FOREIGN]) + "\n")
