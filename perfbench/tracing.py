"""Span tracing around pournet's public functions, from outside the package.

A traced run wraps each function named in TARGETS and patches the wrapper
into every loaded ``pournet`` module that holds the original, so calls
between modules (``train`` -> ``network_forward``, ``score_testset`` ->
``fastdtw``) are recorded as well as the benchmark's own calls. Spans stay
in memory until the run ends; a span's self time is its duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    """One traced call: name, start, end (seconds), parent index, phase."""

    __slots__ = ("name", "start", "end", "parent", "phase")

    def __init__(self, name, start, end, parent, phase):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.phase = phase

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Collects spans and per-name counters; ``phase`` tags what follows."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(float)  # (phase, key) -> value
        self.phase = "setup"
        self._stack = []

    def wrap(self, name, fn, count=None):
        """Return fn wrapped so that each call records one span.

        name is the span name, or a callable (args, kwargs) -> name;
        count(args, kwargs, result) returns counter increments for a call.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name(args, kwargs) if callable(name) else name,
                        self.clock(), None,
                        self._stack[-1] if self._stack else None, self.phase)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counters[(span.phase, key)] += value
            return result
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans):
    """Self time of every span, in the order given.

    Child intervals are clipped to their parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(idx)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted((spans[c].start, spans[c].end)
                             for c in children[idx]):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def summarize(spans, phase):
    """Per span name: (summed self time, call count) over one phase."""
    totals = defaultdict(lambda: [0.0, 0])
    for span, own in zip(spans, self_times(spans)):
        if span.phase == phase:
            totals[span.name][0] += own
            totals[span.name][1] += 1
    return totals


def _forward_name(args, kwargs):
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "eval")
    return f"network.forward_{mode}"


def _batch_steps(args, kwargs, batch):
    return {"data.real_steps": float(batch.lengths.sum()),
            "data.padded_steps": float(batch.num_steps * batch.batch_size)}


def _dtw_cells(args, kwargs, result):
    a = kwargs.get("a", args[0] if args else None)
    b = kwargs.get("b", args[1] if len(args) > 1 else None)
    return {"dtw.exact_cells": float(len(a) * len(b))}


# (module, function, span name or naming callable, counter); a span name of None
# means "<last module component>.<function>".
TARGETS = (
    ("pournet.network", "network_forward", _forward_name, None),
    ("pournet.network", "network_backward", "network.backward", None),
    ("pournet.network", "save_checkpoint", None, None),
    ("pournet.network", "load_checkpoint", None, None),
    ("pournet.optim", "adam_step", None, None),
    ("pournet.optim", "mse_loss", None, None),
    ("pournet.data", "pad_and_batch", None, _batch_steps),
    ("pournet.data", "load_dataset", None, None),
    ("pournet.training", "train", None, None),
    ("pournet.training", "predict", None, None),
    ("pournet.training", "export_prediction", None, None),
    ("pournet.dtw", "fastdtw", None, None),
    ("pournet.dtw", "dtw_exact", None, _dtw_cells),
    ("pournet.dtw", "score_testset", None, None),
    ("pournet.dtw", "export_alignment", None, None),
    ("pournet.cli", "run", None, None),
    ("pournet.synth", "generate_dataset", None, None),
)


@contextmanager
def traced(tracer):
    """Patch a traced wrapper over every reference to each of TARGETS.

    Every loaded ``pournet`` module that holds the original function under
    any name gets the wrapper, and all of them are restored on exit.
    """
    patches = []
    for module_name, func_name, name, count in TARGETS:
        orig = getattr(importlib.import_module(module_name), func_name)
        if name is None:
            name = f"{module_name.rsplit('.', 1)[-1]}.{func_name}"
        wrapper = tracer.wrap(name, orig, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pournet"
                                   or mod_name.startswith("pournet.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    patches.append((mod, key, orig, wrapper))
    for mod, key, _, wrapper in patches:
        setattr(mod, key, wrapper)
    try:
        yield tracer
    finally:
        for mod, key, orig, _ in reversed(patches):
            setattr(mod, key, orig)
