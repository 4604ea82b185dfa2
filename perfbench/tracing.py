"""Outside-in tracing of the stokesdd modules.

`Tracer.install()` replaces each public function listed in `WRAPPED` with a
wrapper that records a span (name, parent span, start, end), wherever a
stokesdd module holds a reference to it, so calls made through
``from .channel import apply_jones`` are seen too. `uninstall()` puts the
originals back. The program's own files are not touched.

A layer's busy time counts only its outermost spans (a layer span nested in
another span of the same layer is not counted twice); its self time is the
busy time of its spans minus the time of the spans nested directly inside
them. The self times of all layers add up to the root span.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "stokesdd"


def _count_hypotheses(counts, args, kwargs, result):
    counts["detection.hypothesis_evals"] += result[1].size  # (slots, hypotheses) scores


def _count_training(counts, args, kwargs, result):
    repeats = kwargs["repeats"] if "repeats" in kwargs else args[1]
    counts["detection.training_slots"] += len(result) * repeats


def _count_erasures(counts, args, kwargs, result):
    erasures = result.erasures[1:]  # slot 0 is the pilot: no inter-slot decision
    counts["detection.erasures"] += int(erasures.sum())
    counts["detection.dim4_decisions"] += len(erasures)


# (module, public function, layer, counter run on the call's arguments and result)
WRAPPED = (
    ("constellation", "build_constellation", "constellation.encode", None),
    ("constellation", "encode_indices", "constellation.encode", None),
    ("channel", "haar_random_channel", "channel.propagate", None),
    ("channel", "apply_jones", "channel.propagate", None),
    ("channel", "add_unit_noise", "channel.propagate", None),
    ("channel", "propagate_block", "channel.propagate", None),
    ("frontend", "frontend_full_block", "frontend.samples", None),
    ("frontend", "frontend_reduced_block", "frontend.samples", None),
    ("frontend", "recover_full_block", "frontend.samples", None),
    ("detection", "detect_dims123_block", "detection.dims123", _count_hypotheses),
    ("detection", "context_vectors", "detection.dim4", None),
    ("detection", "detect_dim4_block", "detection.dim4", None),
    ("detection", "run_training", "detection.training", _count_training),
    ("detection", "estimate_channel", "detection.training", None),
    ("detection", "run_successive_receiver", "detection.receiver", _count_erasures),
    ("metrics", "accumulate_ser", "metrics.accumulate", None),
    ("metrics", "histogram_mi_bits", "metrics.histogram", None),
    ("metrics", "estimate_mi_dim4", "metrics.mi", None),
    ("experiments", "run_ser_experiment", "experiments", None),
    ("experiments", "run_rate_experiment", "experiments", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in WRAPPED))


class Tracer:
    """Spans and counters of the wrapped calls, kept in memory."""

    def __init__(self):
        self.spans = []  # (qualified name, layer, parent index or -1, start, end)
        self.counts = defaultdict(int)
        self.absent = []  # "module.function" names the program no longer has
        self._stack = []
        self._patches = []  # (namespace, attribute, original)

    def install(self) -> None:
        self.absent = []
        for module_name, func_name, layer, count in WRAPPED:
            qualname = f"{module_name}.{func_name}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(qualname)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(qualname, layer, original, count)
            for namespace in list(sys.modules.values()):
                if getattr(namespace, "__name__", "").split(".")[0] != PACKAGE:
                    continue
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        self._patches.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def _wrap(self, qualname, layer, func, count):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack
            index = len(self.spans)
            self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans[index] = (qualname, layer, parent, start, end)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def layer_times(self) -> dict:
        """{layer: (busy seconds, self seconds)} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy = dict.fromkeys(LAYERS, 0.0)
        own = dict.fromkeys(LAYERS, 0.0)
        for i, (_, layer, parent, start, end) in enumerate(self.spans):
            own[layer] += end - start - child[i]
            while parent >= 0 and self.spans[parent][1] != layer:
                parent = self.spans[parent][2]
            if parent < 0:
                busy[layer] += end - start
        return {layer: (busy[layer], own[layer]) for layer in LAYERS}
