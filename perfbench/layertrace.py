"""Per-layer tracing from outside the program.

The layers are sedwalk's modules.  :class:`Tracer` replaces each layer's
public functions, under the names their callers look them up by, with
wrappers that record a span (name, start, end, parent span, op id) or, for
hot inner functions, only bump a counter.  Nothing under ``src/`` changes;
:meth:`Tracer.uninstall` puts every original back.

A hook whose target was renamed or removed is skipped and listed in the
report, and a layer with no hook left is reported as absent, so refactors
of the program never crash the benchmark.

Self time of a span is its duration minus the durations of its direct
children (children run inside the parent's interval, one after another).

Peak allocations are taken in a separate, untimed pass
(``install(..., memory=True)``): only the ``walk`` and ``spectral`` hooks
are installed, and while one of them runs with no such call around it,
``tracemalloc`` follows its allocations.  Keeping ``tracemalloc`` out of the
timed pass keeps its cost out of the self times.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
import tracemalloc

import numpy as np

LAYERS = ("dsl", "graphs", "spectral", "twins", "numtheory", "walk", "sedentary",
          "families", "cli")

# (module, attribute path as callers look it up, layer)
SPAN_HOOKS = (
    ("sedwalk.cli", "main", "cli"),
    ("sedwalk.cli", "parse_graph", "dsl"),
    ("sedwalk.cli", "from_edge_list_text", "graphs"),
    ("sedwalk.graphs", "WeightedGraph.matrix", "graphs"),
    ("sedwalk.cli", "decompose", "spectral"),
    ("sedwalk.sedentary", "decompose", "spectral"),
    ("sedwalk.twins", "decompose", "spectral"),
    ("sedwalk.spectral", "SpectralDecomposition.support", "spectral"),
    ("sedwalk.spectral", "SpectralDecomposition.periodicity", "spectral"),
    ("sedwalk.spectral", "SpectralDecomposition.strongly_cospectral", "spectral"),
    ("sedwalk.cli", "find_twin_sets", "twins"),
    ("sedwalk.sedentary", "find_twin_sets", "twins"),
    ("sedwalk.twins", "find_twin_sets", "twins"),
    ("sedwalk.sedentary", "twin_dichotomy", "twins"),
    ("sedwalk.spectral", "recognize_spectrum", "numtheory"),
    ("sedwalk.sedentary", "recognize_spectrum", "numtheory"),
    ("sedwalk.sedentary", "recognize_values", "numtheory"),
    ("sedwalk.sedentary", "integer_relation_parity", "numtheory"),
    ("sedwalk.sedentary", "equality_time_criterion", "sedentary"),
    ("sedwalk.cli", "classify_vertex", "sedentary"),
    ("sedwalk.walk", "WalkEvaluator.infimum_diagonal", "walk"),
    ("sedwalk.walk", "WalkEvaluator.diagonal_amplitudes", "walk"),
    ("sedwalk.cli", "multipartite_laplacian_verdict", "families"),
    ("sedwalk.cli", "multipartite_adjacency_verdict", "families"),
    ("sedwalk.cli", "complete_product_verdict", "families"),
    ("sedwalk.cli", "threshold_vertex_verdict", "families"),
)

# Called ~10^5 times per large op: a span each would swamp the timing.
COUNTER_HOOKS = (("sedwalk.twins", "are_twins", "twins"),)

MEMORY_LAYERS = ("walk", "spectral")


def _held_bytes(dec) -> int:
    """Bytes of the numpy arrays held on a decomposition object."""
    attrs = vars(dec) if hasattr(dec, "__dict__") else {}
    return sum(v.nbytes for v in attrs.values() if isinstance(v, np.ndarray))


class Tracer:
    """Spans and counters for the ops run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.op_self: dict[int, dict[str, float]] = {}
        self.counts: dict[str, float] = {}
        self.peak_alloc = {layer: 0 for layer in MEMORY_LAYERS}
        self.installed_layers: set[str] = set()
        self.missing: set[str] = set()
        self.probe_errors = 0
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []
        self._op = -1
        self._next_id = 0
        self._paused = False
        self._mem_depth = 0

    # -- installation ---------------------------------------------------------

    def _resolve(self, module: str, path: str):
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        raw = vars(owner).get(attr)
        if not callable(raw) or isinstance(raw, (staticmethod, classmethod, type)):
            raise AttributeError(f"{module}.{path} is not a plain function")
        return owner, attr, raw

    def install(self, op_id: int, memory: bool = False) -> None:
        """Wrap every hook target that exists; ``op_id`` tags the spans.

        With ``memory`` only the memory layers are wrapped, and only to
        measure their peak allocation."""
        self._op = op_id
        for module, path, layer in SPAN_HOOKS + COUNTER_HOOKS:
            if memory and layer not in MEMORY_LAYERS:
                continue
            try:
                owner, attr, raw = self._resolve(module, path)
            except (ImportError, AttributeError):
                self.missing.add(f"{module}.{path}")
                continue
            if memory:
                wrapped = self._peak(layer, raw)
            elif (module, path, layer) in COUNTER_HOOKS:
                wrapped = self._counter(path, raw)
            else:
                wrapped = self._span(path, layer, raw)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            self.installed_layers.add(layer)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    # -- wrappers -----------------------------------------------------------------

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer._count(f"{name}.calls")
            if result is True:
                tracer._count(f"{name}.true")
            return result

        return wrapper

    def _span(self, name: str, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                tracer.self_s[layer] += own
                tracer.calls[layer] += 1
                per_op = tracer.op_self.setdefault(tracer._op, {})
                per_op[layer] = per_op.get(layer, 0.0) + own
                tracer.spans.append((span_id, parent, tracer._op, layer, name, start, end))
            tracer._probe(name, args, result)
            return result

        return wrapper

    def _peak(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._mem_depth:
                return fn(*args, **kwargs)
            tracer._mem_depth += 1
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer._mem_depth -= 1
                tracer.peak_alloc[layer] = max(tracer.peak_alloc[layer], peak)

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- per-call measurements --------------------------------------------------

    def _probe(self, name: str, args: tuple, result) -> None:
        """Counts read from a hooked call's arguments and result."""
        self._count(f"{name}.calls")
        self._paused = True
        try:
            if name == "decompose":
                held = _held_bytes(result)
                self.counts["decompose.held_max"] = max(self.counts.get("decompose.held_max", 0),
                                                        held)
            elif name in ("recognize_spectrum", "recognize_values",
                          "equality_time_criterion"):
                if result is not None:
                    self._count(f"{name}.hits")
            elif name == "WalkEvaluator.infimum_diagonal":
                evaluator, u = args[0], args[1]
                self._count("infimum.support", len(evaluator.dec.support(u)))
                self._count("infimum.k", evaluator.dec.k)
                if getattr(result, "certified", False):
                    self._count("infimum.certified")
        except Exception:  # a probe must never break the op it observes
            self.probe_errors += 1
        finally:
            self._paused = False

    # -- output -----------------------------------------------------------------

    def report(self) -> dict:
        return {
            "self_s": self.self_s,
            "calls": self.calls,
            "counts": self.counts,
            "peak_alloc_bytes": self.peak_alloc,
            "op_self_s": {str(k): v for k, v in self.op_self.items()},
            "absent_layers": [layer for layer in LAYERS if layer not in self.installed_layers],
            "missing_hooks": sorted(self.missing),
            "probe_errors": self.probe_errors,
            "spans": len(self.spans),
        }

    def write_spans(self, path: str) -> None:
        keys = ("id", "parent", "op", "layer", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
