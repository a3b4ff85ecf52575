"""Spans around calls into the program, recorded from the benchmark process.

Nothing inside ``src/repro`` is instrumented: :class:`Tracer` replaces a
public function at the name its caller looks up (a module global, a class
attribute) with a wrapper that records one span per call, and puts the
original back on :meth:`Tracer.uninstall`.  Spans stay in memory as
``(name, parent, start, end)`` tuples with ``parent`` the index of the
enclosing span on the same thread (``-1`` at top level), and are written
as JSON lines when the run ends.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, int, float, float]

#: Where each layer's public functions are looked up by their callers:
#: ``(owner, attribute, span name)``.  ``owner`` is a module path, or a
#: module path plus ``:Class`` for methods.
PLAN: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.suite", "synthesize_block", "workloads.synthesize_block"),
    ("repro.workloads.suite", "prewarm", "workloads.prewarm"),
    ("repro.workloads.suite", "perturbed", "workloads.perturbed"),
    ("repro.simulator.core:SimulatedCore", "run_block", "simulator.run_block"),
    ("repro.workloads.suite", "sections_to_dataset", "counters.sections_to_dataset"),
    ("repro.parallel", "parallel_map", "parallel.parallel_map"),
    ("repro.evaluation.crossval", "parallel_map", "parallel.parallel_map"),
    ("repro.parallel.cache:ArtifactCache", "store_dataset", "parallel.cache.store_dataset"),
    ("repro.parallel.cache:ArtifactCache", "load_dataset", "parallel.cache.load_dataset"),
    ("repro.core.tree.m5:M5Prime", "fit", "core.tree.fit"),
    ("repro.core.tree.builder", "find_best_split", "core.tree.find_best_split"),
    ("repro.core.tree.builder", "fit_linear_model", "core.tree.fit_linear_model"),
    ("repro.core.tree.linear", "fit_linear_model", "core.tree.fit_linear_model"),
    ("repro.core.tree.builder", "simplify_model", "core.tree.simplify_model"),
    ("repro.core.tree.builder", "select_uncorrelated", "core.tree.select_uncorrelated"),
    ("repro.core.tree.builder", "resolve_opposed_pairs", "core.tree.resolve_opposed_pairs"),
    ("repro.core.tree.m5", "prune_tree", "core.tree.prune_tree"),
    ("repro.serve.compiled", "compile_tree", "serve.compile_tree"),
    ("repro.evaluation.crossval", "cross_validate", "evaluation.cross_validate"),
    ("repro.core.analysis.report:PerformanceAnalyzer", "analyze_dataset",
     "core.analysis.analyze_dataset"),
)

#: Span-name prefixes that make up one layer, most specific first.
LAYERS = (
    "core.analysis", "core.tree", "workloads", "simulator", "counters",
    "parallel", "evaluation", "serve", "bench",
)


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


def _resolve_owner(owner: str):
    module_path, _, class_name = owner.partition(":")
    target = importlib.import_module(module_path)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """Records spans for wrapped callables; see the module docstring.

    Args:
        clock: Monotonic time source in seconds.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        """Start a span; returns its index for :meth:`close`."""
        stack = self._stack()
        index = len(self.spans)
        self.spans.append((name, stack[-1] if stack else -1, self.clock(), 0.0))
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = self.clock()
        self._stack().pop()
        name, parent, start, _ = self.spans[index]
        self.spans[index] = (name, parent, start, end)

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``on_result(result)`` sees
        each return value after the span closes."""

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self, plan: Sequence[Tuple[str, str, str]] = PLAN,
                hooks: Optional[Dict[str, Callable]] = None) -> "Tracer":
        """Wrap every ``(owner, attribute, name)`` of ``plan``; ``hooks``
        maps span names to result callbacks."""
        hooks = hooks or {}
        for owner, attribute, name in plan:
            target = _resolve_owner(owner)
            original = getattr(target, attribute)
            self._installed.append((target, attribute, original))
            setattr(target, attribute, self.wrap(name, original, hooks.get(name)))
        return self

    def uninstall(self) -> None:
        while self._installed:
            target, attribute, original = self._installed.pop()
            setattr(target, attribute, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "parent": parent, "name": name,
                    "start": start, "end": end,
                }) + "\n")


def _covered(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            covered += high - low
            reach = high
    return covered


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children.get(index, []), start, end)
        for index, (name, parent, start, end) in enumerate(spans)
    ]


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` and exclusive ``self_s``.

    Inclusive time counts only outermost spans of a name, so a name that
    nests inside itself is not counted twice.
    """
    own = self_times(spans)
    summary: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for index, (name, parent, start, end) in enumerate(spans):
        entry = summary[name]
        entry["calls"] += 1
        entry["self_s"] += own[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            entry["s"] += end - start
    return dict(summary)


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Exclusive seconds per layer of :data:`LAYERS`."""
    totals = {layer: 0.0 for layer in LAYERS}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        totals[layer_of(name)] += own
    return totals
