"""Spans around cateselect's layer boundaries, recorded from outside the package.

The package is not instrumented. Instead, ``patched(tracer)`` replaces the
functions the package calls across layers at the module attributes it calls
them through (for example ``cateselect.selectors.fit``), and registers
wrapped selectors with ``register_selector``. Spans are kept in memory and
written once, when the run ends. Nothing is patched outside the ``with``
block.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in ``Tracer.spans``
    rep: tuple | None  # (study, sequence number, candidate count) of the repetition


def _tensor_bytes(args: tuple, result: Any) -> dict[str, int]:
    dataset, candidates = args[0], args[1]
    return {"tensor_bytes": candidates.p * candidates.p * dataset.n * 8}


def _ingested_rows(args: tuple, result: Any) -> dict[str, int]:
    return {"ingest_rows": result.n}


def _candidate_count(args: tuple) -> int:
    return len(args[0].noise_specs)


# (module, attribute, span name, work-counter hook, hook that starts a repetition
# and returns its candidate count)
HOOKS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("harness", "_single_rep", "harness.rep", None, _candidate_count),
    ("harness", "summarize_records", "harness.summarize_records", None, None),
    ("harness", "generate_toy", "datagen.generate_toy", None, None),
    ("harness", "make_candidates", "datagen.make_candidates", None, None),
    ("cli", "ingest_dataset", "datagen.ingest_dataset", _ingested_rows, None),
    ("cli", "ingest_predictions", "datagen.ingest_predictions", _ingested_rows, None),
    ("cli", "_cmd_select", "cli.select", None, None),
    ("selectors", "fit", "nuisance.fit", None, None),
    ("selectors", "build_score_tensor", "scores.build_score_tensor", _tensor_bytes, None),
    ("selectors", "delta_hat", "scores.delta_hat", None, None),
    ("selectors", "cov_hat", "scores.cov_hat", None, None),
    ("selectors", "two_way_split", "selectors.two_way_split", None, None),
    ("selectors", "exp_weighted_statistics", "selectors.exp_weighted_statistics", None, None),
    ("selectors", "naive_critical_value", "selectors.naive_critical_value", None, None),
)

SELECTORS = ("proposed", "naive", "bonferroni", "ablation")


class Tracer:
    """In-memory span list plus work counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self.study = 0
        self.rep: tuple | None = None
        self._reps = 0
        self._open: list[int] = []

    def next_rep(self, candidates: int | None) -> tuple:
        """A fresh repetition id within the current study."""
        self._reps += 1
        return (self.study, self._reps, candidates)

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable | None = None,
        rep_of: Callable | None = None,
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)
            self._open.append(index)
            outer_rep = self.rep
            if rep_of is not None:
                self.rep = self.next_rep(rep_of(args))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent, self.rep)
                self.rep = outer_rep
            if count is not None:
                self.counters.update(count(args, result))
            return result

        return traced

    def absorb(self, spans: list[list], counters: dict[str, float]) -> None:
        """Append the spans of a traced child process as one repetition."""
        offset = len(self.spans)
        rep = self.next_rep(None)
        for name, start, end, parent, _ in spans:
            self.spans.append(Span(name, start, end, None if parent is None else parent + offset, rep))
        self.counters.update(counters)

    def write(self, path: Path) -> None:
        payload = {"spans": [list(s) for s in self.spans], "counters": dict(self.counters)}
        path.write_text(json.dumps(payload), encoding="utf-8")


@contextlib.contextmanager
def patched(tracer: Tracer) -> Iterator[Tracer]:
    """Route the package's cross-layer calls through ``tracer`` for the block."""
    harness = importlib.import_module("cateselect.harness")
    undo: list[Callable[[], None]] = []
    try:
        for module_name, attr, name, count, rep_of in HOOKS:
            module = importlib.import_module(f"cateselect.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            undo.append(functools.partial(setattr, module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count, rep_of))
        for selector in SELECTORS:
            original = harness.SELECTOR_FUNCS.get(selector)
            if original is None:
                tracer.missing.append(f"selector {selector}")
                continue
            undo.append(functools.partial(harness.register_selector, selector, original))
            harness.register_selector(selector, tracer.wrap(f"selectors.{selector}", original))
        yield tracer
    finally:
        for step in reversed(undo):
            step()


class LayerTotals(NamedTuple):
    calls: int
    total_s: float
    self_s: float


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: call count, inclusive time and self time.

    Self time is a span's duration minus the durations of its direct
    children; spans of one process never overlap their siblings.
    """
    child_s = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
    calls: Counter = Counter()
    total = defaultdict(float)
    own = defaultdict(float)
    for index, span in enumerate(spans):
        duration = span.end - span.start
        calls[span.name] += 1
        total[span.name] += duration
        own[span.name] += duration - child_s[index]
    return {name: LayerTotals(calls[name], total[name], own[name]) for name in calls}
