"""Spans timed from outside the program.

A Tracer replaces selected module-level functions of `pcslpa` with wrappers
that record one span per call: (id, name, start, end, parent id, unit id).
Spans stay in memory until the run ends. Nothing inside the program changes,
and uninstall() puts every original function back. A name the program no
longer defines is listed as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name): each binding a caller in the program looks
# up at call time, so patching the module attribute intercepts that call site.
WRAPPED = (
    ("pcslpa.harness", "load_edge_list", "load_edge_list"),
    ("pcslpa.harness", "load_cover", "load_cover"),
    ("pcslpa.harness", "select_constraints", "select_constraints"),
    ("pcslpa.harness", "run_slpa", "run_slpa"),
    ("pcslpa.harness", "run_pcslpa_report", "run_pcslpa_report"),
    ("pcslpa.harness", "overlapping_nmi", "overlapping_nmi"),
    ("pcslpa.cli", "select_constraints", "select_constraints"),
    ("pcslpa.cli", "write_constraints", "write_constraints"),
    ("pcslpa.constraints", "find_forbidden_triads", "find_forbidden_triads"),
    ("pcslpa.slpa", "evaluation_pass", "evaluation_pass"),
    ("pcslpa.slpa", "post_process", "post_process"),
    ("pcslpa.constrained", "init_constrained", "init_constrained"),
    ("pcslpa.constrained", "constrained_evaluation_pass", "constrained_evaluation_pass"),
    ("pcslpa.constrained", "repair_must_link", "repair_must_link"),
    ("pcslpa.constrained", "repair_cannot_link", "repair_cannot_link"),
    ("pcslpa.constrained", "post_process", "post_process"),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.unit = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.unit))

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "unit": s.unit}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one span never overlap (single thread), so their durations
    add up to the covered part of the parent's interval.
    """
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own
