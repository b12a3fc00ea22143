"""Span tracing for the traced benchmark run, and the per-layer arithmetic.

``Tracer.install`` wraps every public function of the given modules (and
the public methods of the classes they define) from the outside, then
rebinds each name that refers to an original, so aliases made by
``from .x import y`` (``simulate.top_set``, ``cli.compute_anchors``) go
through the wrapper too. Private helpers stay unwrapped: their time is
self time of the public function that calls them.

A span is ``(name, start, end, parent)``; ``parent`` is the index of the
enclosing span or -1. Spans are kept in a list in start order and written
out once, after the traced command has finished.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path
from typing import Iterable, Sequence

Span = tuple  # (name, start, end, parent)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self, modules: Sequence) -> None:
        """Wrap the public callables defined in ``modules`` and every alias."""
        wrappers: dict[int, object] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
                elif inspect.isclass(value):
                    for meth, fn in vars(value).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(value, meth, self._wrap(f"{short}.{meth}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, attr, wrappers[id(value)])

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def load_spans(path: str | Path) -> list[Span]:
    return [tuple(span) for span in json.loads(Path(path).read_text())]


def _covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(start, end, children.get(i, ()))
        for i, (_, start, end, _) in enumerate(spans)
    ]


def layer_totals(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    Inclusive time counts only the outermost span of a name, so a
    function that reaches itself again is not counted twice.
    """
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return totals
