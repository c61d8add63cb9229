"""Span tracing from outside the package, and the per-layer arithmetic.

Wrappers are installed on every module attribute (and class attribute) of
``lowrank_iht`` that holds a traced function, so each caller's own lookup
reaches the wrapper: ``lowrank_iht.iht.apply_design``,
``lowrank_iht.inference.apply_design`` and ``lowrank_iht.trace_model.apply_design``
all record the span ``trace_model.apply_design``. A traced function that no
longer exists is reported as an absent layer instead of failing the run.

Spans stay in memory; ``Tracer.spans`` is written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Target:
    path: str
    name: str
    hook: Callable | None = None


def target(path: str, hook: Callable | None = None, name: str | None = None) -> Target:
    return Target(path, name or path, hook)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list, None at the top of an op
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> list[float]:
    """Duration of each span minus the part its direct children cover.

    Children of one parent run one after another on one thread, so the
    covered part is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


class Tracer:
    """Records one span per call of each wrapped function while ``op`` is
    set; with ``op`` None the wrappers only call through.

    Each target's ``path`` (``"<module>.<function>"`` or
    ``"<module>.<Class>.<method>"``, relative to the package) says where the
    original lives; its span is recorded under ``name``, and its optional
    ``hook(args, result) -> dict`` attaches counts to the span.
    """

    def __init__(self, targets, package: str = "lowrank_iht"):
        self.targets = targets
        self.package = package
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                span.counts = hook(args, result)
            return result

        return wrapper

    def install(self):
        self.absent = []
        mod_prefix = self.package + "."
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(mod_prefix))]
        for target in self.targets:
            *owner_path, attr = target.path.split(".")
            try:
                owner = importlib.import_module(f"{self.package}.{owner_path[0]}")
                for part in owner_path[1:]:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target.name, original, target.hook)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def as_records(self) -> list[dict]:
        selfs = self_times(self.spans)
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, "self_s": st, **({"counts": s.counts} if s.counts else {})}
                for s, st in zip(self.spans, selfs)]


def layer_totals(spans, ops) -> dict:
    """Per-op self time and call count of each span name over the given ops,
    plus the summed hook counts, keyed ``<name>.self_s``, ``<name>.calls`` and
    ``<name>.<count>``."""
    ops = set(ops)
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for span, st in zip(spans, selfs):
        if span.op not in ops:
            continue
        out[f"{span.name}.self_s"] = out.get(f"{span.name}.self_s", 0.0) + st
        out[f"{span.name}.calls"] = out.get(f"{span.name}.calls", 0) + 1
        for key, value in span.counts.items():
            out[f"{span.name}.{key}"] = out.get(f"{span.name}.{key}", 0) + value
    return {key: value / max(1, len(ops)) for key, value in out.items()}
