"""Outside-in tracing: spans recorded around calls into the program's layers.

Each wrapper replaces a function where its caller looks the name up (a
module global or a class attribute), records a span for the call and
restores the original on ``restore()``. Spans are kept in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    group: int  # spans of one training step / one cascade share this id


class Patches:
    """Replaced attributes, put back in reverse order by ``restore``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer(Patches):
    def __init__(self) -> None:
        super().__init__()
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.group = 0

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.group))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    def wrap(self, owner, attr: str, name: str, after=None, new_group: bool = False) -> None:
        """Record a span per call; ``after(result, args)`` runs once the span is closed."""

        def make(fn):
            def wrapper(*args, **kwargs):
                if new_group:
                    self.group += 1
                idx = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(idx)
                if after is not None:
                    after(result, args)
                return result

            return wrapper

        self.replace(owner, attr, make)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out
