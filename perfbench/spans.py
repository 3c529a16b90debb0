"""In-memory spans recorded by the benchmark around calls into alliancelib.

A span has a name, a start, an end and a parent.  The benchmark tags each
outermost span with its operation's item (a compile instance, a solve class
or a harness kind); the layer spans nested below inherit it.
Spans stay in memory and go to ``run.py`` with the unit's result when it ends.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, item]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, item: str | None = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        if item is None and parent >= 0:
            item = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, item])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str, on_result: Callable | None = None) -> None:
        """Replace owner.attr by a version that records a span per call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)

    def totals(self) -> dict[str, dict[str, list[float]]]:
        """{item: {name: [inclusive seconds, self seconds, calls]}}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, list[float]]] = defaultdict(dict)
        for i, (name, start, end, _, item) in enumerate(self.spans):
            row = out[item].setdefault(name, [0.0, 0.0, 0])
            row[0] += end - start
            row[1] += end - start - child_time[i]
            row[2] += 1
        return dict(out)
