"""In-memory spans around the calls the benchmark makes into each srnn module.

A span is (id, name, start, end, parent id, thread id). Each thread keeps
its own stack of open spans; a span opened on a thread whose stack is
empty takes the tracer's current root as its parent, so the worker
threads of `fit`'s pool link back to the `training.fit` span that the
main thread holds open.

`Tracer.patch` swaps a module attribute for a timed wrapper and restores
it on `close`, which is how the names `srnn.training` calls across a
module boundary are traced without editing the package.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager


class NullTracer:
    """Stands in for a Tracer on untraced runs; records nothing."""

    @contextmanager
    def span(self, name):
        yield


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict's entries are stored with it."""
        attrs: dict = {}
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else self._root
        is_root = not stack and threading.current_thread() is threading.main_thread()
        if is_root:
            self._root = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            if is_root:
                self._root = None
            record = {"id": span_id, "name": name, "start": start, "end": end,
                      "parent": parent, "thread": threading.get_ident()}
            record.update(attrs)
            with self._lock:
                self.spans.append(record)

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace module.attr by a wrapper that records a span per call.

        on_result(result, attrs) may add fields to the span from the
        call's return value.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(result, attrs)
                return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def close(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for record in sorted(self.spans, key=lambda r: r["start"]):
                f.write(json.dumps(record) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: dict, children: list[dict]) -> float:
    """A span's duration minus the part of it its children cover."""
    inside = [(max(c["start"], span["start"]), min(c["end"], span["end"]))
              for c in children]
    return duration(span) - covered([iv for iv in inside if iv[1] > iv[0]])
