"""In-memory spans recorded around calls into the program's layers.

The tracer wraps public functions at the module attributes where the program
looks them up, so the package itself is not modified. Each span records its
name, start, end, the span that was open when it began (its parent) and the
op it belongs to. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` attributes for the block, then restore them."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """Collects spans; ``spans[k]["parent"]`` is an index into ``spans``."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._op: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "op": self._op,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def op(self, index: int):
        """Root span of one op; every span opened inside it is its descendant."""
        self._op = index
        try:
            with self.span("op") as record:
                yield record
        finally:
            self._op = None

    def wrap(self, name: str, fn, counter=None):
        """``fn`` inside a span; ``counter(bound_args, result)`` adds counts
        to the span after it has closed, so counting is not timed."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record["counts"] = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def installed(self, targets):
        """Wrap each ``(module, attr, counter)`` target for the block."""
        return patched(
            (module, attr, self.wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}",
                                     getattr(module, attr), counter))
            for module, attr, counter in targets
        )


def totals(spans: list[dict], scale: dict):
    """Per span name: summed duration, summed self time and summed counts.

    Durations are multiplied by ``scale[op]`` of the span's op. A span's self
    time is its duration minus the time its direct children cover; children
    never overlap, because the program is single-threaded.
    """
    def elapsed_of(record):
        return (record["end"] - record["start"]) * scale[record["op"]]

    child_time = defaultdict(float)
    for record in spans:
        if record["parent"] is not None:
            child_time[record["parent"]] += elapsed_of(record)
    duration = defaultdict(float)
    self_time = defaultdict(float)
    counts = defaultdict(int)
    for index, record in enumerate(spans):
        elapsed = elapsed_of(record)
        duration[record["name"]] += elapsed
        self_time[record["name"]] += elapsed - child_time[index]
        for key, value in record.get("counts", {}).items():
            counts[f"{record['name']}.{key}"] += value
    return duration, self_time, counts
