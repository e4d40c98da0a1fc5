"""In-memory span tracer that wraps library names at their call-site bindings.

A span is (id, name, start, end, parent id, decode id, attributes).  The
tracer never edits the library: it replaces attributes such as
``foldedrs.decoder.interpolate_with_report`` with a timing wrapper while it
is installed and puts the original objects back on ``uninstall``.  Spans
nest through a stack, so a layer's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    decode: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Binding:
    """One name to wrap: ``owner.attr`` becomes a span called ``span``.

    ``note(args, result)`` may return attributes to record on the span; it
    runs after the span is closed, so its cost falls into the parent.
    """

    owner: object
    attr: str
    span: str
    note: object = None


class Tracer:
    def __init__(self, bindings, clock=time.perf_counter):
        self.bindings = tuple(bindings)
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.originals = [getattr(b.owner, b.attr) for b in self.bindings]
        self.installed = False
        self._decode = -1

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        if parent is None:
            self._decode += 1
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, self._decode)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, fn, binding: Binding):
        def wrapper(*args, **kwargs):
            span = self.open(binding.span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if binding.note is not None:
                span.attrs.update(binding.note(args, out))
            return out

        return wrapper

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer is already installed")
        if not self.restored():
            raise RuntimeError("a traced name changed since the tracer was built")
        for b, orig in zip(self.bindings, self.originals):
            setattr(b.owner, b.attr, self._wrap(orig, b))
        self.installed = True

    def uninstall(self) -> None:
        for b, orig in zip(self.bindings, self.originals):
            setattr(b.owner, b.attr, orig)
        self.installed = False

    def restored(self) -> bool:
        """True when every wrapped name holds the object it held before tracing."""
        return all(getattr(b.owner, b.attr) is o for b, o in zip(self.bindings, self.originals))

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds, self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += s.duration
        row["self_s"] += selfs[s.id]
    return out
