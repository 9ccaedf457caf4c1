"""Span-based tracing driven by an injected deterministic clock.

Spans are timestamped by a caller-supplied ``now()`` callable — in the
database this is :meth:`SimulatedClock.now <repro.common.clock.
SimulatedClock.now>` — so two replays of the same workload produce
byte-identical traces (and the tracer passes the ``replay-determinism``
lint rule: no wall-clock, no entropy).  Span ids are a deterministic
incrementing sequence; parentage comes from an explicit stack, not
thread-locals, because the engine is single-threaded by design.

Finished spans land in a bounded ring buffer (oldest dropped first, with
a drop counter) so tracing cannot grow memory without bound during long
benchmark runs.
"""

from __future__ import annotations

from collections import deque
from types import TracebackType
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
    Type,
    Union,
)

AttrValue = Union[str, int, float, bool]

# (span_id, parent_id, name, start, end, attrs)
FinishedSpan = Tuple[int, int, str, int, int, Dict[str, AttrValue]]


class Span:
    """An open span; use as a context manager or call :meth:`end`."""

    __slots__ = (
        "tracer",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end_time",
        "attrs",
    )

    def __init__(
        self,
        tracer: Optional["Tracer"],
        span_id: int,
        parent_id: int,
        name: str,
        start: int,
        attrs: Dict[str, AttrValue],
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end_time: Optional[int] = None
        self.attrs = attrs

    def set(self, **attrs: AttrValue) -> None:
        """Attach attributes to the open span."""
        self.attrs.update(attrs)

    def end(self) -> None:
        if self.tracer is not None and self.end_time is None:
            self.tracer._end(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.end()


class Tracer:
    """Collects spans into a bounded, deterministic trace log."""

    def __init__(
        self,
        now: Optional[Callable[[], int]] = None,
        capacity: int = 4096,
    ) -> None:
        self._now = now if now is not None else self._auto_now
        self._auto = 0
        self._next_id = 1
        self._stack: List[int] = []
        self._finished: Deque[FinishedSpan] = deque(maxlen=capacity)
        self.capacity = capacity
        self.dropped = 0

    def _auto_now(self) -> int:
        """Fallback clock: a deterministic step counter."""
        self._auto += 1
        return self._auto

    # -- recording ---------------------------------------------------

    def span(self, name: str, **attrs: AttrValue) -> Span:
        """Open a child of the current span (root if none is open)."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        return Span(self, span_id, parent, name, self._now(), attrs)

    def event(self, name: str, **attrs: AttrValue) -> None:
        """Record a zero-duration span at the current time."""
        with self.span(name, **attrs):
            pass

    def _end(self, span: Span) -> None:
        span.end_time = self._now()
        # tolerate out-of-order ends: drop this id wherever it sits
        try:
            self._stack.remove(span.span_id)
        except ValueError:
            pass
        if len(self._finished) == self.capacity:
            self.dropped += 1
        self._finished.append(
            (
                span.span_id,
                span.parent_id,
                span.name,
                span.start,
                span.end_time,
                dict(span.attrs),
            )
        )

    # -- reading -----------------------------------------------------

    def finished(self) -> List[Dict[str, object]]:
        """Finished spans, oldest first, as plain dicts."""
        return [
            {
                "span_id": sid,
                "parent_id": pid,
                "name": name,
                "start": start,
                "end": end,
                "attrs": attrs,
            }
            for sid, pid, name, start, end, attrs in self._finished
        ]

    def span_counts(self) -> Dict[str, int]:
        """Finished-span tallies by name (sorted keys)."""
        counts: Dict[str, int] = {}
        for _, _, name, _, _, _ in self._finished:
            counts[name] = counts.get(name, 0) + 1
        return {name: counts[name] for name in sorted(counts)}

    def reset(self) -> None:
        self._finished.clear()
        self._stack.clear()
        self._next_id = 1
        self._auto = 0
        self.dropped = 0
