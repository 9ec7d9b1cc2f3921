"""Spans around calls into the program, kept in memory.

The benchmark records spans from its own files only: :class:`SpanLog`
replaces a function or method of the program with a wrapper that
times each call and restores the original on :meth:`SpanLog.unwrap_all`.
Every span has a name, a start, an end, a parent, the id of the
request it belongs to (the id of its root span) and the id of the
scheduler flush it belongs to.  Parents follow :mod:`contextvars`, so
they are right across asyncio tasks and stay apart between threads.

Functions called once per point (query construction, row encoding)
would make millions of spans, so they are *totalled*
instead: per ``(parent, name)`` the log keeps the summed seconds, the
summed work count and the number of calls.  Totals are children of
their parent like spans are; calls of one name under one parent run
one after another, so their seconds add up to the time they cover.

:func:`self_times` gives each span its duration minus the part of it
that its children cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import threading
import time
from typing import Any, Callable, Iterable, NamedTuple

Count = Callable[[tuple, dict, Any], int]


class Span(NamedTuple):
    """One timed call (times in seconds on the recording process's clock)."""

    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    req: int | None
    flush: int | None
    n: int


class Total(NamedTuple):
    """Summed calls of one name under one parent."""

    parent: int | None
    name: str
    seconds: float
    n: int
    calls: int


_NO_SPAN = (None, None, None)  # (span id, request id, flush id)


class SpanLog:
    """Wraps program functions and records a span for each call."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self._ids = itertools.count(1)
        self._ctx: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=_NO_SPAN)
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []
        #: ``owner.attr`` names that were asked for but do not exist.
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (the wrappers stay)."""
        self.spans: list[Span] = []
        self._totals: dict[tuple[int | None, str], list] = {}

    # -- recording ---------------------------------------------------------

    def open(self, *, root: bool = False, flush: bool = False):
        """Start a span: returns ``(sid, parent, req, flush, token)``."""
        parent, req, fl = self._ctx.get()
        sid = next(self._ids)
        if root:
            parent, req = None, sid
        if flush:
            fl = sid
        token = self._ctx.set((sid, req, fl))
        return sid, parent, req, fl, token

    def close(self, opened, name: str, start: float, end: float, n: int,
              total: bool = False) -> None:
        """Finish a span begun by :meth:`open`."""
        sid, parent, req, fl, token = opened
        self._ctx.reset(token)
        if total:
            with self._lock:
                entry = self._totals.get((parent, name))
                if entry is None:
                    self._totals[(parent, name)] = [end - start, n, 1]
                else:
                    entry[0] += end - start
                    entry[1] += n
                    entry[2] += 1
        else:
            self.spans.append(Span(sid, parent, name, start, end, req, fl,
                                   n))

    @property
    def totals(self) -> list[Total]:
        """The totalled per-point calls."""
        with self._lock:
            return [Total(parent, name, *entry)
                    for (parent, name), entry in self._totals.items()]

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, *,
             count: Count | None = None, root: bool = False,
             total: bool = False) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``count(args, kwargs, result)`` gives the span's work count
        (1 when omitted).  ``root`` starts a new request; ``total``
        sums calls instead of keeping one span each.  A missing
        attribute is noted in :attr:`missing` and skipped, so a
        renamed entry point drops its layer instead of the run.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        clock = self.clock

        def finish(opened, start, args, kwargs, result, ok):
            end = clock()
            n = (count(args, kwargs, result) if count else 1) if ok else 0
            self.close(opened, name, start, end, n, total)

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                opened = self.open(root=root)
                start, ok, result = clock(), False, None
                try:
                    result = await original(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    finish(opened, start, args, kwargs, result, ok)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                opened = self.open(root=root)
                start, ok, result = clock(), False, None
                try:
                    result = original(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    finish(opened, start, args, kwargs, result, ok)

        self.replace(owner, attr, wrapper)

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`unwrap_all`."""
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def unwrap_all(self) -> None:
        """Put every wrapped attribute back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- export ------------------------------------------------------------

    def dump(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {"spans": [list(s) for s in self.spans],
                "totals": [list(t) for t in self.totals],
                "missing": list(self.missing)}


def load(data: dict) -> tuple[list[Span], list[Total]]:
    """Spans and totals back from :meth:`SpanLog.dump` data."""
    return ([Span(*s) for s in data["spans"]],
            [Total(*t) for t in data["totals"]])


def self_times(spans: Iterable[Span],
               totals: Iterable[Total] = ()) -> dict[int, float]:
    """Each span's duration minus the time its children cover.

    Child spans are clipped to their parent and merged where they
    overlap (concurrent children cover time once); totalled children
    add their summed seconds.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    summed: dict[int, float] = {}
    for t in totals:
        if t.parent is not None:
            summed[t.parent] = summed.get(t.parent, 0.0) + t.seconds
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        covered += summed.get(s.sid, 0.0)
        out[s.sid] = max(0.0, (s.end - s.start) - covered)
    return out
