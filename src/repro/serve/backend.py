"""Flush execution: chunked in-process pricing of one coalesced group.

The scheduler (:mod:`repro.serve.scheduler`) coalesces traffic into
signature groups; :class:`ThreadBackend` prices one group with
:func:`~repro.serve.executor.execute_group`, splitting groups larger
than ``chunk_size`` across an optional ``ThreadPoolExecutor``.  The
NumPy stages scale across threads (they release the GIL); the
executor's scalar-parity Python loops — eq.-(7) yield, per-λ wafer
cost, custom yield laws — serialize on it.

Chunking is bitwise invisible: every executor step is elementwise in
the unique points (the contract enforced by
``tests/property_based/test_serve_parity.py``), so worker count and
chunk size change speed, never results.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from ..batch.cache import BatchCache
from .executor import GroupResult, execute_group, n_chunks
from .query import CostQuery

__all__ = ["ThreadBackend"]


class ThreadBackend:
    """Chunked in-process execution, optionally over a thread pool."""

    name = "thread"

    def __init__(self, workers: int = 1, chunk_size: int = 4096) -> None:
        self.workers = workers
        self.chunk_size = chunk_size
        self._pool: ThreadPoolExecutor | None = None

    def start(self) -> None:
        """Create the thread pool when more than one worker is asked."""
        if self.workers > 1 and self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-serve-worker")

    def run_group(self, exemplar: CostQuery,
                  points: list[tuple[float, float]],
                  cache: BatchCache | None) -> GroupResult:
        """Price one coalesced group (see :func:`execute_group`)."""
        return execute_group(exemplar, points, cache=cache,
                             pool=self._pool, chunk_size=self.chunk_size)

    def n_chunks_for(self, n_points: int) -> int:
        """How many chunks :meth:`run_group` splits a group into."""
        if self._pool is None:
            return 1
        return n_chunks(n_points, self.chunk_size)

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
