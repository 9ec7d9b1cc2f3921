"""Shared fixtures: environment-selected serve workers and sweep backend.

``REPRO_SERVE_WORKERS=2`` reruns every scheduler/service/parity test
with a two-thread worker pool, so the chunked execution path is
covered without duplicating the files (the same idiom as
``REPRO_TEST_WORKERS`` for the Monte Carlo shards).
``REPRO_SWEEP_BACKEND``/``REPRO_SWEEP_WORKERS`` do the same for every
test that goes through :class:`repro.batch.sweep.TiledSweepRunner` —
the sweep CI job reruns the whole sweep surface on the shm process
pool, and the bitwise-parity assertions must keep holding.  Both
injections use ``setdefault``: tests that pin ``backend=``/
``workers=`` explicitly keep their pinned values.
"""

import functools
import os

import pytest

_WORKERS = os.environ.get("REPRO_SERVE_WORKERS")
_SWEEP_BACKEND = os.environ.get("REPRO_SWEEP_BACKEND")
_SWEEP_WORKERS = os.environ.get("REPRO_SWEEP_WORKERS")


@pytest.fixture(autouse=True, scope="session")
def _serve_workers_from_env():
    if not _WORKERS:
        yield
        return
    from repro.serve.scheduler import MicroBatchScheduler

    original = MicroBatchScheduler.__init__

    @functools.wraps(original)
    def injected(self, **kwargs):
        kwargs.setdefault("workers", int(_WORKERS))
        original(self, **kwargs)

    MicroBatchScheduler.__init__ = injected
    try:
        yield
    finally:
        MicroBatchScheduler.__init__ = original


@pytest.fixture(autouse=True, scope="session")
def _sweep_backend_from_env():
    if not (_SWEEP_BACKEND or _SWEEP_WORKERS):
        yield
        return
    from repro.batch.sweep import TiledSweepRunner

    original = TiledSweepRunner.__init__

    @functools.wraps(original)
    def injected(self, **kwargs):
        if _SWEEP_BACKEND:
            kwargs.setdefault("backend", _SWEEP_BACKEND)
        if _SWEEP_WORKERS:
            kwargs.setdefault("workers", int(_SWEEP_WORKERS))
        original(self, **kwargs)

    TiledSweepRunner.__init__ = injected
    try:
        yield
    finally:
        TiledSweepRunner.__init__ = original
