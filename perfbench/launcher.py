"""``repro serve`` with spans around each layer's entry points.

Usage::

    python perfbench/launcher.py TRACE.json serve [serve options...]

Wraps the program's functions listed in :func:`install`, then runs
the ``repro`` CLI with the remaining arguments, exactly as
``python -m repro`` would.  Spans stay in memory.  ``SIGUSR1`` drops
everything recorded so far (the benchmark sends it after its warm-up)
and ``SIGTERM`` drains the server as usual; after the drain the spans,
the per-request queue waits and the batch cache's hit and miss counts
since the last ``SIGUSR1`` are written to ``TRACE.json``.
"""

from __future__ import annotations

import json
import signal
import sys

import numpy as np

from tracing import SpanLog


def _one(args, kwargs, result) -> int:
    return 1


def _none(args, kwargs, result) -> int:
    return 0


def _length(args, kwargs, result) -> int:
    return len(result)


class ServerHooks:
    """The scheduler bookkeeping a plain span cannot carry.

    Queue wait runs from a query's submit to the start of the first
    executor call of the flush that serves it, so submits are stamped
    per query and each flush keeps its queries' stamps.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.submitted: dict[int, float] = {}
        self.flush_submits: dict[int, list[float]] = {}
        self.flush_unique: dict[int, int] = {}

    def reset(self) -> None:
        self.flush_submits.clear()
        self.flush_unique.clear()

    def wrap_scheduler(self, cls) -> None:
        log, submitted = self.log, self.submitted
        names = ("submit", "submit_many", "_flush")
        absent = [f"{cls.__name__}.{a}" for a in names if not hasattr(cls, a)]
        if absent:
            log.missing += absent
            return
        submit, submit_many, flush = cls.submit, cls.submit_many, cls._flush

        def stamped_submit(sched, query, **kwargs):
            submitted[id(query)] = log.clock()
            return submit(sched, query, **kwargs)

        def stamped_submit_many(sched, queries, **kwargs):
            queries = list(queries)
            now = log.clock()
            for query in queries:
                submitted[id(query)] = now
            return submit_many(sched, queries, **kwargs)

        def traced_flush(sched, tickets):
            stamps = [submitted.pop(id(t.query), None) for t in tickets]
            unique = len({(t.query.signature(), t.query.point())
                          for t in tickets})
            opened = log.open(flush=True)
            start = log.clock()
            try:
                return flush(sched, tickets)
            finally:
                log.close(opened, "serve.scheduler.flush", start,
                          log.clock(), len(tickets))
                self.flush_submits[opened[0]] = [
                    s for s in stamps if s is not None]
                self.flush_unique[opened[0]] = unique

        log.replace(cls, "submit", stamped_submit)
        log.replace(cls, "submit_many", stamped_submit_many)
        log.replace(cls, "_flush", traced_flush)

    def queue_waits_ms(self) -> list[float]:
        """Per query: submit → first executor call of its flush."""
        first_exec: dict[int, float] = {}
        for s in self.log.spans:
            if s.name == "serve.executor" and s.flush is not None:
                first_exec[s.flush] = min(first_exec.get(s.flush, s.start),
                                          s.start)
        return [(first_exec[fid] - t) * 1e3
                for fid, stamps in self.flush_submits.items()
                if fid in first_exec for t in stamps]


def install(log: SpanLog) -> ServerHooks:
    """Wrap every layer's entry points in the server process."""
    from repro.core import optimization
    from repro.obs import recording
    from repro.serve import aio, backend, executor, http, scheduler

    log.wrap(http.RequestParser, "feed", "serve.http.parse",
             count=_length)
    log.wrap(http.CostHttpServer, "_handle", "serve.http.request",
             root=True)
    for name in ("point_to_query", "chiplet_point_to_query",
                 "record_to_query"):
        log.wrap(http, name, "serve.query.build", count=_one, total=True)
    # Normalisation belongs to building a point, but is not a point.
    log.wrap(http, "normalize_point", "serve.query.build", count=_none,
             total=True)
    log.wrap(http, "served_row", "serve.io.encode", count=_one, total=True)
    log.wrap(http, "format_served_json", "serve.io.encode",
             count=lambda a, k, r: len(a[0]))
    log.wrap(aio.AsyncCostService, "evaluate", "serve.aio.wait",
             count=_one)
    log.wrap(aio.AsyncCostService, "map_bulk", "serve.aio.wait",
             count=_length)
    hooks = ServerHooks(log)
    hooks.wrap_scheduler(scheduler.MicroBatchScheduler)
    log.wrap(backend, "execute_group", "serve.executor",
             count=lambda a, k, r: len(a[1]))
    log.wrap(executor, "dies_per_wafer_batch", "batch.engine.evaluate",
             count=lambda a, k, r: int(np.size(a[1])))
    log.wrap(executor, "chiplet_cost_batch", "batch.engine.chiplet_cost",
             count=lambda a, k, r: int(r.cost_per_transistor_dollars.size))
    log.wrap(recording.QueryRecorder, "record_flush", "obs.recording")
    log.wrap(optimization, "optimal_feature_size_for_die_areas",
             "core.optimization", count=lambda a, k, r: len(a[0]))
    return hooks


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    from repro.batch.cache import default_cache
    from repro.cli import main as cli_main

    log = SpanLog()
    hooks = install(log)
    base = {"stats": default_cache().stats}

    def reset(signum, frame) -> None:
        log.reset()
        hooks.reset()
        base["stats"] = default_cache().stats

    signal.signal(signal.SIGUSR1, reset)
    status = cli_main(cli_args)
    stats, start = default_cache().stats, base["stats"]
    data = log.dump()
    data["queue_wait_ms"] = hooks.queue_waits_ms()
    data["flush_unique"] = list(hooks.flush_unique.values())
    data["cache"] = {"hits": stats.hits - start.hits,
                     "misses": stats.misses - start.misses}
    with open(trace_out, "w") as fh:
        json.dump(data, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
