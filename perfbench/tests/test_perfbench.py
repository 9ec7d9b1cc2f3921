"""The benchmark's own tests.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest

import inputs
from client import Driver
from repro.loadgen import RequestSpec
from stats import TooFewSamples, percentile
from tracing import Span, SpanLog, Total, self_times


# -- seeded inputs -----------------------------------------------------------

def _singles(seed):
    return inputs.singles_inputs(seed, 40, 20)


def _bulk(seed):
    return inputs.bulk_inputs(seed, 3, 2)


@pytest.mark.parametrize("make", [_singles, _bulk])
def test_same_seed_same_requests_and_answers(make):
    a, b = make(7), make(7)
    assert [(s.body, s.expected, s.die_areas) for s in a.open_loop] \
        == [(s.body, s.expected, s.die_areas) for s in b.open_loop]
    assert [s.body for s in a.closed_loop] == [s.body for s in b.closed_loop]
    assert a.optimize_refs == b.optimize_refs


@pytest.mark.parametrize("make", [_singles, _bulk])
def test_other_seed_other_requests(make):
    a, b = make(7), make(8)
    assert [s.body for s in a.open_loop] != [s.body for s in b.open_loop]
    assert [s.expected for s in a.open_loop] \
        != [s.expected for s in b.open_loop]


def test_bulk_requests_alternate_row_and_columnar_forms():
    data = _bulk(3)
    first, second = (json.loads(s.body) for s in data.open_loop[:2])
    assert len(first["queries"]) == inputs.BULK_SIZE
    assert len(second["points"]["transistors"]) == inputs.BULK_SIZE
    assert all(len(s.expected) == inputs.BULK_SIZE for s in data.open_loop)


def test_landscape_axes_follow_the_seed():
    a, b, c = (inputs.landscape(s, 0) for s in (5, 5, 6))
    for name in ("transistors", "feature_sizes", "budgets"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
        assert not np.array_equal(getattr(a, name), getattr(c, name))
    assert not np.array_equal(a.transistors,
                              inputs.landscape(5, 1).transistors)
    assert a.cells == 1000 * 1000 + 16 * 4000


# -- percentiles -------------------------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    assert percentile(list(range(1000)), 0.99) == 989
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 0.99)


def test_median_needs_ten_samples_beyond_it():
    assert percentile(list(range(20)), 0.5) == 9
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 0.5)


# -- open-loop timing --------------------------------------------------------

class SlowServer:
    """Answers every POST after ``delay_s``, one request at a time."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s
        self.port = None
        self._ready = threading.Event()
        self._stop = None
        self._thread = threading.Thread(target=asyncio.run,
                                        args=(self._main(),), daemon=True)

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.port = server.sockets[0].getsockname()[1]
        self.loop = asyncio.get_running_loop()
        self._ready.set()
        async with server:
            await self._stop.wait()

    async def _serve(self, reader, writer) -> None:
        body = json.dumps({"cost_per_transistor_dollars": 1.0}).encode()
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.lower().split(b"content-length:")[1]
                             .split(b"\r\n")[0])
                await reader.readexactly(length)
                await asyncio.sleep(self.delay_s)
                writer.write(b"HTTP/1.1 200 OK\r\ncontent-length: "
                             + str(len(body)).encode() + b"\r\n\r\n" + body)
                await writer.drain()
        except asyncio.IncompleteReadError:
            writer.close()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10)
        return self

    def __exit__(self, *exc):
        self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(10)
        assert not self._thread.is_alive()


def test_open_loop_latency_runs_from_the_scheduled_send_time():
    # Three requests due almost at once share one connection to a
    # server that takes 50 ms each: the second and third wait for the
    # connection, and that wait counts against their latency.
    spec = RequestSpec("cost", "/v1/cost", "{}", (1.0,))
    with SlowServer(0.05) as server:
        driver = Driver("127.0.0.1", server.port, optimize_refs={})
        result = driver.open_loop([spec] * 3, rate=1e6, connections=1,
                                  seed=0)
    assert result.failed == 0
    first, second, third = sorted(result.latencies_ms)
    assert 50 <= first < 90
    assert 100 <= second < 140
    assert 150 <= third < 190
    assert max(result.lateness_ms) < 40


def test_wrong_answer_counts_as_failure():
    spec = RequestSpec("cost", "/v1/cost", "{}", (2.0,))
    with SlowServer(0.0) as server:
        driver = Driver("127.0.0.1", server.port, optimize_refs={})
        result = driver.send_each([spec])
    assert result.failures == {"mismatch": 1}


# -- spans -------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, None, "root", 0.0, 10.0, 1, None, 1),
        Span(2, 1, "a", 1.0, 4.0, 1, None, 1),
        Span(3, 1, "b", 3.0, 6.0, 1, None, 1),   # overlaps a: [1, 6]
        Span(4, 2, "c", 2.0, 3.0, 1, None, 1),
        Span(5, 1, "late", 9.0, 12.0, 1, None, 1),  # clipped to [9, 10]
    ]
    totals = [Total(1, "per_point", 1.5, 3, 3)]
    own = self_times(spans, totals)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0 - 1.5)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


class Layer:
    @staticmethod
    def leaf(x):
        return x + 1

    def outer(self, x):
        return Layer.leaf(x) * 2

    async def handle(self, x):
        await asyncio.sleep(0)
        return self.outer(x)


def test_wrapped_calls_nest_and_unwrap():
    log = SpanLog()
    log.wrap(Layer, "handle", "handle", root=True)
    log.wrap(Layer, "outer", "outer")
    log.wrap(Layer, "leaf", "leaf", total=True,
             count=lambda args, kwargs, result: args[0])

    async def two_requests():
        layer = Layer()
        return await asyncio.gather(layer.handle(1), layer.handle(2))

    assert asyncio.run(two_requests()) == [4, 6]
    handles = [s for s in log.spans if s.name == "handle"]
    outers = [s for s in log.spans if s.name == "outer"]
    assert {s.req for s in handles} == {s.sid for s in handles}
    assert {(o.parent, o.req) for o in outers} \
        == {(h.sid, h.sid) for h in handles}
    assert sorted(t.n for t in log.totals) == [1, 2]
    assert {t.parent for t in log.totals} == {o.sid for o in outers}
    log.unwrap_all()
    assert Layer().outer(1) == 4 and len(log.spans) == 4
    assert "leaf" in Layer.__dict__ and Layer.leaf(1) == 2


def test_missing_entry_point_is_skipped_and_noted():
    log = SpanLog()
    log.wrap(Layer, "gone", "gone")
    assert log.missing == ["Layer.gone"]


class FakeQuery:
    def __init__(self, point):
        self._point = point

    def signature(self):
        return "fab"

    def point(self):
        return self._point


class FakeTicket:
    def __init__(self, query):
        self.query = query


class FakeScheduler:
    """The submit / flush shape of ``MicroBatchScheduler``."""

    executor = None  # set by the test: has execute_group

    def __init__(self):
        self.pending = []

    def submit(self, query, *, timeout=None):
        self.pending.append(FakeTicket(query))

    def submit_many(self, queries, *, timeout=None):
        self.pending += [FakeTicket(q) for q in queries]

    def _flush(self, tickets):
        FakeScheduler.executor.execute_group(None, [t.query.point()
                                                    for t in tickets])


def test_queue_wait_runs_from_submit_to_the_flush_executor_call():
    import types

    from launcher import ServerHooks

    ticks = iter([1.0, 2.0, 3.0, 4.0, 5.0])
    log = SpanLog(clock=lambda: next(ticks))
    FakeScheduler.executor = types.SimpleNamespace(
        execute_group=lambda exemplar, points: None)
    hooks = ServerHooks(log)
    hooks.wrap_scheduler(FakeScheduler)
    log.wrap(FakeScheduler.executor, "execute_group", "serve.executor",
             count=lambda a, k, r: len(a[1]))
    try:
        sched = FakeScheduler()
        sched.submit_many([FakeQuery((1.0, 0.5)), FakeQuery((1.0, 0.5))])
        # submit stamps at 1.0; the flush opens at 2.0; the executor
        # runs 3.0–4.0; the flush closes at 5.0.
        sched._flush(sched.pending)
    finally:
        log.unwrap_all()
    assert hooks.queue_waits_ms() == [2000.0, 2000.0]
    assert list(hooks.flush_unique.values()) == [1]
    flush = [s for s in log.spans if s.name == "serve.scheduler.flush"]
    executor = [s for s in log.spans if s.name == "serve.executor"]
    assert (flush[0].start, flush[0].end, flush[0].n) == (2.0, 5.0, 2)
    assert executor[0].flush == flush[0].sid and executor[0].n == 2
