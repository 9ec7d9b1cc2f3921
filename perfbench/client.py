"""Open- and closed-loop HTTP drivers that check every answer.

One asyncio process drives the server over a few keep-alive
connections.  The open loop sends on a seeded Poisson schedule
whatever the server does, and times each request from the instant it
was *due*, so a stall is charged to every request it delays; it also
records how late the generator itself woke for each send.  The closed
loop keeps each connection busy with one request at a time.

A request fails on a non-200 status (429 included), a timeout, a
connection error or an answer that is not bitwise the expected one.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.loadgen import RequestSpec

TIMEOUT_S = 30.0


@dataclass
class PhaseResult:
    """What one driving phase saw."""

    latencies_ms: list[float] = field(default_factory=list)
    #: Open loop: how late the generator sent each answered request
    #: (same order as ``latencies_ms``).
    lateness_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    points: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def cpu_share(self) -> float:
        """Client CPU time over wall time (1.0 = one core busy)."""
        return self.cpu_s / self.wall_s

    def fail(self, reason: str) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1


def check_answer(spec: RequestSpec, payload: Any,
                 optimize_refs: dict[float, tuple[float, float]]) -> bool:
    """Whether ``payload`` is bitwise the answer ``spec`` expects."""
    if spec.kind == "optimize":
        want = [optimize_refs[a] for a in spec.die_areas]
        got = list(zip(payload["optimal_feature_size_um"],
                       payload["cost_per_transistor_dollars"]))
        return got == want
    costs = payload["cost_per_transistor_dollars"]
    if spec.kind != "bulk":
        costs = [costs]
    return list(spec.expected) == costs


def points_of(spec: RequestSpec) -> int:
    """Cost points one request asks for."""
    if spec.die_areas is not None:
        return len(spec.die_areas)
    return len(spec.expected)


class Connection:
    """One keep-alive HTTP/1.1 client connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def post(self, target: str, body: bytes) -> tuple[int, Any]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
        self._writer.write(
            f"POST {target} HTTP/1.1\r\nhost: {self.host}\r\n"
            f"content-type: application/json\r\n"
            f"content-length: {len(body)}\r\n\r\n".encode() + body)
        await self._writer.drain()
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length, closing = 0, False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and "close" in value.lower():
                closing = True
        payload = json.loads(await self._reader.readexactly(length)) \
            if length else None
        if closing:
            self.close()
        return status, payload

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None


class Driver:
    """Sends specs to one server and tallies a :class:`PhaseResult`."""

    def __init__(self, host: str, port: int, *,
                 optimize_refs: dict[float, tuple[float, float]]) -> None:
        self.host = host
        self.port = port
        self.optimize_refs = optimize_refs

    async def _send(self, conn: Connection, spec: RequestSpec, body: bytes,
                    result: PhaseResult) -> bool:
        result.attempted += 1
        try:
            status, payload = await asyncio.wait_for(
                conn.post(spec.target, body), TIMEOUT_S)
        except asyncio.TimeoutError:
            conn.close()
            result.fail("timeout")
            return False
        except (OSError, asyncio.IncompleteReadError, ValueError):
            conn.close()
            result.fail("connection")
            return False
        if status != 200:
            result.fail(f"http_{status}")
            return False
        try:
            ok = check_answer(spec, payload, self.optimize_refs)
        except (KeyError, TypeError):  # not the answer's shape at all
            ok = False
        if not ok:
            result.fail("mismatch")
            return False
        result.points += points_of(spec)
        return True

    def open_loop(self, specs: Sequence[RequestSpec], *, rate: float,
                  connections: int, seed: int | str,
                  arrivals: str = "poisson") -> PhaseResult:
        """Send ``specs`` at ``rate``; time each from its due time.

        ``arrivals="poisson"`` draws exponential gaps from ``seed``;
        ``"uniform"`` spaces requests exactly ``1 / rate`` apart.
        """
        if arrivals == "poisson":
            draw = random.Random(seed)
            gaps = [draw.expovariate(rate) for _ in specs]
        elif arrivals == "uniform":
            gaps = [1.0 / rate] * len(specs)
        else:
            raise ValueError(f"unknown arrivals {arrivals!r}")
        return asyncio.run(self._open_loop(specs, gaps, connections))

    async def _open_loop(self, specs, gaps, connections):
        due, schedule = 0.0, []
        for spec, gap in zip(specs, gaps):
            due += gap
            schedule.append((due, spec, spec.body.encode()))
        result = PhaseResult()
        pool: asyncio.Queue[Connection] = asyncio.Queue()
        for _ in range(connections):
            pool.put_nowait(Connection(self.host, self.port))
        loop = asyncio.get_running_loop()

        async def issue(due_at: float, late_ms: float, spec: RequestSpec,
                        body: bytes):
            conn = await pool.get()
            try:
                ok = await self._send(conn, spec, body, result)
            finally:
                pool.put_nowait(conn)
            if ok:
                result.latencies_ms.append((loop.time() - due_at) * 1e3)
                result.lateness_ms.append(late_ms)

        # One task per request, created when the request is due: the
        # generator's lateness is how long after that instant it woke.
        start, cpu0 = loop.time(), time.process_time()
        tasks = []
        for offset, spec, body in schedule:
            due_at = start + offset
            delay = due_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late_ms = (loop.time() - due_at) * 1e3
            tasks.append(asyncio.create_task(
                issue(due_at, late_ms, spec, body)))
        await asyncio.gather(*tasks)
        result.wall_s = loop.time() - start
        result.cpu_s = time.process_time() - cpu0
        while not pool.empty():
            pool.get_nowait().close()
        return result

    def send_each(self, specs: Sequence[RequestSpec]) -> PhaseResult:
        """Send each spec once, one after another, on one connection."""
        return asyncio.run(self._send_each(specs))

    async def _send_each(self, specs):
        result = PhaseResult()
        conn = Connection(self.host, self.port)
        try:
            for spec in specs:
                await self._send(conn, spec, spec.body.encode(), result)
        finally:
            conn.close()
        return result

    def closed_loop(self, specs: Sequence[RequestSpec], *, seconds: float,
                    connections: int) -> PhaseResult:
        """Keep ``connections`` requests in flight for ``seconds``."""
        return asyncio.run(self._closed_loop(specs, seconds, connections))

    async def _closed_loop(self, specs, seconds, connections):
        bodies = [(spec, spec.body.encode()) for spec in specs]
        result = PhaseResult()
        loop = asyncio.get_running_loop()
        start, cpu0 = loop.time(), time.process_time()
        deadline = start + seconds
        cursor = itertools.count()

        async def client() -> None:
            conn = Connection(self.host, self.port)
            try:
                while loop.time() < deadline:
                    spec, body = bodies[next(cursor) % len(bodies)]
                    t0 = loop.time()
                    if await self._send(conn, spec, body, result):
                        result.latencies_ms.append((loop.time() - t0) * 1e3)
            finally:
                conn.close()

        await asyncio.gather(*(client() for _ in range(connections)))
        result.wall_s = loop.time() - start
        result.cpu_s = time.process_time() - cpu0
        return result
