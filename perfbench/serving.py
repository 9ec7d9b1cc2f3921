"""The ``singles`` and ``bulk`` workloads against a live server.

Untraced run:

1. build the seeded requests and their expected answers (untimed);
2. for each of ``SERVERS`` server processes in turn:

   a. set-up: from the spawn to the first ``200`` on ``/healthz``
      plus one answered request of each form (the first flushes and
      lazy imports);
   b. warm-up: ``WARMUP_S`` of closed-loop traffic, not timed;
   c. its share of the open loop at the workload's fixed rate, a
      closed loop on one connection and a closed loop on ``nproc``
      connections, alternating in ``SLICES`` slices;
   d. its peak resident memory;

3. ``setup_s`` and ``peak_rss_mb`` are medians over the servers;
   latencies and throughputs pool the samples of all of them.  The
   open loop's p90 and p99 go to the info line only: on a shared
   2-CPU host they swing by half their value between runs.

A traced run measures ``closed_rps`` on an untraced server first,
then runs 2a–2c with all of the open loop on one server started
through the launcher, and turns its spans into the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import math
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
from client import Driver, PhaseResult
from report import MAX_LATENESS_MS, Report, nproc
from server import HOST, Server
from stats import percentile
from tracing import Span, load, self_times


@dataclass(frozen=True)
class Plan:
    """One HTTP workload's inputs and pacing."""

    make_inputs: Callable[[int, int, int], inputs.HttpInputs]
    rate: float               # open-loop requests per second, frozen
    arrivals: str             # "poisson" or "uniform" open-loop gaps
    n_closed: int             # distinct closed-loop requests (cycled)
    record: bool              # run the server with --record


#: Open-loop rates are fixed at about a third of the closed-loop
#: capacity measured on a 2-CPU host (``closed_rps``; bulk: requests
#: of 128 points), then frozen so runs stay comparable.  Bulk
#: requests arrive evenly spaced: at 43/s a run holds only ~1,100 of
#: them, too few for Poisson bursts to average out of their latency.
PLANS = {
    "singles": Plan(inputs.singles_inputs, rate=200.0, arrivals="poisson",
                    n_closed=2000, record=True),
    "bulk": Plan(inputs.bulk_inputs, rate=43.0, arrivals="uniform",
                 n_closed=512, record=False),
}

#: Server processes per run.  Two processes of the same code measured
#: 12 % apart in p50 and 2× apart in p99 under the same traffic, so a
#: run measures on several and pools their samples.
SERVERS = 3
#: Slices each server's phases alternate in (see ``_round``): the
#: host's speed drifts within seconds, and CPU-bound bulk throughput
#: follows it.
SLICES = 3
WARMUP_S = 0.5
#: Shares of ``--seconds`` spent in each kind of timed phase.
OPEN_SHARE, CLOSED_ONE_SHARE, CLOSED_N_SHARE = 0.7, 0.1, 0.2
#: The open loop always sends enough requests for a p99 (1,000 plus).
MIN_OPEN_REQUESTS = 1100


@dataclass
class Measured:
    """The timed phases of every server of a run."""

    latencies_ms: list[float] = field(default_factory=list)
    lateness_ms: list[float] = field(default_factory=list)
    closed_one: list[PhaseResult] = field(default_factory=list)
    closed_n: list[PhaseResult] = field(default_factory=list)

    @staticmethod
    def rate(phases: list[PhaseResult], points: bool = False) -> float:
        """Requests (or points) per second over all the phases."""
        done = sum(p.points if points else p.completed for p in phases)
        return done / sum(p.wall_s for p in phases)


def _start(root: Path, workdir: Path, plan: Plan, data, *,
           trace_out: Path | None = None) -> tuple[Server, Driver, float]:
    """Start a server and answer one request of each form."""
    server = Server(root, workdir, record=plan.record, trace_out=trace_out)
    try:
        healthy = server.start()
        driver = Driver(HOST, server.port, optimize_refs=data.optimize_refs)
        t0 = time.perf_counter()
        first = driver.send_each(data.first_of_each_form)
        if first.failed:
            raise RuntimeError(f"first requests failed: {first.failures}")
        return server, driver, healthy + (time.perf_counter() - t0)
    except BaseException:
        server.kill()
        raise


def _warm_up(driver: Driver, data, report: Report) -> None:
    warm = driver.closed_loop(data.closed_loop, seconds=WARMUP_S,
                              connections=nproc())
    report.check("warm-up", warm.failed == 0, str(warm.failures))


def _round(driver: Driver, open_specs, data, plan: Plan, seed: str,
           seconds: float, report: Report, out: Measured) -> None:
    """One server's timed phases; every phase is tallied into ``report``.

    The phases alternate in ``SLICES`` slices, so each samples the
    whole stretch of time the server runs in.
    """
    per_slice = math.ceil(len(open_specs) / SLICES)
    for k in range(SLICES):
        opened = driver.open_loop(
            open_specs[k * per_slice:(k + 1) * per_slice], rate=plan.rate,
            connections=nproc(), seed=f"{seed}/{k}", arrivals=plan.arrivals)
        report.add_phase("open_loop", opened)
        out.latencies_ms += opened.latencies_ms
        out.lateness_ms += opened.lateness_ms
        for phase, conns, share in (("closed_one", 1, CLOSED_ONE_SHARE),
                                    ("closed_n", nproc(), CLOSED_N_SHARE)):
            result = driver.closed_loop(
                data.closed_loop, seconds=seconds * share / SLICES,
                connections=conns)
            report.add_phase(phase, result)
            getattr(out, phase).append(result)


def _tail(latencies_ms: list[float]) -> dict:
    """The open loop's tail, reported but not gated (see README)."""
    return {"latency.samples": len(latencies_ms),
            "p90_ms": percentile(latencies_ms, 0.90),
            "p99_ms": percentile(latencies_ms, 0.99)}


def _check_lateness(out: Measured, report: Report) -> float:
    lateness = percentile(out.lateness_ms, 0.99)
    report.info["open_loop.lateness_ms.p99"] = lateness
    if lateness > MAX_LATENESS_MS:
        report.invalid.append(f"open loop ran {lateness:.1f} ms late (p99)")
    return lateness


def run(plan: Plan, root: Path, workdir: Path, seed: int, seconds: float,
        trace: bool) -> Report:
    report = Report()
    report.info.update(report.host_facts())
    n_open = max(MIN_OPEN_REQUESTS, round(plan.rate * seconds * OPEN_SHARE))
    data = plan.make_inputs(seed, n_open, plan.n_closed)
    # The client's inputs live for the whole run: keep them out of its
    # garbage collections so collector pauses do not delay sends.
    gc.collect()
    gc.freeze()
    if trace:
        return _run_traced(plan, root, workdir, seed, seconds, data, report)

    m = Measured()
    setups, rss = [], []
    per_server = math.ceil(n_open / SERVERS)
    for i in range(SERVERS):
        server, driver, setup = _start(root, workdir, plan, data)
        setups.append(setup)
        with server:
            _warm_up(driver, data, report)
            _round(driver, data.open_loop[i * per_server:
                                          (i + 1) * per_server],
                   data, plan, f"{seed}/{i}", seconds / SERVERS, report, m)
            rss.append(server.peak_rss_mb())
            report.check("server exit", server.stop() == 0)
    _check_lateness(m, report)
    report.metrics.update({
        "setup_s": statistics.median(setups),
        "p50_ms": percentile(m.latencies_ms, 0.50),
        "closed_rps": m.rate(m.closed_n),
        "points_per_s": m.rate(m.closed_one, points=True),
        "pool_points_per_s": m.rate(m.closed_n, points=True),
        "peak_rss_mb": statistics.median(rss),
    })
    report.info.update(_tail(m.latencies_ms))
    report.info["setup_s.samples"] = setups
    return report


def _run_traced(plan, root, workdir, seed, seconds, data, report) -> Report:
    server, driver, _ = _start(root, workdir, plan, data)
    with server:
        _warm_up(driver, data, report)
        untraced = driver.closed_loop(
            data.closed_loop, seconds=seconds * CLOSED_N_SHARE,
            connections=nproc())
        report.add_phase("untraced_closed_n", untraced)
        report.check("server exit", server.stop() == 0)

    trace_out = workdir / "server-trace.json"
    server, driver, _ = _start(root, workdir, plan, data,
                               trace_out=trace_out)
    m = Measured()
    with server:
        _warm_up(driver, data, report)
        server.signal(signal.SIGUSR1)
        _round(driver, data.open_loop, data, plan, str(seed), seconds,
               report, m)
        report.check("server exit", server.stop() == 0)
    with open(trace_out) as fh:
        trace = json.load(fh)
    report.metrics.update(server_layers(trace, report))
    report.metrics.update({
        "loadgen.lateness_ms.p99": _check_lateness(m, report),
        "loadgen.cpu_share": report.info["client_cpu_share.max"],
        "trace.overhead_share":
            Measured.rate([untraced]) / m.rate(m.closed_n) - 1.0,
    })
    return report


def _sum(spans) -> int:
    return sum(s.n for s in spans)


def _seconds(spans) -> float:
    return sum(s.end - s.start for s in spans)


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def _pct(values: list[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def server_layers(trace: dict, report: Report) -> dict[str, float]:
    """Per-layer metrics from one server trace.

    A layer with no spans (not used, or its entry point is gone, see
    ``trace.hooks_missing``) reads 0.
    """
    spans, totals = load(trace)
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)
    summed: dict[str, list[float]] = {}
    for t in totals:
        entry = summed.setdefault(t.name, [0.0, 0])
        entry[0] += t.seconds
        entry[1] += t.n

    def get(name):
        return named.get(name, [])

    own = self_times(spans, totals)
    requests = get("serve.http.request")
    flushes = get("serve.scheduler.flush")
    executor = get("serve.executor")
    engine = get("batch.engine.evaluate") + get("batch.engine.chiplet_cost")
    chiplet = get("batch.engine.chiplet_cost")
    build = summed.get("serve.query.build", [0.0, 0])
    encode_rows = summed.get("serve.io.encode", [0.0, 0])
    encode_docs = get("serve.io.encode")
    waits = trace["queue_wait_ms"]
    cache = trace["cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "serve.http.parse_us": _per(_seconds(get("serve.http.parse")),
                                    _sum(get("serve.http.parse")), 1e6),
        "serve.http.request_us": _per(sum(own[s.sid] for s in requests),
                                      len(requests), 1e6),
        "serve.query.build_us_per_point": _per(build[0], build[1], 1e6),
        "serve.io.encode_us_per_point": _per(
            encode_rows[0] + _seconds(encode_docs),
            encode_rows[1] + _sum(encode_docs), 1e6),
        "serve.aio.wait_us": _per(_seconds(get("serve.aio.wait")),
                                  len(get("serve.aio.wait")), 1e6),
        "serve.scheduler.queue_wait_ms.p50": _pct(waits, 0.50),
        "serve.scheduler.queue_wait_ms.p99": _pct(waits, 0.99),
        "serve.scheduler.requests_per_flush": _per(_sum(flushes),
                                                   len(flushes)),
        "serve.scheduler.unique_share": _per(sum(trace["flush_unique"]),
                                             _sum(flushes)),
        "serve.scheduler.flush_ms.p50": _pct(
            [(s.end - s.start) * 1e3 for s in flushes], 0.50),
        "serve.scheduler.rejected": _per(report.rejected, report.attempted),
        "serve.executor.us_per_point": _per(_seconds(executor),
                                            _sum(executor), 1e6),
        "serve.executor.groups_per_flush": _per(len(executor),
                                                len(flushes)),
        "batch.engine.chiplet_cost.us_per_cell": _per(
            _seconds(chiplet), _sum(chiplet), 1e6),
        "batch.engine.evaluate.us_per_cell": _per(_seconds(engine),
                                                  _sum(engine), 1e6),
        "batch.cache.hit_ratio": _per(cache["hits"], lookups),
        "batch.cache.lookups": float(lookups),
        "batch.cache.misses": float(cache["misses"]),
        "core.optimization.ms_per_area": _per(
            _seconds(get("core.optimization")),
            _sum(get("core.optimization")), 1e3),
        "obs.recording.us_per_flush": _per(
            _seconds(get("obs.recording")), len(get("obs.recording")),
            1e6),
        "trace.hooks_missing": float(len(trace["missing"])),
    }
