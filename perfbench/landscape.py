"""The ``landscape`` workload: in-process sweeps on ``TiledSweepRunner``.

One repetition is one landscape on fresh seeded axes: a
``FabCostSweep`` over a 1000×1000 N_tr×λ grid and a
``ChipletCrossoverSweep`` over k=1..16 × 4,000 budgets.  Each
repetition runs once on a ``workers=1`` runner and once on a
``workers=nproc`` runner (the shared-memory process pool), in
alternating order; the pool's grids must be bitwise the ``workers=1``
grids, and a seeded sample of cells must equal the scalar model.

Metrics: ``setup_s`` is building the pool runner and running its
first (tiny) sweep, which spawns the workers, as the median of
``SETUP_REPS``; ``p50_ms`` is the median gap between tiles delivered
to ``on_tile`` on the ``workers=1`` runner (their p99 goes to the
info line, as on the HTTP workloads); ``points_per_s`` and
``pool_points_per_s`` are the medians over landscapes of cells per
second on the two runners; ``closed_rps`` is the median of landscapes
per second on the pool; ``peak_rss_mb`` is the peak resident memory
of this process plus its pool workers.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field, fields
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

import inputs
from report import Report, nproc
from server import vm_hwm_mb
from stats import percentile
from tracing import SpanLog

from repro.batch import cache as batch_cache, sweep as batch_sweep
from repro.batch.sweep import (
    ChipletCrossoverSweep,
    FabCostSweep,
    TiledSweepRunner,
)
from repro.core.optimization import FIG8_FAB, transistor_cost_full
from repro.system.chiplet import ChipletCostModel

#: Cells per tile: 63 tiles per fab grid and 4 per chiplet plane.
TILE_SIZE = 16384
SETUP_REPS = 9
#: Axes index of the untimed warm-up landscape (timed ones count up
#: from 0 and never reach it).
WARMUP_REP = 1_000_000
#: A run keeps going until its tiles support a p99.
MIN_TILES = 1100

FAB, CHIPLET = FabCostSweep(), ChipletCrossoverSweep()
CHIPLET_MODEL = ChipletCostModel()


@dataclass
class Timing:
    """Accumulated time and work of one runner."""

    seconds: float = 0.0
    cells: int = 0
    #: Seconds each landscape took.
    landscapes: list[float] = field(default_factory=list)
    tile_gaps_ms: list[float] = field(default_factory=list)

    def median_rate(self, per_landscape: float = 1.0) -> float:
        """Median over landscapes of ``per_landscape`` / seconds."""
        return statistics.median(per_landscape / t for t in self.landscapes)


def _children_pids() -> list[int]:
    pids = []
    for task in Path("/proc/self/task").iterdir():
        text = (task / "children").read_text().split()
        pids.extend(int(p) for p in text)
    return pids


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The pool's shared-memory blocks start the tracker as a child of
    this process; left alone it outlives the benchmark by a moment and
    is never waited for.
    """
    resource_tracker._resource_tracker._stop()


def _start_pool(workers: int) -> TiledSweepRunner:
    """A pool runner whose workers have all been spawned."""
    runner = TiledSweepRunner(workers=workers, tile_size=TILE_SIZE)
    rows = np.linspace(1e5, 1e6, 2 * workers)
    runner.run(FAB, rows, np.linspace(0.5, 1.5, TILE_SIZE))
    return runner


def _landscape(runner: TiledSweepRunner, axes: inputs.Landscape,
               timing: Timing) -> tuple[np.ndarray, np.ndarray]:
    last = [0.0]

    def on_tile(tile, done, total) -> None:
        now = time.perf_counter()
        timing.tile_gaps_ms.append((now - last[0]) * 1e3)
        last[0] = now

    t0 = last[0] = time.perf_counter()
    fab = runner.run(FAB, axes.transistors, axes.feature_sizes,
                     on_tile=on_tile).values
    chiplet = runner.run(CHIPLET, axes.chiplets, axes.budgets,
                         on_tile=on_tile).values
    seconds = time.perf_counter() - t0
    timing.seconds += seconds
    timing.cells += fab.size + chiplet.size
    timing.landscapes.append(seconds)
    return fab, chiplet


def _check(report: Report, seed: int, rep: int, axes: inputs.Landscape,
           serial: tuple, pooled: tuple) -> None:
    """Pool bitwise equal to workers=1; sampled cells equal the scalar."""
    for name, a, b in zip(("fab", "chiplet"), serial, pooled):
        report.check(f"{name} pool == workers=1 (rep {rep})",
                     a.tobytes() == b.tobytes())
    fab, chiplet = serial
    bad = 0
    for i, j in inputs.sampled_cells(seed, rep, fab.shape):
        want = transistor_cost_full(float(axes.transistors[i]),
                                    float(axes.feature_sizes[j]), FIG8_FAB)
        got = float(fab[i, j])
        # The batch engine's stated tier for exp/pow-fed cells.
        if not (got == want or math.isclose(got, want, rel_tol=1e-12)):
            bad += 1
    for i, j in inputs.sampled_cells(seed, rep, chiplet.shape):
        want = CHIPLET_MODEL.cost_per_transistor(
            int(axes.chiplets[i]), float(axes.budgets[j]),
            CHIPLET.feature_size_um)
        if float(chiplet[i, j]) != want:
            bad += 1
    report.check(f"sampled cells == scalar (rep {rep})", bad == 0,
                 f"{bad} differ")


def run(seed: int, seconds: float, trace: bool) -> Report:
    report = Report()
    report.info.update(report.host_facts())
    workers = nproc()
    setups = []
    pool = None
    try:
        for _ in range(SETUP_REPS):
            if pool is not None:
                pool.close()
            t0 = time.perf_counter()
            pool = _start_pool(workers)
            setups.append(time.perf_counter() - t0)
        serial = TiledSweepRunner(workers=1, tile_size=TILE_SIZE)
        # Warm-up: one landscape on each runner, not timed.
        warm = inputs.landscape(seed, WARMUP_REP)
        _landscape(serial, warm, Timing())
        _landscape(pool, warm, Timing())
        if trace:
            _traced(report, seed, seconds, serial, pool, workers)
        else:
            _timed(report, seed, seconds, serial, pool)
        rss = vm_hwm_mb(os.getpid()) + sum(
            vm_hwm_mb(pid) for pid in _children_pids())
    finally:
        if pool is not None:
            pool.close()
        _stop_resource_tracker()
    if not trace:
        report.metrics["setup_s"] = statistics.median(setups)
        report.metrics["peak_rss_mb"] = rss
        report.info["setup_s.samples"] = setups
    return report


def _timed(report: Report, seed: int, seconds: float,
           serial_runner: TiledSweepRunner,
           pool_runner: TiledSweepRunner) -> None:
    serial, pooled = Timing(), Timing()
    rep = 0
    while (serial.seconds + pooled.seconds < seconds
           or len(serial.tile_gaps_ms) < MIN_TILES):
        axes = inputs.landscape(seed, rep)
        if rep % 2:
            p = _landscape(pool_runner, axes, pooled)
            s = _landscape(serial_runner, axes, serial)
        else:
            s = _landscape(serial_runner, axes, serial)
            p = _landscape(pool_runner, axes, pooled)
        _check(report, seed, rep, axes, s, p)
        rep += 1
    cells = axes.cells
    report.metrics.update({
        "p50_ms": percentile(serial.tile_gaps_ms, 0.50),
        "closed_rps": pooled.median_rate(),
        "points_per_s": serial.median_rate(cells),
        "pool_points_per_s": pooled.median_rate(cells),
    })
    report.info["landscapes"] = rep
    report.info["tile.samples"] = len(serial.tile_gaps_ms)
    report.info["p99_ms"] = percentile(serial.tile_gaps_ms, 0.99)


def _result_bytes(result) -> int:
    return sum(getattr(result, f.name).nbytes for f in fields(result)
               if isinstance(getattr(result, f.name), np.ndarray))


def _traced(report: Report, seed: int, seconds: float,
            serial_runner: TiledSweepRunner,
            pool_runner: TiledSweepRunner, workers: int) -> None:
    """Alternate traced and untraced ``workers=1`` landscapes.

    The pool runs untraced (its workers were spawned before any
    wrapping); its wall time against the traced tile compute gives
    the pool's overhead share.
    """
    log = SpanLog()
    computed = {"bytes": 0, "cells": 0}

    def count_cells(args, kwargs, result) -> int:
        cells = int(result.cost_per_transistor_dollars.size)
        computed["bytes"] += _result_bytes(result)
        computed["cells"] += cells
        return cells

    def install() -> None:
        log.wrap(FabCostSweep, "evaluate_tile", "batch.sweep.tile")
        log.wrap(ChipletCrossoverSweep, "evaluate_tile", "batch.sweep.tile")
        log.wrap(batch_sweep, "transistor_cost_batch",
                 "batch.engine.transistor_cost", count=count_cells)
        log.wrap(batch_sweep, "chiplet_cost_batch",
                 "batch.engine.chiplet_cost", count=count_cells)

    cache = batch_cache.default_cache()
    traced, untraced, pooled = Timing(), Timing(), Timing()
    hits = misses = 0
    tile_compute = 0.0
    rep = 0
    n_tiles = 0
    while (traced.seconds + untraced.seconds + pooled.seconds < seconds
           or n_tiles < MIN_TILES):
        axes = inputs.landscape(seed, rep)
        if rep % 2:
            s = _landscape(serial_runner, axes, untraced)
        else:
            before = cache.stats
            n_spans = len(log.spans)
            install()
            try:
                s = _landscape(serial_runner, axes, traced)
            finally:
                log.unwrap_all()
            after = cache.stats
            hits += after.hits - before.hits
            misses += after.misses - before.misses
            new = [sp for sp in log.spans[n_spans:]
                   if sp.name == "batch.sweep.tile"]
            n_tiles += len(new)
            tile_compute += sum(sp.end - sp.start for sp in new)
            p = _landscape(pool_runner, axes, pooled)
            _check(report, seed, rep, axes, s, p)
        rep += 1

    tiles = [sp for sp in log.spans if sp.name == "batch.sweep.tile"]
    kernels = {name: [sp for sp in log.spans if sp.name == name]
               for name in ("batch.engine.transistor_cost",
                            "batch.engine.chiplet_cost")}

    def us_per_cell(spans) -> float:
        return sum(sp.end - sp.start for sp in spans) * 1e6 \
            / sum(sp.n for sp in spans)

    fab_rows, fab_cols = inputs.FAB_GRID
    shm_bytes = 8 * (fab_rows + fab_cols + fab_rows * fab_cols
                     + inputs.CHIPLET_COUNTS + inputs.CHIPLET_BUDGETS
                     + inputs.CHIPLET_COUNTS * inputs.CHIPLET_BUDGETS)
    report.metrics.update({
        "batch.engine.transistor_cost.us_per_cell": us_per_cell(
            kernels["batch.engine.transistor_cost"]),
        "batch.engine.chiplet_cost.us_per_cell": us_per_cell(
            kernels["batch.engine.chiplet_cost"]),
        "batch.engine.computed_bytes_per_cell":
            computed["bytes"] / computed["cells"],
        "batch.cache.hit_ratio": hits / (hits + misses),
        "batch.cache.lookups": float(hits + misses),
        "batch.cache.misses": float(misses),
        "batch.sweep.tile_ms.p50": percentile(
            [(sp.end - sp.start) * 1e3 for sp in tiles], 0.50),
        "batch.sweep.tile_ms.p99": percentile(
            [(sp.end - sp.start) * 1e3 for sp in tiles], 0.99),
        "batch.sweep.pool_overhead_share":
            1.0 - tile_compute / (workers * pooled.seconds),
        "batch.sweep.shm_bytes": float(shm_bytes),
        "trace.overhead_share": (traced.seconds / traced.cells)
        / (untraced.seconds / untraced.cells) - 1.0,
        "trace.hooks_missing": float(len(set(log.missing))),
    })
