"""The run-dir reporter: raw per-config JSON → results.csv → report.md.

:func:`run_all` is the ``python -m repro replay --run-dir DIR`` engine
and follows the run-dir idiom end to end: every replayed config writes
its full measurement as ``raw/<name>.json``; :func:`to_results_csv`
aggregates the raw files into one ``results.csv`` row per config; and
:func:`write_report` renders ``report.md`` — a markdown comparison
table ranked by wall time, with p50/p95/p99 latency, flush occupancy,
dedup, and parity columns.  Because each stage only reads the previous
stage's files, the CSV and report can be regenerated from ``raw/``
alone, and partial runs leave usable artifacts.

By default one config runs: ``thread``, the scheduler's one execution
path.  Callers may pass several configs (say, different worker counts
or tick shapes) to compare them on the same log.

Layout of a finished run dir::

    DIR/
      raw/<config>.json     one ReplayResult.to_dict() per config
      results.csv           one aggregated row per config
      report.md             ranked markdown comparison
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path
from typing import Any, Sequence

from ..errors import ParameterError
from ..obs import span as _span
from ..obs.recording import RecordedLog, load_recorded_log
from .engine import ReplayConfig, ReplayResult, replay_log

__all__ = ["CSV_COLUMNS", "run_all", "to_results_csv", "write_report"]

#: Columns of ``results.csv``, in order.
CSV_COLUMNS = (
    "config", "workers", "mode", "n_queries", "mismatches",
    "wall_s", "qps", "p50_ms", "p95_ms", "p99_ms", "flushes",
    "mean_flush_requests", "mean_occupancy", "dedup_rate",
    "max_queue_depth",
)


def _write_raw(run_dir: Path, result: ReplayResult) -> Path:
    raw_dir = run_dir / "raw"
    raw_dir.mkdir(parents=True, exist_ok=True)
    path = raw_dir / f"{result.config.name}.json"
    path.write_text(json.dumps(result.to_dict(), indent=2) + "\n",
                    encoding="utf-8")
    return path


def _load_raw(run_dir: Path) -> list[dict[str, Any]]:
    raw_dir = Path(run_dir) / "raw"
    if not raw_dir.is_dir():
        raise ParameterError(f"no raw/ directory under {run_dir}")
    docs = []
    for path in sorted(raw_dir.glob("*.json")):
        docs.append(json.loads(path.read_text(encoding="utf-8")))
    if not docs:
        raise ParameterError(f"no raw/*.json results under {run_dir}")
    docs.sort(key=lambda d: d["wall_s"])
    return docs


def to_results_csv(run_dir: str | os.PathLike) -> Path:
    """Aggregate ``raw/*.json`` into ``results.csv`` (one row/config).

    Rows are ordered fastest-first by wall time.  Returns the CSV
    path; raises :class:`~repro.errors.ParameterError` when the run
    dir has no raw results.
    """
    run_dir = Path(run_dir)
    docs = _load_raw(run_dir)
    path = run_dir / "results.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for doc in docs:
            cfg = doc["config"]
            writer.writerow([
                cfg["name"], cfg["workers"], doc["mode"],
                doc["n_queries"], doc["mismatches"], doc["wall_s"],
                doc["qps"], doc["p50_ms"], doc["p95_ms"], doc["p99_ms"],
                doc["flushes"], doc["mean_flush_requests"],
                doc["mean_occupancy"], doc["dedup_rate"],
                doc["max_queue_depth"]])
    return path


def write_report(run_dir: str | os.PathLike) -> Path:
    """Render ``report.md`` from the run dir's raw results.

    A ranked comparison table (fastest config first) with throughput,
    p50/p95/p99 latency, flush occupancy, dedup rate, and the parity
    verdict.  Returns the report path.
    """
    run_dir = Path(run_dir)
    docs = _load_raw(run_dir)
    lines = ["# Replay comparison report", ""]
    head = docs[0]
    lines.append(
        f"{head['n_queries']} replayed queries per config, "
        f"mode `{head['mode']}` (speed ×{head['speed']:g}).")
    lines.append("")
    lines.append(
        "| rank | config | workers | wall s | qps "
        "| p50 ms | p95 ms | p99 ms | occupancy | dedup | mismatches |")
    lines.append(
        "|---:|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
    for rank, doc in enumerate(docs, start=1):
        cfg = doc["config"]
        lines.append(
            f"| {rank} | {cfg['name']} "
            f"| {cfg['workers']} | {doc['wall_s']:.3f} "
            f"| {doc['qps']:.0f} | {doc['p50_ms']:.2f} "
            f"| {doc['p95_ms']:.2f} | {doc['p99_ms']:.2f} "
            f"| {doc['mean_occupancy']:.2f} | {doc['dedup_rate']:.2f} "
            f"| {doc['mismatches']} |")
    lines.append("")
    total_mismatches = sum(d["mismatches"] for d in docs)
    if total_mismatches == 0:
        lines.append(
            "**Parity:** every replayed cost was bitwise equal to the "
            "recording, across all configs.")
    else:
        lines.append(
            f"**Parity: FAILED** — {total_mismatches} bitwise "
            f"mismatches against the recording (serve contract "
            f"violation; see raw/*.json).")
    lines.append("")
    path = run_dir / "report.md"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def run_all(log: RecordedLog | str | os.PathLike,
            run_dir: str | os.PathLike, *,
            configs: Sequence[ReplayConfig] | None = None,
            workers: int = 2,
            mode: str = "closed",
            speed: float = 1.0,
            timeout: float = 300.0) -> dict[str, Any]:
    """Replay a log against every config and emit the full run dir.

    ``configs`` defaults to the single ``thread`` config at
    ``workers`` threads.  Returns a summary dict with the
    :class:`~repro.replay.engine.ReplayResult` list (``"results"``),
    the artifact paths, and the total bitwise ``"mismatches"``.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(log, (str, os.PathLike)):
        log = load_recorded_log(log)
    if configs is None:
        configs = [ReplayConfig(name="thread", workers=workers)]

    results: list[ReplayResult] = []
    with _span("replay.rundir", configs=len(configs)):
        for config in configs:
            result = replay_log(log, config, mode=mode, speed=speed,
                                timeout=timeout)
            _write_raw(run_dir, result)
            results.append(result)
        csv_path = to_results_csv(run_dir)
        report_path = write_report(run_dir)
    return {
        "run_dir": run_dir,
        "results": results,
        "csv": csv_path,
        "report": report_path,
        "mismatches": sum(r.mismatches for r in results),
    }
