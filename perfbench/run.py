"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload singles --seed 1 --seconds 30 --trace 0

Workloads are ``singles`` and ``bulk`` (HTTP traffic against a live
``repro serve`` process) and ``landscape`` (in-process tiled sweeps).
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload again with spans around each layer's
entry points and reports the per-layer metrics.  The last line of
standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The line before it holds host facts, sample counts and whether the
run was valid (a client that fell behind its schedule or was
CPU-bound makes a run invalid, not a regression).  The exit code is
0 only when every correctness check passed; without the program's
sources next to the benchmark it is 2 and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("singles", "bulk", "landscape")

#: Per-layer metrics a workload cannot produce, by name prefix: the
#: layer does no work in it, so the traced run reports 0.
UNUSED_LAYERS = {
    "singles": ("batch.engine.transistor_cost", "batch.engine.computed",
                "batch.sweep."),
    "bulk": ("batch.engine.transistor_cost", "batch.engine.computed",
             "batch.sweep.", "core.optimization.", "obs.recording."),
    "landscape": ("serve.", "core.optimization.", "obs.recording.",
                  "loadgen.", "batch.engine.evaluate."),
}

#: Table 3 mean |log error| at the time the benchmark was written;
#: the model must not agree with the paper any worse.
TABLE3_MEAN_ABS_LOG_ERROR = 0.2216605719134598


def _args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _exit_on_sigterm(signum, frame) -> None:
    # Unwind through the ``finally`` blocks that stop the servers and
    # the pool instead of leaving them running.
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    args = _args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    trace = bool(args.trace)
    declared = _declared_metrics(trace)

    from repro.core.diversity import agreement_statistics, evaluate_catalog

    import landscape
    import serving

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        table3 = agreement_statistics(evaluate_catalog())
        if args.workload == "landscape":
            report = landscape.run(args.seed, args.seconds, trace)
        else:
            report = serving.run(serving.PLANS[args.workload], ROOT, workdir,
                                 args.seed, args.seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    error = table3["mean_abs_log_error"]
    report.check("Table 3 mean |log error|",
                 error <= TABLE3_MEAN_ABS_LOG_ERROR, f"rose to {error}")

    unused = UNUSED_LAYERS[args.workload] if trace else ()
    metrics = {}
    for name, unit in declared.items():
        if name in report.metrics:
            value = report.metrics[name]
        elif name.startswith(unused):
            value = 0.0
        else:
            raise RuntimeError(f"workload produced no {name}")
        metrics[name] = {"value": value, "unit": unit}
    report.info["valid"] = not report.invalid
    report.info["invalid_because"] = report.invalid
    report.info["errors"] = report.errors
    print(json.dumps({"info": report.info}))
    print(json.dumps({"correct": report.correct,
                      "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
