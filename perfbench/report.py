"""What one run reports: metrics, counts, host facts and run validity."""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass, field

import numpy as np

from client import PhaseResult

#: A run is invalid, not a regression, when its client fell this far
#: behind the open-loop schedule (p99 of send lateness) ...
MAX_LATENESS_MS = 10.0
#: ... or spent this share of a core on itself in any phase.
MAX_CLIENT_CPU_SHARE = 0.9


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


@dataclass
class Report:
    """Metrics by name plus the operation tally and run facts."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Requests answered 429 (also counted in ``failed``).
    rejected: int = 0
    #: Correctness checks that failed, by name.
    errors: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    invalid: list[str] = field(default_factory=list)

    def add_phase(self, name: str, phase: PhaseResult) -> None:
        """Count a driving phase's operations and note its validity."""
        self.attempted += phase.attempted
        self.failed += phase.failed
        self.rejected += phase.failures.get("http_429", 0)
        if phase.failures:
            self.errors.append(f"{name}: {phase.failures}")
        key = f"{name}.requests"
        self.info[key] = self.info.get(key, 0) + phase.attempted
        share = max(phase.cpu_share, self.info.get("client_cpu_share.max", 0))
        self.info["client_cpu_share.max"] = share
        if phase.cpu_share > MAX_CLIENT_CPU_SHARE:
            self.invalid.append(
                f"{name}: client CPU share {phase.cpu_share:.2f}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one correctness check (an attempted operation)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{name} {detail}".strip())

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0

    def host_facts(self) -> dict:
        return {"nproc": nproc(), "python": platform.python_version(),
                "numpy": np.__version__}
