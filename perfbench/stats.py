"""Order statistics with the sample-count rule the benchmark reports by.

A percentile is only reported when at least ten samples lie beyond it,
so a p99 needs 1,000 samples; below that the number is mostly noise
from the one or two slowest samples.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie beyond a reported percentile.
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``values``.

    Raises :class:`TooFewSamples` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond the rank.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{q * 100:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{n} samples leave {n - rank}")
    return sorted(values)[rank - 1]


