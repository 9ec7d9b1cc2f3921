"""Seeded inputs and their expected answers.

Everything the program is sent comes from here, drawn from the
``--seed`` alone: the same seed gives the same request bodies, the
same expected costs and the same sweep axes.  Expected answers come
from the program's scalar references (``scalar_reference_cost``,
``optimal_feature_size_for_die_area``, ``transistor_cost_full``,
``ChipletCostModel.cost_per_transistor``) and are computed before any
timing starts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

from repro.core.optimization import optimal_feature_size_for_die_area
from repro.loadgen import RequestSpec, build_workload
from repro.obs.recording import query_to_record
from repro.serve.http import point_to_query
from repro.serve.query import FabCostQuery, scalar_reference_cost

#: ``singles`` endpoint mix: share of requests per kind.
SINGLES_MIX = {"cost": 0.75, "chiplet": 0.20, "optimize": 0.05,
               "bulk": 0.0}

#: ``bulk``: points per request and distinct points in the pool.
BULK_SIZE = 128
BULK_POOL = 20_000
LAMBDA_RANGE_UM = (0.25, 2.0)
LOG10_TRANSISTORS = (5.0, 9.0)

#: ``landscape``: fab grid (N_tr rows × λ cols) and chiplet plane
#: (k rows × budget cols, at the spec's default λ).
FAB_GRID = (1000, 1000)
CHIPLET_COUNTS = 16
CHIPLET_BUDGETS = 4000
LOG10_BUDGETS = (6.0, 10.0)
#: Cells per landscape repetition compared with the scalar model.
SAMPLED_CELLS = 32


@dataclass(frozen=True)
class HttpInputs:
    """Request specs for one HTTP workload, with expected answers."""

    open_loop: list[RequestSpec]
    closed_loop: list[RequestSpec]
    #: One spec per request form, sent first (the warm-up).
    first_of_each_form: list[RequestSpec]
    #: die area → (optimal λ, cost) from the scalar optimizer.
    optimize_refs: dict[float, tuple[float, float]]


def singles_inputs(seed: int, n_open: int, n_closed: int) -> HttpInputs:
    """``singles``: mixed single-point requests on the Fig.-8 grid."""
    specs = build_workload(n_open + n_closed, mix=SINGLES_MIX, seed=seed)
    refs = {}
    for spec in specs:
        for area in spec.die_areas or ():
            if area not in refs:
                refs[area] = optimal_feature_size_for_die_area(area)
    forms = {}
    for i, spec in enumerate(specs):
        # build_workload alternates bare fields (odd i) and recorded
        # ``q`` payloads (even i) within each kind.
        forms.setdefault((spec.kind, i % 2 if spec.die_areas is None
                          else 0), spec)
    return HttpInputs(specs[:n_open], specs[n_open:], list(forms.values()),
                      refs)


def bulk_inputs(seed: int, n_open: int, n_closed: int) -> HttpInputs:
    """``bulk``: 128-point requests over a pool of distinct points.

    Even requests use the row form (``queries`` of recorded fab
    queries), odd requests the columnar ``points`` form priced with
    the server's default model.
    """
    rng = np.random.default_rng([seed, 1])
    lams = rng.uniform(*LAMBDA_RANGE_UM, BULK_POOL).tolist()
    counts = (10.0 ** rng.uniform(*LOG10_TRANSISTORS, BULK_POOL)).tolist()
    records: dict[int, dict] = {}
    row_refs: dict[int, float] = {}
    col_refs: dict[int, float] = {}
    specs = []
    for i in range(n_open + n_closed):
        picks = rng.integers(0, BULK_POOL, BULK_SIZE).tolist()
        if i % 2 == 0:
            queries = []
            for k in picks:
                if k not in records:
                    query = FabCostQuery(counts[k], lams[k])
                    records[k] = query_to_record(query)
                    row_refs[k] = scalar_reference_cost(query)
                queries.append(records[k])
            body = json.dumps({"queries": queries})
            expected = tuple(row_refs[k] for k in picks)
        else:
            for k in picks:
                if k not in col_refs:
                    col_refs[k] = scalar_reference_cost(point_to_query(
                        {"transistors": counts[k],
                         "feature_size": lams[k]}))
            body = json.dumps({"points": {
                "transistors": [counts[k] for k in picks],
                "feature_size": [lams[k] for k in picks]}})
            expected = tuple(col_refs[k] for k in picks)
        specs.append(RequestSpec("bulk", "/v1/cost/bulk", body, expected))
    return HttpInputs(specs[:n_open], specs[n_open:], specs[:2], {})


@dataclass(frozen=True)
class Landscape:
    """The axes of one landscape repetition."""

    transistors: np.ndarray    # fab rows
    feature_sizes: np.ndarray  # fab cols
    chiplets: np.ndarray       # chiplet rows (1..16)
    budgets: np.ndarray        # chiplet cols

    @property
    def cells(self) -> int:
        return (self.transistors.size * self.feature_sizes.size
                + self.chiplets.size * self.budgets.size)


def landscape(seed: int, rep: int) -> Landscape:
    """Fresh axes for repetition ``rep`` (sorted, as a plot has them)."""
    rng = np.random.default_rng([seed, 2, rep])
    rows, cols = FAB_GRID
    return Landscape(
        transistors=np.sort(10.0 ** rng.uniform(*LOG10_TRANSISTORS, rows)),
        feature_sizes=np.sort(rng.uniform(*LAMBDA_RANGE_UM, cols)),
        chiplets=np.arange(1.0, CHIPLET_COUNTS + 1.0),
        budgets=np.sort(10.0 ** rng.uniform(*LOG10_BUDGETS,
                                            CHIPLET_BUDGETS)))


def sampled_cells(seed: int, rep: int, shape: tuple[int, int]
                  ) -> list[tuple[int, int]]:
    """A seeded sample of (row, col) cells to hold against the scalar."""
    rng = random.Random(f"{seed}/{rep}/{shape}")
    return [(rng.randrange(shape[0]), rng.randrange(shape[1]))
            for _ in range(SAMPLED_CELLS)]
