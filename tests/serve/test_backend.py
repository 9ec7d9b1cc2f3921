"""The thread backend: inline and pooled execution, bitwise parity.

Chunking a group across worker threads must never change a bit, and
without a pool a group is priced in one chunk.
"""

from repro.core.optimization import FIG8_FAB, transistor_cost_full
from repro.serve import FabCostQuery, ThreadBackend


def _points(k, lam=0.8):
    return [(1e5 * (i + 1), lam) for i in range(k)]


def _assert_parity(result, points):
    for slot, (n, lam) in enumerate(points):
        want = transistor_cost_full(n, lam, FIG8_FAB)
        got = result.cost(slot)
        assert got == want or (got == float("inf") and want == float("inf"))


class TestThreadBackend:
    def test_inline_parity_and_single_chunk(self):
        backend = ThreadBackend(workers=1)
        backend.start()
        try:
            points = _points(10)
            result = backend.run_group(FabCostQuery(*points[0]), points,
                                       None)
            _assert_parity(result, points)
            assert backend.n_chunks_for(10_000) == 1  # no pool, no split
        finally:
            backend.close()

    def test_pooled_parity_matches_inline(self):
        points = _points(23, lam=0.6)
        exemplar = FabCostQuery(*points[0])
        inline = ThreadBackend(workers=1)
        pooled = ThreadBackend(workers=3, chunk_size=5)
        inline.start()
        pooled.start()
        try:
            a = inline.run_group(exemplar, points, None)
            b = pooled.run_group(exemplar, points, None)
            assert a.cost_per_transistor_dollars.tolist() \
                == b.cost_per_transistor_dollars.tolist()
            assert pooled.n_chunks_for(23) == 5
        finally:
            inline.close()
            pooled.close()
