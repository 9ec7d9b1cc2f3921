"""Replay engine: parity, modes, skipping, measurement plumbing."""

import pytest

from repro.errors import ParameterError
from repro.obs.recording import RecordedQuery, load_recorded_log
from repro.replay import replay_log
from repro.replay.engine import ReplayConfig
from repro.serve import FabCostQuery, MicroBatchScheduler


def _record_log(tmp_path, n=40):
    log_path = tmp_path / "traffic.jsonl"
    queries = [FabCostQuery(1e5 * (i % 10 + 1), 0.6 + 0.1 * (i % 3))
               for i in range(n)]
    with MicroBatchScheduler(max_batch_size=16, record=log_path,
                             cache=None) as sched:
        for t in sched.submit_many(queries):
            t.result(timeout=10.0)
    return log_path


class TestConfigValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ParameterError):
            ReplayConfig(name="")
        assert ReplayConfig().name == "thread"

    def test_bad_mode_and_speed(self, tmp_path):
        log_path = _record_log(tmp_path, n=4)
        config = ReplayConfig(name="thread")
        with pytest.raises(ParameterError, match="mode"):
            replay_log(log_path, config, mode="sideways")
        with pytest.raises(ParameterError, match="speed"):
            replay_log(log_path, config, mode="open", speed=0.0)


class TestParity:
    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_zero_mismatches_against_own_recording(self, tmp_path, mode):
        log_path = _record_log(tmp_path)
        config = ReplayConfig(name="thread")
        result = replay_log(log_path, config, mode=mode, speed=1000.0)
        assert result.n_queries == 40
        assert result.n_skipped == 0
        assert result.mismatches == 0
        assert result.wall_s > 0.0
        assert result.p50_ms <= result.p95_ms <= result.p99_ms

    def test_accepts_log_object_and_path(self, tmp_path):
        log_path = _record_log(tmp_path, n=8)
        log = load_recorded_log(log_path)
        config = ReplayConfig(name="thread")
        by_path = replay_log(log_path, config, mode="closed")
        by_obj = replay_log(log, config, mode="closed")
        assert by_path.mismatches == by_obj.mismatches == 0

    def test_corrupted_cost_counts_as_mismatch(self, tmp_path):
        log_path = _record_log(tmp_path, n=8)
        log = load_recorded_log(log_path)
        records = list(log.records)
        bad = records[3]
        records[3] = RecordedQuery(
            t=bad.t, kind=bad.kind, sig=bad.sig, flush=bad.flush,
            backend=bad.backend, cost=(bad.cost or 1.0) * 1.5,
            query=bad.query)
        config = ReplayConfig(name="thread")
        result = replay_log(records, config, mode="closed")
        assert result.mismatches == 1

    def test_unreplayable_records_are_skipped(self, tmp_path):
        log_path = _record_log(tmp_path, n=8)
        log = load_recorded_log(log_path)
        records = list(log.records)
        records.append(RecordedQuery(t=1.0, kind="model", sig="x",
                                     flush=9, backend="thread",
                                     cost=None, query=None))
        config = ReplayConfig(name="thread")
        result = replay_log(records, config, mode="closed")
        assert result.n_queries == 8
        assert result.n_skipped == 1
        assert result.mismatches == 0


class TestMeasurement:
    def test_flush_telemetry_and_derived_stats(self, tmp_path):
        log_path = _record_log(tmp_path)
        config = ReplayConfig(name="thread", max_batch_size=16)
        result = replay_log(log_path, config, mode="closed")
        assert result.flushes >= 1
        assert result.qps > 0.0
        assert sum(f.requests for f in result.flush_records) == 40
        assert 0.0 <= result.dedup_rate < 1.0
        assert 0.0 < result.mean_occupancy <= 1.0
        assert sum(result.flush_size_hist.values()) == result.flushes
        doc = result.to_dict()
        assert doc["n_queries"] == 40
        assert doc["mismatches"] == 0
        assert doc["config"]["name"] == "thread"

    def test_open_loop_respects_speedup(self, tmp_path):
        # With a huge speed factor the recorded gaps collapse; the
        # replay must still finish and preserve parity.
        log_path = _record_log(tmp_path, n=12)
        config = ReplayConfig(name="thread")
        result = replay_log(log_path, config, mode="open", speed=1e6)
        assert result.mismatches == 0
        assert result.max_queue_depth >= 0
