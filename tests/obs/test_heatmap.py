"""The memory observability plane: address heatmaps.

Bucketing exactness (integer searchsorted, never float), the recording
paths (bulk accesses, scalar conflicts, occupancy), the decoded summary
documents, and — because heat series are ordinary registry histograms —
the cross-process ``merge_state`` semantics on heat-shaped layouts.
"""

import numpy as np
import pytest

from repro.obs import MetricsRegistry, peak_rss_bytes
from repro.obs.heatmap import (
    HEAT_BOUNDS,
    N_BOUNDS,
    SCHEMA,
    AddressHeatmap,
    bucket_of,
    bucket_range,
    heatmap_dict,
    heatmap_summary,
)


class TestBucketing:
    def test_edge_addresses(self):
        # bucket 0 = [0, 1]; bucket i = (2^(i-1), 2^i]; bucket 63 = overflow
        assert bucket_of(0) == 0
        assert bucket_of(1) == 0
        assert bucket_of(2) == 1
        assert bucket_of(3) == 2
        assert bucket_of(4) == 2
        assert bucket_of(5) == 3
        assert bucket_of(1 << 62) == 62
        assert bucket_of((1 << 62) + 1) == 63  # overflow bucket

    def test_matches_histogram_observe_semantics(self):
        # The registry histogram and the integer bulk path must agree for
        # every float-exact address, or merged counts would drift.
        reg = MetricsRegistry()
        h = reg.histogram("ref", buckets=HEAT_BOUNDS)
        for addr in (0, 1, 2, 3, 7, 8, 9, 1023, 1024, 1025, 1 << 40):
            h.counts = [0] * (N_BOUNDS + 1)
            h.observe(float(addr))
            assert h.counts[bucket_of(addr)] == 1, addr

    def test_beyond_float_precision(self):
        # 2^53 + 1 is not representable in float64; the integer path must
        # still bucket it correctly.
        addr = (1 << 53) + 1
        assert bucket_of(addr) == 54
        assert float(addr) == float(1 << 53)  # the hazard being avoided

    def test_bucket_range_inverts_bucket_of(self):
        for i in range(N_BOUNDS + 1):
            lo, hi = bucket_range(i)
            assert bucket_of(lo) == i
            if hi is not None:
                assert bucket_of(hi) == i
        assert bucket_range(N_BOUNDS)[1] is None


class TestRecording:
    def test_bulk_reads_writes(self):
        reg = MetricsRegistry()
        heat = AddressHeatmap(reg, worker=0)
        addrs = np.array([8, 8, 8, 1024, 1 << 20], dtype=np.int64)
        is_write = np.array([False, False, True, True, False])
        heat.record_accesses(addrs, is_write)
        assert heat.total_reads == 3
        assert heat.total_writes == 2
        r = reg.histogram("heat.reads", buckets=HEAT_BOUNDS, worker=0)
        assert r.counts[bucket_of(8)] == 2
        assert r.counts[bucket_of(1 << 20)] == 1
        # Heat sums stay 0.0 by design: address sums are meaningless and
        # float accumulation order would break cross-mode exactness.
        assert r.sum == 0.0
        assert all(isinstance(c, int) for c in r.counts)  # JSON-clean

    def test_conflicts_scalar_path(self):
        """One eviction at a time, as a migration ``insert`` reports it."""
        reg = MetricsRegistry()
        heat = AddressHeatmap(reg, worker=1)
        heat.record_conflicts(np.array([12], dtype=np.int64))
        heat.record_conflicts(np.array([(1 << 53) + 1], dtype=np.int64))
        assert heat.total_conflicts == 2
        h = reg.histogram("heat.conflicts", buckets=HEAT_BOUNDS, worker=1)
        assert h.counts[bucket_of(12)] == 1
        assert h.counts[54] == 1

    def test_occupancy_per_kind(self):
        reg = MetricsRegistry()
        heat = AddressHeatmap(reg, worker=0)
        heat.record_occupancy(np.array([16, 32], dtype=np.int64), "read")
        heat.record_occupancy(np.array([16], dtype=np.int64), "write")
        doc = heatmap_summary(reg)
        occ = doc["workers"]["0"]["occupancy"]
        assert sum(occ["read"]) == 2
        assert sum(occ["write"]) == 1

    def test_empty_batch_is_noop(self):
        reg = MetricsRegistry()
        heat = AddressHeatmap(reg, worker=0)
        heat.record_accesses(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
        assert heat.total_reads == 0 and heat.total_writes == 0


class TestSummary:
    def test_none_without_heat(self):
        reg = MetricsRegistry()
        reg.counter("worker.accesses", worker=0).inc(5)  # unrelated series
        assert heatmap_summary(reg) is None

    def test_document_shape(self):
        reg = MetricsRegistry(run_id="heatrun")
        heat = AddressHeatmap(reg, worker=0)
        heat.record_accesses(
            np.array([100, 100, 200], dtype=np.int64),
            np.array([False, True, False]),
        )
        doc = heatmap_summary(reg)
        assert doc["schema"] == SCHEMA
        assert doc["n_buckets"] == N_BOUNDS + 1
        assert doc["total_reads"] == 2 and doc["total_writes"] == 1
        assert doc["totals"]["reads"][bucket_of(100)] == 1
        hot = doc["hottest"][0]
        assert hot["lo"] <= 100 <= hot["hi"]

    def test_heatmap_dict_always_valid(self):
        reg = MetricsRegistry(run_id="emptyrun")
        doc = heatmap_dict(reg)
        assert doc["schema"] == SCHEMA
        assert doc["run_id"] == "emptyrun"
        assert doc["workers"] == {} and doc["hottest"] == []
        assert doc["total_reads"] == 0
        import json

        json.dumps(doc)  # JSON-serializable even when empty

    def test_hottest_ranks_by_traffic(self):
        reg = MetricsRegistry()
        heat = AddressHeatmap(reg, worker=0)
        heat.record_accesses(
            np.array([10] * 5 + [5000] * 2, dtype=np.int64),
            np.zeros(7, dtype=bool),
        )
        doc = heatmap_summary(reg)
        assert doc["hottest"][0]["bucket"] == bucket_of(10)
        assert doc["hottest"][1]["bucket"] == bucket_of(5000)


class TestMergeState:
    """Heat histograms ride the existing cross-process merge machinery."""

    def _heat_registry(self, worker, addrs):
        reg = MetricsRegistry()
        heat = AddressHeatmap(reg, worker=worker)
        heat.record_accesses(
            np.asarray(addrs, dtype=np.int64),
            np.zeros(len(addrs), dtype=bool),
        )
        return reg

    def test_merge_empty_into_full(self):
        full = self._heat_registry(0, [64, 128])
        before = heatmap_summary(full)
        full.merge_state(MetricsRegistry().state())
        assert heatmap_summary(full) == before

    def test_merge_disjoint_workers(self):
        a = self._heat_registry(0, [64, 64])
        b = self._heat_registry(1, [1 << 30])
        a.merge_state(b.state())
        doc = heatmap_summary(a)
        assert sorted(doc["workers"]) == ["0", "1"]
        assert doc["total_reads"] == 3
        assert doc["totals"]["reads"][bucket_of(64)] == 2
        assert doc["totals"]["reads"][bucket_of(1 << 30)] == 1

    def test_merge_same_worker_adds_bucketwise(self):
        a = self._heat_registry(0, [64])
        b = self._heat_registry(0, [64, 128])
        a.merge_state(b.state())
        h = a.histogram("heat.reads", buckets=HEAT_BOUNDS, worker=0)
        assert h.counts[bucket_of(64)] == 2
        assert h.counts[bucket_of(128)] == 1
        assert h.count == 3

    def test_merge_bucket_mismatch_raises(self):
        a = self._heat_registry(0, [64])
        bad = MetricsRegistry()
        bad.histogram("heat.reads", buckets=(1.0, 2.0, 4.0), worker=0).observe(1)
        with pytest.raises(ValueError, match="bucket layout mismatch"):
            a.merge_state(bad.state())


class TestPeakRss:
    def test_positive_and_plausible(self):
        rss = peak_rss_bytes()
        # This test process holds numpy + pytest: well above 10 MiB, and a
        # sane high-water is below 100 GiB (catches KiB/bytes unit slips).
        assert rss > 10 * (1 << 20)
        assert rss < 100 * (1 << 30)
