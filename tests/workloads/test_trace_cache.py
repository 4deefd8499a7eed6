"""Tests for the two-layer (in-memory + on-disk) workload trace cache."""

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.workloads import clear_trace_cache, get_trace


def _counter_total(reg, prefix):
    snap = reg.snapshot()["counters"]
    return sum(
        v for k, v in snap.items() if k == prefix or k.startswith(prefix + "{")
    )


class TestDiskCache:
    def test_miss_writes_file_then_disk_hit(self, tmp_path):
        clear_trace_cache()
        reg = MetricsRegistry()
        batch = get_trace("ep", cache_dir=tmp_path, registry=reg)
        files = sorted(tmp_path.glob("*.trace.npz"))
        assert len(files) == 1
        assert files[0].name == "ep-seq-s1-t4-r0.trace.npz"
        assert _counter_total(reg, "producer.trace_cache_misses") == 1
        assert _counter_total(reg, "producer.trace_cache_hits") == 0

        # Fresh in-memory layer (new process analog): loads from disk.
        clear_trace_cache()
        reg2 = MetricsRegistry()
        again = get_trace("ep", cache_dir=tmp_path, registry=reg2)
        snap = reg2.snapshot()["counters"]
        assert snap.get('producer.trace_cache_hits{layer="disk"}') == 1
        assert _counter_total(reg2, "producer.trace_cache_misses") == 0
        for name in ("kind", "tid", "loc", "addr", "aux", "var", "ts"):
            assert np.array_equal(getattr(batch, name), getattr(again, name))
        assert again.var_names == batch.var_names
        clear_trace_cache()

    def test_memory_hit_counted_and_same_object(self, tmp_path):
        clear_trace_cache()
        reg = MetricsRegistry()
        one = get_trace("ep", cache_dir=tmp_path, registry=reg)
        two = get_trace("ep", cache_dir=tmp_path, registry=reg)
        assert two is one
        snap = reg.snapshot()["counters"]
        assert snap.get('producer.trace_cache_hits{layer="memory"}') == 1
        clear_trace_cache()

    def test_cache_key_separates_parameters(self, tmp_path):
        clear_trace_cache()
        get_trace("ep", cache_dir=tmp_path)
        get_trace("ep", scale=2, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.trace.npz"))) == 2
        clear_trace_cache()

    def test_clear_removes_files_and_reports_count(self, tmp_path):
        clear_trace_cache()
        get_trace("ep", cache_dir=tmp_path)
        get_trace("mg", cache_dir=tmp_path)
        assert clear_trace_cache(cache_dir=tmp_path) == 2
        assert list(tmp_path.glob("*.trace.npz")) == []
        # Idempotent, and a missing directory is fine.
        assert clear_trace_cache(cache_dir=tmp_path / "nope") == 0

    def test_with_meta_rebuilt_on_disk_hit(self, tmp_path):
        clear_trace_cache()
        _, meta = get_trace("ep", with_meta=True, cache_dir=tmp_path)
        clear_trace_cache()
        _, meta2 = get_trace("ep", with_meta=True, cache_dir=tmp_path)
        assert meta2.annotated == meta.annotated
        assert meta2.expected_identified == meta.expected_identified
        clear_trace_cache()

    def test_no_cache_dir_keeps_disk_untouched(self, tmp_path):
        clear_trace_cache()
        get_trace("ep")
        assert list(tmp_path.glob("*.trace.npz")) == []
        clear_trace_cache()


class TestLruEviction:
    def _sized(self, tmp_path, *names):
        clear_trace_cache()
        for n in names:
            get_trace(n, cache_dir=tmp_path)
        return sorted(tmp_path.glob("*.trace.npz"))

    def test_limit_evicts_oldest_first(self, tmp_path):
        import os
        import time

        from repro.workloads import enforce_cache_limit, set_trace_cache_limit

        files = self._sized(tmp_path, "ep", "mg", "ft")
        # Make mtimes unambiguous: ep oldest, ft newest.
        now = time.time()
        for i, p in enumerate(sorted(files, key=lambda p: p.name)):
            os.utime(p, (now + i, now + i))
        sizes = {p.name: p.stat().st_size for p in files}
        keep_two = sum(sorted(sizes.values(), reverse=True)[:2])
        reg = MetricsRegistry()
        evicted = enforce_cache_limit(
            tmp_path, limit_bytes=keep_two + 1, registry=reg
        )
        assert evicted >= 1
        survivors = {p.name for p in tmp_path.glob("*.trace.npz")}
        assert "ep-seq-s1-t4-r0.trace.npz" not in survivors  # oldest went
        snap = reg.snapshot()["counters"]
        assert snap.get("producer.cache_evictions") == evicted
        set_trace_cache_limit(None)
        clear_trace_cache(tmp_path)

    def test_disk_hit_refreshes_recency(self, tmp_path):
        import os
        import time

        from repro.workloads import enforce_cache_limit

        files = self._sized(tmp_path, "ep", "mg")
        old = time.time() - 1000
        for p in files:
            os.utime(p, (old, old))
        clear_trace_cache()
        get_trace("ep", cache_dir=tmp_path)  # disk hit bumps ep's mtime
        ep = next(p for p in files if p.name.startswith("ep-"))
        mg = next(p for p in files if p.name.startswith("mg-"))
        assert ep.stat().st_mtime > mg.stat().st_mtime
        evicted = enforce_cache_limit(
            tmp_path, limit_bytes=ep.stat().st_size
        )
        assert evicted == 1
        assert ep.exists() and not mg.exists()
        clear_trace_cache(tmp_path)

    def test_save_path_enforces_installed_limit(self, tmp_path):
        from repro.workloads import set_trace_cache_limit

        clear_trace_cache()
        set_trace_cache_limit(0)  # nothing may stay on disk
        try:
            get_trace("ep", cache_dir=tmp_path)
            assert list(tmp_path.glob("*.trace.npz")) == []
        finally:
            set_trace_cache_limit(None)
            clear_trace_cache(tmp_path)

    def test_spill_directories_count_and_evict(self, tmp_path):
        from repro.workloads import enforce_cache_limit
        from repro.workloads.amplify import amplify_cached

        clear_trace_cache()
        base = get_trace("ep")
        amplify_cached(base, 2, tmp_path, "amp-ep")
        spill = tmp_path / "amp-ep-x2.trace.spill"
        assert spill.is_dir()
        assert enforce_cache_limit(tmp_path, limit_bytes=0) == 1
        assert not spill.exists()
        clear_trace_cache(tmp_path)

    def test_no_limit_is_noop(self, tmp_path):
        from repro.workloads import enforce_cache_limit

        files = self._sized(tmp_path, "ep")
        assert enforce_cache_limit(tmp_path) == 0
        assert all(p.exists() for p in files)
        clear_trace_cache(tmp_path)
