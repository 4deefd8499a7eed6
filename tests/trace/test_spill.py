"""mmap trace spill tier: format, streaming writes, zero-copy transport."""

import json

import numpy as np
import pytest

from repro.common.errors import TraceFormatError
from repro.trace import (
    READ,
    WRITE,
    SpilledTraceBatch,
    TraceBuilder,
    TraceSpillWriter,
    attach_batch,
    is_spill,
    open_spill,
    share_batch,
    spill_batch,
)


def small_batch(n=64):
    b = TraceBuilder()
    for i in range(n):
        b.append(
            kind=READ if i % 2 else WRITE,
            tid=0,
            loc=i,
            addr=8 * (i % 7),
            aux=0,
            var=i % 3,
            ts=i,
        )
    return b.build()


COLUMNS = ("kind", "tid", "loc", "addr", "aux", "var", "ts")


class TestSpillFormat:
    def test_round_trip_preserves_columns_and_tables(self, tmp_path):
        batch = small_batch()
        sp = spill_batch(batch, tmp_path / "t.trace.spill")
        assert isinstance(sp, SpilledTraceBatch)
        assert len(sp) == len(batch)
        for name in COLUMNS:
            assert np.array_equal(
                np.asarray(getattr(sp, name)), np.asarray(getattr(batch, name))
            )
        assert sp.var_names == batch.var_names
        assert sp.file_names == batch.file_names

    def test_legacy_spill_with_ctx_column_opens(self, tmp_path):
        """Spill directories from older writers hold a ``ctx.bin`` column
        and a ``ctx_stacks`` table; both are ignored on open."""
        batch = small_batch()
        path = tmp_path / "legacy.trace.spill"
        spill_batch(batch, path)
        np.full(len(batch), -1, dtype=np.int32).tofile(path / "ctx.bin")
        meta = json.loads((path / "meta.json").read_text())
        meta["columns"]["ctx"] = np.dtype(np.int32).str
        meta["ctx_stacks"] = []
        (path / "meta.json").write_text(json.dumps(meta))
        sp = open_spill(path)
        for name in COLUMNS:
            assert np.array_equal(
                np.asarray(getattr(sp, name)), np.asarray(getattr(batch, name))
            )

    def test_segmented_writes_concatenate(self, tmp_path):
        batch = small_batch(10)
        with TraceSpillWriter(tmp_path / "seg.spill") as w:
            w.append_batch(batch)
            w.append_batch(batch)
        sp = open_spill(tmp_path / "seg.spill")
        assert len(sp) == 20
        assert np.array_equal(np.asarray(sp.ts[10:]), np.asarray(batch.ts))

    def test_unique_hint_overrides_exact_scan(self, tmp_path):
        batch = small_batch()
        with TraceSpillWriter(tmp_path / "h.spill") as w:
            w.append_batch(batch)
            w.set_unique_hint(12345)
        assert open_spill(tmp_path / "h.spill").n_unique_addresses == 12345

    def test_no_hint_falls_back_to_exact(self, tmp_path):
        batch = small_batch()
        with TraceSpillWriter(tmp_path / "nh.spill") as w:
            w.append_batch(batch)
        sp = open_spill(tmp_path / "nh.spill")
        assert sp.n_unique_addresses == batch.n_unique_addresses

    def test_uncommitted_writer_is_not_a_spill(self, tmp_path):
        w = TraceSpillWriter(tmp_path / "x.spill")
        w.append_batch(small_batch(4))
        assert not is_spill(tmp_path / "x.spill")
        with pytest.raises(TraceFormatError):
            open_spill(tmp_path / "x.spill")
        w.abort()
        assert not (tmp_path / "x.spill").exists()

    def test_truncated_column_detected(self, tmp_path):
        spill_batch(small_batch(), tmp_path / "t.spill")
        with open(tmp_path / "t.spill" / "addr.bin", "r+b") as f:
            f.truncate(8)
        with pytest.raises(TraceFormatError, match="addr"):
            open_spill(tmp_path / "t.spill")

    def test_mismatched_segment_lengths_rejected(self, tmp_path):
        w = TraceSpillWriter(tmp_path / "m.spill")
        cols = {
            name: np.zeros(4, dtype=np.int64) for name in COLUMNS
        }
        cols["kind"] = np.zeros(3, dtype=np.uint8)
        with pytest.raises(TraceFormatError, match="unequal"):
            w.append_columns(**cols)
        w.abort()

    def test_empty_spill(self, tmp_path):
        with TraceSpillWriter(tmp_path / "e.spill") as w:
            pass
        sp = open_spill(tmp_path / "e.spill")
        assert len(sp) == 0 and sp.n_unique_addresses == 0


class TestReleaseWindow:
    def test_release_is_nondestructive(self, tmp_path):
        batch = small_batch(4096)
        sp = spill_batch(batch, tmp_path / "r.spill")
        before = np.asarray(sp.addr).copy()
        sp.release_window(0, 2048)
        sp.release_window(0, len(sp))  # whole trace, page-rounded
        sp.release_window(100, 100)  # empty range is a no-op
        assert np.array_equal(np.asarray(sp.addr), before)


class TestSharedTransport:
    def test_spilled_batch_ships_by_path_not_copy(self, tmp_path):
        sp = spill_batch(small_batch(), tmp_path / "s.trace.spill")
        shared = share_batch(sp)
        assert shared.nbytes == 0  # no shm block allocated
        assert shared.meta.path == str(tmp_path / "s.trace.spill")
        batch, shm = attach_batch(shared.meta)
        assert shm is None
        assert isinstance(batch, SpilledTraceBatch)
        assert np.array_equal(np.asarray(batch.ts), np.asarray(sp.ts))
        shared.close()  # must be a no-op, not an error

    def test_in_memory_batch_still_uses_shm(self):
        batch = small_batch()
        shared = share_batch(batch)
        try:
            assert shared.meta.path is None
            assert shared.nbytes > 0
            attached, shm = attach_batch(shared.meta)
            assert shm is not None
            assert np.array_equal(np.asarray(attached.addr), np.asarray(batch.addr))
            shm.close()
        finally:
            shared.close()
