"""Tests for the structure-of-arrays trace storage."""

import numpy as np
import pytest

from repro.common.errors import TraceFormatError
from repro.trace import READ, WRITE, LOOP_ENTER, TraceBatch, TraceBuilder


def make_simple_batch():
    b = TraceBuilder()
    v = b.intern_var("x")
    b.append(WRITE, 0, 100, 0x1000, 0, v, 0)
    b.append(READ, 0, 101, 0x1000, 0, v, 1)
    b.append(READ, 1, 102, 0x2000, 0, v, 2)
    return b.build()


class TestBuilder:
    def test_empty_build(self):
        batch = TraceBuilder().build()
        assert len(batch) == 0
        assert batch.n_accesses == 0
        assert batch.n_threads == 0
        assert batch.n_unique_addresses == 0

    def test_append_and_lengths(self):
        batch = make_simple_batch()
        assert len(batch) == 3
        assert batch.n_accesses == 3
        assert batch.n_threads == 2
        assert batch.n_unique_addresses == 2

    def test_growth_beyond_initial_capacity(self):
        b = TraceBuilder(capacity=4)
        for i in range(1000):
            b.append(READ, 0, i, i * 8, 0, -1, i)
        batch = b.build()
        assert len(batch) == 1000
        assert batch.addr[999] == 999 * 8
        assert np.array_equal(batch.ts, np.arange(1000))

    def test_intern_var_is_idempotent(self):
        b = TraceBuilder()
        assert b.intern_var("x") == b.intern_var("x")
        assert b.intern_var("y") != b.intern_var("x")

    def test_extend_columns_bulk(self):
        b = TraceBuilder()
        n = 500
        b.extend_columns(
            kind=np.full(n, READ, dtype=np.uint8),
            addr=np.arange(n, dtype=np.int64) * 8,
            loc=np.full(n, 42, dtype=np.int32),
        )
        batch = b.build()
        assert len(batch) == n
        assert batch.loc[0] == 42
        assert batch.var[0] == -1  # defaulted
        assert batch.ts[n - 1] == n - 1  # default monotone ts

    def test_extend_columns_rejects_ragged(self):
        b = TraceBuilder()
        with pytest.raises(TraceFormatError):
            b.extend_columns(
                kind=np.zeros(3, dtype=np.uint8),
                addr=np.zeros(4, dtype=np.int64),
            )

    def test_extend_then_append_interleave(self):
        b = TraceBuilder(capacity=2)
        b.append(WRITE, 0, 1, 8, 0, -1, 0)
        b.extend_columns(
            kind=np.full(10, READ, dtype=np.uint8),
            addr=np.arange(10, dtype=np.int64),
            ts=np.arange(1, 11, dtype=np.int64),
        )
        b.append(WRITE, 0, 2, 16, 0, -1, 11)
        batch = b.build()
        assert len(batch) == 12
        assert batch.kind[0] == WRITE and batch.kind[11] == WRITE


class TestAppendRows:
    def test_scalars_broadcast(self):
        b = TraceBuilder()
        b.append_rows(4, kind=READ, tid=2, addr=np.arange(4, dtype=np.int64))
        batch = b.build()
        assert batch.kind.tolist() == [READ] * 4
        assert batch.tid.tolist() == [2] * 4
        assert batch.addr.tolist() == [0, 1, 2, 3]

    def test_defaults(self):
        b = TraceBuilder()
        b.append_rows(3, kind=WRITE)
        batch = b.build()
        assert batch.loc.tolist() == [-1, -1, -1]
        assert batch.var.tolist() == [-1, -1, -1]
        assert batch.aux.tolist() == [0, 0, 0]
        assert batch.ts.tolist() == [0, 1, 2]

    def test_default_ts_continues_monotone_after_append(self):
        b = TraceBuilder()
        b.append(WRITE, 0, 1, 8, 0, -1, 0)
        b.append_rows(3, kind=READ)
        assert b.build().ts.tolist() == [0, 1, 2, 3]

    def test_length_mismatch_rejected(self):
        b = TraceBuilder()
        with pytest.raises(TraceFormatError):
            b.append_rows(3, addr=np.zeros(4, dtype=np.int64))

    def test_unknown_column_rejected(self):
        b = TraceBuilder()
        with pytest.raises(TraceFormatError):
            b.append_rows(2, bogus=np.zeros(2))

    def test_negative_count_rejected(self):
        b = TraceBuilder()
        with pytest.raises(TraceFormatError):
            b.append_rows(-1)

    def test_zero_rows_is_noop(self):
        b = TraceBuilder()
        b.append_rows(0, kind=READ)
        assert len(b.build()) == 0

    def test_grows_capacity(self):
        b = TraceBuilder(capacity=2)
        b.append_rows(1000, kind=READ, addr=np.arange(1000, dtype=np.int64) * 8)
        batch = b.build()
        assert len(batch) == 1000
        assert batch.addr[999] == 999 * 8

    def test_matches_per_row_appends(self):
        rows = [(READ, 0, 10, 8 * i, i, 1, i) for i in range(50)]
        a = TraceBuilder()
        for r in rows:
            a.append(*r)
        bb = TraceBuilder()
        bb.append_rows(
            50,
            kind=READ,
            tid=0,
            loc=10,
            addr=np.arange(50, dtype=np.int64) * 8,
            aux=np.arange(50, dtype=np.int64),
            var=1,
            ts=np.arange(50, dtype=np.int64),
        )
        one, two = a.build(), bb.build()
        for name in ("kind", "tid", "loc", "addr", "aux", "var", "ts"):
            assert np.array_equal(getattr(one, name), getattr(two, name))


class TestBatch:
    def test_mismatched_columns_rejected(self):
        with pytest.raises(TraceFormatError):
            TraceBatch(
                kind=np.zeros(2, dtype=np.uint8),
                tid=np.zeros(3, dtype=np.int32),
                loc=np.zeros(2, dtype=np.int32),
                addr=np.zeros(2, dtype=np.int64),
                aux=np.zeros(2, dtype=np.int64),
                var=np.zeros(2, dtype=np.int32),
                ts=np.zeros(2, dtype=np.int64),
            )

    def test_access_mask_excludes_control_events(self):
        b = TraceBuilder()
        b.append(LOOP_ENTER, 0, 5, 5, 0, -1, 0)
        b.append(READ, 0, 6, 0x10, 0, -1, 1)
        batch = b.build()
        assert batch.access_mask().tolist() == [False, True]
        assert batch.n_accesses == 1

    def test_select_preserves_intern_tables(self):
        batch = make_simple_batch()
        sub = batch.select(np.array([0, 2]))
        assert len(sub) == 2
        assert sub.var_names == batch.var_names
        assert sub.addr.tolist() == [0x1000, 0x2000]

    def test_event_decoding(self):
        batch = make_simple_batch()
        e = batch.event(0)
        assert e.is_write and e.is_memory_access
        assert e.addr == 0x1000 and e.kind_name == "WRITE"
        e2 = batch.event(1)
        assert not e2.is_write and e2.is_memory_access

    def test_iter_events_order(self):
        batch = make_simple_batch()
        ts = [e.ts for e in batch.iter_events()]
        assert ts == [0, 1, 2]

    def test_var_name_lookup(self):
        batch = make_simple_batch()
        assert batch.var_name(0) == "x"
        assert batch.var_name(-1) == "*"
        assert batch.var_name(99) == "*"

    def test_summary_mentions_counts(self):
        s = make_simple_batch().summary()
        assert "READ=2" in s and "WRITE=1" in s
