"""Tests for the instrumentation runtime (TraceRecorder)."""

import pytest

from repro.common.errors import MiniVmError
from repro.common.sourceloc import encode_location
from repro.trace import (
    LOOP_ENTER,
    LOOP_EXIT,
    LOOP_ITER,
    READ,
    WRITE,
    TraceRecorder,
)


class TestBasicRecording:
    def test_read_write_rows(self):
        r = TraceRecorder()
        v = r.intern_var("a")
        r.write(0x100, loc=10, var=v)
        r.read(0x100, loc=11, var=v)
        batch = r.build()
        assert batch.kind.tolist() == [WRITE, READ]
        assert batch.ts.tolist() == [0, 1]
        assert batch.var_names == ("a",)

    def test_timestamps_monotone_by_default(self):
        r = TraceRecorder()
        for i in range(10):
            r.read(i * 8, loc=1)
        assert r.build().ts.tolist() == list(range(10))

    def test_explicit_ts_for_delayed_push(self):
        """Models Section V: access happens, push comes later (no lock)."""
        r = TraceRecorder()
        ts_a = r.next_ts()  # thread 1 accesses first...
        ts_b = r.next_ts()  # ...then thread 2 accesses...
        r.write(0x8, loc=2, tid=2, ts=ts_b)  # ...but thread 2 pushes first
        r.write(0x8, loc=1, tid=1, ts=ts_a)
        batch = r.build()
        # Stream order differs from timestamp order: a race-detectable reversal.
        assert batch.ts.tolist() == [1, 0]


class TestLoopTracking:
    def test_loop_events_and_iteration_counts(self):
        r = TraceRecorder()
        site = encode_location(1, 60)
        r.loop_enter(site)
        for it in range(3):
            r.loop_iter(site)
            r.read(0x10, loc=site + 1)
        r.loop_exit(site)
        batch = r.build()
        kinds = batch.kind.tolist()
        assert kinds.count(LOOP_ITER) == 3
        exit_row = kinds.index(LOOP_EXIT)
        assert batch.aux[exit_row] == 3  # iterations executed, Fig. 1 "END loop 1200"

    def test_mismatched_loop_exit_raises(self):
        r = TraceRecorder()
        r.loop_enter(100)
        with pytest.raises(MiniVmError):
            r.loop_exit(200)

    def test_loop_iter_without_enter_raises(self):
        r = TraceRecorder()
        with pytest.raises(MiniVmError):
            r.loop_iter(100)

    def test_build_rejects_open_loops(self):
        r = TraceRecorder()
        r.loop_enter(100)
        with pytest.raises(MiniVmError):
            r.build()

    def test_per_thread_loop_stacks_independent(self):
        r = TraceRecorder()
        s1, s2 = encode_location(1, 1), encode_location(1, 2)
        r.loop_enter(s1, tid=1)
        r.loop_enter(s2, tid=2)
        r.loop_iter(s1, tid=1)
        r.loop_iter(s2, tid=2)
        r.read(0x8, loc=3, tid=1)
        r.read(0x10, loc=4, tid=2)
        r.loop_exit(s1, tid=1)  # each thread exits its own innermost loop
        r.loop_exit(s2, tid=2)
        batch = r.build()
        iters = batch.kind == LOOP_ITER
        assert batch.tid[iters].tolist() == [1, 2]
        assert batch.addr[iters].tolist() == [s1, s2]
        assert batch.aux[iters].tolist() == [0, 0]  # per-thread counters
        exits = batch.kind == LOOP_EXIT
        assert batch.aux[exits].tolist() == [1, 1]


class TestThreadLifecycle:
    def test_thread_events(self):
        r = TraceRecorder()
        r.thread_start(1, parent_tid=0)
        r.write(0x8, loc=1, tid=1)
        r.thread_end(1)
        batch = r.build()
        assert batch.n_threads == 1

    def test_thread_end_inside_loop_raises(self):
        r = TraceRecorder()
        r.thread_start(1)
        r.loop_enter(50, tid=1)
        with pytest.raises(MiniVmError):
            r.thread_end(1)


class TestAllocFree:
    def test_alloc_free_rows(self):
        r = TraceRecorder()
        r.alloc(0x1000, 64, loc=1)
        r.free(0x1000, 64, loc=2)
        batch = r.build()
        assert batch.aux.tolist() == [64, 64]

    def test_lock_events(self):
        r = TraceRecorder()
        r.lock_acquire(7, loc=1, tid=3)
        r.lock_release(7, loc=2, tid=3)
        batch = r.build()
        assert batch.addr.tolist() == [7, 7]
        assert batch.tid.tolist() == [3, 3]
