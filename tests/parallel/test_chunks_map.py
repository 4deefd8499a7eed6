"""Tests for chunks, the chunk pool, and the address map."""

import numpy as np
import pytest

from repro.parallel.address_map import AddressMap, route_masks
from repro.parallel.chunks import Chunk, ChunkPool


class TestChunk:
    def test_append_until_full(self):
        c = Chunk(4)
        for i in range(4):
            assert not c.full
            c.append(i)
        assert c.full
        assert c.view().tolist() == [0, 1, 2, 3]

    def test_view_is_prefix(self):
        c = Chunk(8)
        c.append(7)
        assert c.view().tolist() == [7]

    def test_reset(self):
        c = Chunk(4)
        c.append(1)
        c.seq = 9
        c.reset()
        assert c.count == 0 and c.seq == -1


class TestChunkPool:
    def test_recycling_reuses_buffers(self):
        pool = ChunkPool(16)
        a = pool.acquire()
        pool.release(a)
        b = pool.acquire()
        assert b is a  # the paper's chunk recycling
        assert pool.allocated == 1

    def test_allocation_high_water_mark(self):
        pool = ChunkPool(16)
        chunks = [pool.acquire() for _ in range(5)]
        for c in chunks:
            pool.release(c)
        for _ in range(5):
            pool.acquire()
        assert pool.allocated == 5
        assert pool.memory_bytes == 5 * 16 * 8

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ChunkPool(0)


def test_route_masks_select_access_and_broadcast_kinds():
    from repro.trace import FREE, LOOP_ENTER, LOOP_EXIT, LOOP_ITER, READ, WRITE

    kinds = np.arange(256, dtype=np.uint8)
    acc, bcast = route_masks(kinds)
    assert np.flatnonzero(acc).tolist() == [READ, WRITE]
    assert np.flatnonzero(bcast).tolist() == sorted(
        [FREE, LOOP_ENTER, LOOP_ITER, LOOP_EXIT]
    )


class TestAddressMap:
    def test_modulo_distribution_on_element_index(self):
        amap = AddressMap(4)
        assert amap.worker_of(0x00) == 0  # element 0
        assert amap.worker_of(0x08) == 1  # element 1
        assert amap.worker_of(0x18) == 3  # element 3
        assert amap.worker_of(0x20) == 0  # element 4 wraps

    def test_vectorized_matches_scalar(self):
        amap = AddressMap(7)
        addrs = np.arange(0, 8 * 200, 8, dtype=np.int64)
        vec = amap.workers_of(addrs)
        assert vec.tolist() == [amap.worker_of(int(a)) for a in addrs]

    def test_redistribution_overrides_modulo(self):
        amap = AddressMap(4)
        old = amap.redistribute(0x40, 3)  # element 8, home = worker 0
        assert old == 0
        assert amap.worker_of(0x40) == 3
        assert amap.n_overrides == 1

    def test_vectorized_respects_overrides(self):
        amap = AddressMap(4)
        amap.redistribute(0x40, 3)
        addrs = np.array([0x40, 0x08, 0x40], dtype=np.int64)
        assert amap.workers_of(addrs).tolist() == [3, 1, 3]

    def test_redistribute_back_home_removes_override(self):
        amap = AddressMap(4)
        amap.redistribute(0x40, 3)
        amap.redistribute(0x40, 0)  # element 8's natural home under W=4
        assert amap.n_overrides == 0
        assert amap.worker_of(0x40) == 0

    def test_even_address_distribution(self):
        """Eq. 1 claim: modulo spreads addresses evenly (8-byte strides)."""
        w = 8
        amap = AddressMap(w)
        addrs = np.arange(0, 8 * 10_000, 8, dtype=np.int64)
        counts = np.bincount(amap.workers_of(addrs), minlength=w)
        assert counts.max() - counts.min() <= counts.mean() * 0.01 + 1

    def test_rejects_bad_worker(self):
        amap = AddressMap(2)
        with pytest.raises(ValueError):
            amap.redistribute(8, 5)
        with pytest.raises(ValueError):
            AddressMap(0)
