"""Worker queues: lock-free SPSC ring vs. mutex-protected deque.

The paper attributes most of the parallel profiler's synchronization
overhead to locking/unlocking the worker queues and removes it with
lock-free queues.  :class:`SpscRingQueue` is the classic single-producer /
single-consumer ring buffer: the producer only writes ``_tail``, the
consumer only writes ``_head``, each reads the other's counter — no
compare-and-swap needed, and under CPython's per-bytecode atomicity the
algorithm is exactly as correct as its C++11 acquire/release counterpart.
:class:`LockedQueue` is the mutex ablation used to reproduce the
lock-based-vs-lock-free comparison of Figure 5.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

from repro.common.errors import QueueClosedError
from repro.obs.metrics import Counter


class SpscRingQueue:
    """Bounded lock-free single-producer/single-consumer queue.

    ``try_push``/``try_pop`` never block and never take a lock.  ``closed``
    is a producer-set end-of-stream flag; pushing after it raises.

    Stall accounting lives in :class:`~repro.obs.metrics.Counter` objects —
    callers (the pipeline engine) pass counters from their run's metrics
    registry, making the registry the single source of truth; standalone
    queues get private counters with the same semantics.  The legacy
    ``push_fail_count``/``pop_fail_count`` attributes read through to them.
    """

    def __init__(
        self,
        capacity: int,
        push_stalls: Counter | None = None,
        pop_stalls: Counter | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        # Round up to a power of two so the index mask is a single AND.
        cap = 1
        while cap < capacity:
            cap <<= 1
        self._mask = cap - 1
        self._slots: list[Any] = [None] * cap
        self._head = 0  # consumer cursor (only the consumer writes)
        self._tail = 0  # producer cursor (only the producer writes)
        self._closed = False
        # Monotonic counters for contention accounting (cost model input).
        self.push_stalls = push_stalls or Counter("queue.push_stalls")
        self.pop_stalls = pop_stalls or Counter("queue.pop_stalls")
        #: Exact peak occupancy ever reached (the sampler only sees periodic
        #: snapshots; timeline analysis wants the true high-water mark).
        self.high_water = 0

    @property
    def occupancy_high_water(self) -> int:
        return self.high_water

    @property
    def push_fail_count(self) -> int:
        return self.push_stalls.value

    @property
    def pop_fail_count(self) -> int:
        return self.pop_stalls.value

    @property
    def capacity(self) -> int:
        return self._mask + 1

    def __len__(self) -> int:
        return self._tail - self._head

    def try_push(self, item: Any) -> bool:
        """Producer side: False (and no effect) when the ring is full."""
        if self._closed:
            raise QueueClosedError("push on closed queue")
        tail = self._tail
        if tail - self._head > self._mask:
            self.push_stalls.inc()
            return False
        self._slots[tail & self._mask] = item
        # Publishing order matters: the slot write above must precede the
        # tail bump that makes it visible to the consumer.
        self._tail = tail + 1
        depth = self._tail - self._head
        if depth > self.high_water:
            self.high_water = depth
        return True

    def try_pop(self) -> tuple[bool, Any]:
        """Consumer side: ``(False, None)`` when momentarily empty."""
        head = self._head
        if head == self._tail:
            self.pop_stalls.inc()
            return False, None
        item = self._slots[head & self._mask]
        self._slots[head & self._mask] = None  # let the chunk be recycled
        self._head = head + 1
        return True, item

    def close(self) -> None:
        """Producer signals end-of-stream."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed


class LockedQueue:
    """Mutex-protected queue with the same interface (the paper's baseline)."""

    def __init__(
        self,
        capacity: int,
        push_stalls: Counter | None = None,
        pop_stalls: Counter | None = None,
        lock_ops_counter: Counter | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._items: deque[Any] = deque()
        self._lock = threading.Lock()
        self._closed = False
        self.push_stalls = push_stalls or Counter("queue.push_stalls")
        self.pop_stalls = pop_stalls or Counter("queue.pop_stalls")
        # Lock acquisitions are what the cost model charges for.
        self._lock_ops = lock_ops_counter or Counter("queue.lock_ops")
        #: Exact peak occupancy ever reached (see :class:`SpscRingQueue`).
        self.high_water = 0

    @property
    def occupancy_high_water(self) -> int:
        return self.high_water

    @property
    def push_fail_count(self) -> int:
        return self.push_stalls.value

    @property
    def pop_fail_count(self) -> int:
        return self.pop_stalls.value

    @property
    def lock_ops(self) -> int:
        return self._lock_ops.value

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def try_push(self, item: Any) -> bool:
        with self._lock:
            self._lock_ops.inc()
            if self._closed:
                raise QueueClosedError("push on closed queue")
            if len(self._items) >= self._capacity:
                self.push_stalls.inc()
                return False
            self._items.append(item)
            if len(self._items) > self.high_water:
                self.high_water = len(self._items)
            return True

    def try_pop(self) -> tuple[bool, Any]:
        with self._lock:
            self._lock_ops.inc()
            if not self._items:
                self.pop_stalls.inc()
                return False, None
            return True, self._items.popleft()

    def close(self) -> None:
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed
