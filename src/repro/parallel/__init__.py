"""The parallel profiling pipeline (Section IV, Figure 2).

The main thread plays the *producer*: it walks the instrumented event
stream, assigns each memory access to the worker that owns its address
(``worker = addr % W``, overridden by the load balancer's redistribution
table), buffers assignments in fixed-size *chunks*, and pushes full chunks
onto per-worker queues.  Workers *consume* chunks, run Algorithm 1
against their private signature pair, and merge dependences into private
stores; a final cheap merge folds the duplicate-free local maps together.

Pieces:

* :class:`SpscRingQueue` — the lock-free single-producer/single-consumer
  ring buffer (and :class:`LockedQueue`, the mutex ablation of Figure 5),
* :class:`Chunk` / :class:`ChunkPool` — recycled index buffers,
* :class:`AddressMap` — modulo distribution + redistribution overrides,
* :class:`AccessStats` / :class:`Rebalancer` — hot-address tracking and the
  top-ten redistribution policy (Section IV-A),
* :class:`Worker` — chunk consumer wrapping an incremental reference engine,
* :class:`ParallelProfiler` — the pipeline, in deterministic in-process mode
  or with ``multiprocessing`` workers over a shared-memory trace.
"""

from repro.parallel.queues import LockedQueue, SpscRingQueue
from repro.parallel.chunks import Chunk, ChunkPool
from repro.parallel.address_map import AddressMap
from repro.parallel.balance import AccessStats, Rebalancer
from repro.parallel.worker import Worker
from repro.parallel.engine import ParallelProfiler, ParallelRunInfo

__all__ = [
    "AccessStats",
    "AddressMap",
    "Chunk",
    "ChunkPool",
    "LockedQueue",
    "ParallelProfiler",
    "ParallelRunInfo",
    "Rebalancer",
    "SpscRingQueue",
    "Worker",
]
