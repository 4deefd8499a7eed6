"""Zero-copy trace transport over POSIX shared memory.

The processes execution mode (``--mode processes``) must hand each worker
process the *whole* :class:`~repro.trace.batch.TraceBatch` — workers route
rows by address hash, so every worker reads every column — without pickling
megabytes of numpy arrays per chunk.  The paper's pipeline gets this for
free from threads; here we reproduce it across address spaces:

* :func:`share_batch` copies the batch's columns once into a single
  :class:`multiprocessing.shared_memory.SharedMemory` block (8-byte-aligned
  offsets) and returns a small picklable :class:`SharedBatchMeta` describing
  the layout plus the (tiny) intern tables.
* :func:`attach_batch` maps the block in a worker process and rebuilds the
  batch as read-only numpy views **into the shared pages** — no copy, no
  per-chunk serialization.  Only chunk index ranges ever cross the queues.

The creator owns the block: call :meth:`SharedBatch.close` (which unlinks)
exactly once after all workers have exited.  Attachments in workers are
closed on process exit; Python 3.11's ``resource_tracker`` would complain
about (and double-unlink) blocks it did not create, so :func:`attach_batch`
registers the attachment with the tracker suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.trace.batch import _COLUMNS, TraceBatch


def _align8(n: int) -> int:
    return (n + 7) & ~7


@dataclass(frozen=True)
class SharedBatchMeta:
    """Picklable layout descriptor for one shared batch block.

    A spilled (mmap-backed) batch needs no block at all — the columns are
    already file-backed and every process can map them independently.  For
    those, ``path`` names the spill directory and ``name``/``columns`` are
    empty sentinels.
    """

    name: str
    n_events: int
    #: (column name, dtype string, byte offset) in declaration order.
    columns: tuple[tuple[str, str, int], ...]
    var_names: tuple[str, ...]
    file_names: tuple[str, ...]
    #: Spill directory to re-map worker-side (``None`` = shm transport).
    path: str | None = None


class SharedBatch:
    """Creator-side handle: the block plus its layout meta."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory | None,
        meta: SharedBatchMeta,
    ) -> None:
        self.shm = shm
        self.meta = meta

    @property
    def nbytes(self) -> int:
        return self.shm.size if self.shm is not None else 0

    def close(self) -> None:
        """Release and unlink the block (creator-side, call once)."""
        if self.shm is None:  # spilled batch: nothing was allocated
            return
        try:
            self.shm.close()
        finally:
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass


def share_batch(batch: TraceBatch) -> SharedBatch:
    """Describe ``batch`` for worker processes.

    In-memory batches are copied once into a shared-memory block.  Spilled
    batches skip the copy entirely — a 10⁸-event trace must never be
    materialized — and ship only the spill path; workers re-map the files.
    """
    spill_path = getattr(batch, "spill_path", "")
    if spill_path:
        meta = SharedBatchMeta(
            name="",
            n_events=len(batch),
            columns=(),
            var_names=batch.var_names,
            file_names=batch.file_names,
            path=str(spill_path),
        )
        return SharedBatch(None, meta)
    layout: list[tuple[str, str, int]] = []
    offset = 0
    for name, _ in _COLUMNS:
        col = np.ascontiguousarray(getattr(batch, name))
        layout.append((name, col.dtype.str, offset))
        offset = _align8(offset + col.nbytes)
    shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
    for (name, dtype, off), (cname, _) in zip(layout, _COLUMNS):
        col = np.ascontiguousarray(getattr(batch, cname))
        dst = np.ndarray(len(col), dtype=np.dtype(dtype), buffer=shm.buf, offset=off)
        dst[:] = col
    meta = SharedBatchMeta(
        name=shm.name,
        n_events=len(batch),
        columns=tuple(layout),
        var_names=batch.var_names,
        file_names=batch.file_names,
    )
    return SharedBatch(shm, meta)


def attach_batch(
    meta: SharedBatchMeta,
) -> tuple[TraceBatch, shared_memory.SharedMemory | None]:
    """Map a shared block and rebuild the batch as zero-copy views.

    Returns the batch plus the attachment handle; the caller keeps the
    handle alive for as long as the batch is used (the views alias its
    buffer) and ``close()``s it when done — never ``unlink()``.  For a
    spilled batch the handle is ``None``: the columns are private file
    mappings with no creator-owned resource to release.
    """
    if meta.path is not None:
        from repro.trace.spill import open_spill

        return open_spill(meta.path), None
    # SharedMemory.__init__ registers *attachments* with the resource
    # tracker too (fixed only in 3.13's ``track=False``); the tracker would
    # then unlink the block when this process exits, yanking it out from
    # under the creator and the sibling workers.  Suppress registration for
    # the duration of the attach.
    orig_register = resource_tracker.register

    def _no_register(name: str, rtype: str) -> None:  # pragma: no cover
        if rtype != "shared_memory":
            orig_register(name, rtype)

    resource_tracker.register = _no_register
    try:
        shm = shared_memory.SharedMemory(name=meta.name)
    finally:
        resource_tracker.register = orig_register
    cols: dict[str, np.ndarray] = {}
    for name, dtype, off in meta.columns:
        arr = np.ndarray(
            meta.n_events, dtype=np.dtype(dtype), buffer=shm.buf, offset=off
        )
        arr.flags.writeable = False
        cols[name] = arr
    batch = TraceBatch(
        **cols,
        var_names=meta.var_names,
        file_names=meta.file_names,
    )
    return batch, shm
