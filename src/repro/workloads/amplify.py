"""Trace amplifier: replay bundled workload traces at 10⁷–10⁸ events.

The paper's scalability results come from benchmark inputs far larger than
the MiniVM analogs can execute in reasonable time.  The amplifier closes
that gap at the *trace* level: it tiles a bundled base trace ``factor``
times, shifting every tile into a disjoint address window and a later
timestamp epoch.  Each tile therefore replays the base program verbatim on
private memory, which gives the scaled trace a known ground truth:

* tiles never alias, so no cross-tile dependence can exist, and
* dependences are keyed by source location — identical in every tile — so
  the merged dependence set of the amplified trace **equals the base
  trace's dependence set** (for an exact profiler; lossy signatures add
  only their usual aliasing FPs).

Address shifting applies only to rows whose ``addr`` is a memory address
(READ/WRITE/ALLOC/FREE); loop markers carry encoded loop *sites* in
``addr`` and locks/functions/threads carry ids, none of which may move.
Timestamps shift on every row so the amplified stream stays globally
monotone.

At 10⁷⁺ events the loop-snapshot indexes (O(loop events) resident state)
and per-site loop bookkeeping would dominate memory, so scale runs strip
the loop markers first (``keep_loops=False``) — dependences then carry no
loop annotations, on both sides of any differential comparison.

:func:`amplify_to_spill` streams tiles straight into an mmap-backed spill
directory (:mod:`repro.trace.spill`), so building a 10⁸-event trace needs
only one tile in memory, and profiling it reads back through windowed
memmaps.  The distinct-address count is known exactly
(``factor × base unique``) and recorded as the spill's unique hint — the
exact scan would be O(trace) memory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.common.errors import WorkloadError
from repro.trace import ALLOC, FREE, LOOP_ENTER, LOOP_EXIT, LOOP_ITER, READ, WRITE
from repro.trace.batch import _COLUMNS, TraceBatch
from repro.trace.spill import SpilledTraceBatch, TraceSpillWriter, is_spill, open_spill
from repro.workloads.base import Workload, WorkloadMeta, get_trace, register

#: Kinds whose ``addr`` column holds a memory address (and must shift).
_ADDR_KINDS = (READ, WRITE, ALLOC, FREE)
#: Loop markers (``addr`` = encoded site; stripped for scale runs).
_LOOP_KINDS = (LOOP_ENTER, LOOP_ITER, LOOP_EXIT)

#: Tile address windows start on this alignment (one signature-bank stripe).
_ADDR_ALIGN = 1 << 12


def strip_loops(batch: TraceBatch) -> TraceBatch:
    """Drop the loop marker rows (scale runs profile without loop state)."""
    kind = np.asarray(batch.kind)
    mask = np.ones(len(kind), dtype=bool)
    for k in _LOOP_KINDS:
        mask &= kind != k
    if mask.all():
        return batch
    return batch.select(np.flatnonzero(mask))


def _strides(batch: TraceBatch) -> tuple[int, int]:
    """Per-tile (address, timestamp) offsets keeping tiles fully disjoint."""
    if len(batch) == 0:
        return _ADDR_ALIGN, 1
    kind = np.asarray(batch.kind)
    addr = np.asarray(batch.addr)
    shift = kind == _ADDR_KINDS[0]
    for k in _ADDR_KINDS[1:]:
        shift |= kind == k
    max_addr = int(addr[shift].max()) if shift.any() else 0
    addr_stride = ((max_addr // _ADDR_ALIGN) + 2) * _ADDR_ALIGN
    ts_stride = int(np.asarray(batch.ts).max()) + 1
    return addr_stride, ts_stride


def _shift_mask(kind: np.ndarray) -> np.ndarray:
    shift = kind == _ADDR_KINDS[0]
    for k in _ADDR_KINDS[1:]:
        shift |= kind == k
    return shift


def _tile_columns(
    base: dict[str, np.ndarray],
    shift: np.ndarray,
    tile: int,
    addr_stride: int,
    ts_stride: int,
) -> dict[str, np.ndarray]:
    cols = dict(base)
    cols["addr"] = base["addr"] + np.where(
        shift, np.int64(tile) * addr_stride, np.int64(0)
    )
    cols["ts"] = base["ts"] + np.int64(tile) * ts_stride
    return cols


def amplify_batch(
    batch: TraceBatch, factor: int, keep_loops: bool = True
) -> TraceBatch:
    """Tile ``batch`` ``factor`` times in memory (small/medium scales)."""
    if factor < 1:
        raise WorkloadError(f"amplification factor must be >= 1, got {factor}")
    if not keep_loops:
        batch = strip_loops(batch)
    if factor == 1:
        return batch
    addr_stride, ts_stride = _strides(batch)
    base = {
        name: np.ascontiguousarray(getattr(batch, name)) for name, _ in _COLUMNS
    }
    shift = _shift_mask(base["kind"])
    tiles = [
        _tile_columns(base, shift, t, addr_stride, ts_stride)
        for t in range(factor)
    ]
    return TraceBatch(
        **{
            name: np.concatenate([t[name] for t in tiles])
            for name, _ in _COLUMNS
        },
        var_names=batch.var_names,
        file_names=batch.file_names,
    )


def amplify_to_spill(
    batch: TraceBatch,
    factor: int,
    path: str | Path,
    keep_loops: bool = False,
) -> SpilledTraceBatch:
    """Stream ``factor`` tiles into a spill directory, one tile resident.

    Records the exact distinct READ/WRITE address count
    (``factor × base``) as the spill's unique hint; tiles are
    address-disjoint by construction, so the product is not an estimate.
    """
    if factor < 1:
        raise WorkloadError(f"amplification factor must be >= 1, got {factor}")
    if not keep_loops:
        batch = strip_loops(batch)
    addr_stride, ts_stride = _strides(batch)
    base = {
        name: np.ascontiguousarray(getattr(batch, name)) for name, _ in _COLUMNS
    }
    shift = _shift_mask(base["kind"])
    with TraceSpillWriter(path) as w:
        w.set_intern_tables(batch.var_names, batch.file_names)
        w.set_unique_hint(factor * batch.n_unique_addresses)
        for t in range(factor):
            w.append_columns(
                **_tile_columns(base, shift, t, addr_stride, ts_stride)
            )
    return open_spill(path)


def amplify_cached(
    batch: TraceBatch,
    factor: int,
    cache_dir: str | Path,
    tag: str,
    keep_loops: bool = False,
) -> SpilledTraceBatch:
    """Spill-amplify with on-disk reuse keyed by ``tag`` and ``factor``."""
    path = Path(cache_dir) / f"{tag}-x{factor}.trace.spill"
    if is_spill(path):
        import os

        os.utime(path)  # LRU freshness, mirroring the npz disk cache
        return open_spill(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return amplify_to_spill(batch, factor, path, keep_loops=keep_loops)


# ---------------------------------------------------------------------------
# Registered amplified workloads: scale = target events in millions.
# ---------------------------------------------------------------------------

#: Amplified targets at or above this size are spilled to disk (when a
#: cache directory is available) instead of materialized in memory.
SPILL_THRESHOLD_EVENTS = 2_000_000

#: ``scale`` unit for amplified workloads.
EVENTS_PER_SCALE = 1_000_000


def _register_amplified(base_name: str) -> None:
    def build(
        scale: int, cache_dir: str | Path | None = None
    ) -> tuple[TraceBatch, WorkloadMeta]:
        target = scale * EVENTS_PER_SCALE
        base = get_trace(base_name)
        stripped = strip_loops(base)
        factor = max(1, -(-target // len(stripped)))
        # Loop annotations left with the stripped markers; amplified truth
        # is the stripped base's dependence set, not per-loop metadata.
        truth = WorkloadMeta()
        if cache_dir is not None and target >= SPILL_THRESHOLD_EVENTS:
            return (
                amplify_cached(
                    stripped, factor, cache_dir, f"amp-{base_name}"
                ),
                truth,
            )
        return amplify_batch(stripped, factor), truth

    register(
        Workload(
            name=f"amp-{base_name}",
            suite="amplified",
            build_trace=build,
            default_scale=1,
            description=(
                f"{base_name} trace tiled into disjoint address windows; "
                f"scale = millions of events"
            ),
        )
    )


_register_amplified("cg")
_register_amplified("rgbyuv")
