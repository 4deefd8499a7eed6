"""The vectorized Algorithm-1 kernel.

Produces the same :class:`~repro.core.deps.DependenceStore` as the reference
engine, but in O(n log n) numpy instead of a Python event loop.  The key
observation: Algorithm 1 is a per-*tracking-key* recurrence (key = address
for the perfect signature, key = hash slot for the array signature), and the
"last read / last write before me on my key" quantities it consults can be
computed for all accesses of a chunk at once (see :class:`ChunkKernel`).

One kernel serves every vectorized path: one-shot profiling runs it once
over the whole trace (:meth:`ChunkKernel.run`), pipeline workers run it
chunk by chunk with their tracker state carried in between.
"""

from __future__ import annotations

import numpy as np

from repro.common.config import ProfilerConfig
from repro.common.errors import ProfilerError
from repro.core.controlflow import LoopStateIndex, extract_loop_info
from repro.core.deps import DepType, Dependence, DependenceStore
from repro.core.result import ProfileResult, ProfileStats
from repro.core.reference import ACCESS_GRANULARITY
from repro.obs.provenance import ProvenanceCollector
from repro.sigmem.planes import DenseKeySpace, DensePlaneTracker
from repro.trace import FREE, READ, WRITE, TraceBatch

_READ_CAT = 0
_WRITE_CAT = 1
_KILL_CAT = 2


def _group_rows(cols: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sort order and group starts of equal rows over parallel columns.

    ``np.unique(matrix, axis=0)`` sorts 64-byte void records with memcmp —
    an order of magnitude slower than a lexsort over the int64 columns,
    which dominates this engine's runtime on merge-heavy traces.  Rows
    ``order[starts[g]:starts[g + 1]]`` are the members of group ``g``.
    """
    n = len(cols[0])
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = np.lexsort(cols[::-1])
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for c in cols:
        s = c[order]
        change[1:] |= s[1:] != s[:-1]
    return order, np.flatnonzero(change)


def _conflict_flags(
    tracker,
    inserts: np.ndarray,
    has: np.ndarray,
    prev: np.ndarray,
    ukey: np.ndarray,
    grp: np.ndarray,
    starts: np.ndarray,
    addr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``ArraySignature(track_conflicts=True)``'s rules over sorted rows.

    For a sink reading ``tracker`` the source is *suspect* when the slot's
    record belongs to another address, when the slot carried an eviction
    in, or when an earlier insert of this chunk into the slot evicted
    (kills do not reset the bit).  An insert *evicts* when the slot holds
    another address's record.  ``has``/``prev`` say whether a record is
    present before each row and which in-chunk row wrote it; otherwise it
    is the carried-in record, whose owner the tracker's plane holds.
    Returns the per-row suspect mask and the evicting insert rows.
    """
    owner, evicted = tracker.conflict_state(ukey)
    inside = prev >= 0
    src_addr = np.where(inside, addr[np.where(inside, prev, 0)], owner[grp])
    foreign = has & (addr != src_addr)
    evict = inserts & foreign
    # Evictions strictly before each row within its key group.
    before = np.cumsum(evict, dtype=np.int64)
    before -= evict
    before -= before[starts][grp]
    return foreign | evicted[grp] | (before > 0), evict


def _segment_prev(
    is_kill: np.ndarray,
    new_key: np.ndarray,
    starts: np.ndarray,
    grp: np.ndarray,
    idx: np.ndarray,
    write_rows: np.ndarray,
    read_rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Previous write / previous read per row within its segment, plus the
    rows in their key's first segment.

    Rows are sorted by ``(key, position)``; ``starts``/``grp`` are each key
    group's first row and each row's group.  A segment is a key's run cut
    after each kill row.  The previous candidate is a segmented cumulative
    maximum over row indices (``-1`` where the segment has none yet).
    """
    n = len(idx)
    big = np.int64(n + 2)
    kills_before = np.zeros(n, dtype=np.int64)
    np.cumsum(is_kill[:-1], out=kills_before[1:])
    boundary = new_key.copy()
    boundary[1:] |= kills_before[1:] != kills_before[:-1]
    seg_off = np.cumsum(boundary, dtype=np.int64) * big
    del boundary
    first_seg = kills_before == kills_before[starts][grp]
    del kills_before

    def prev_of(candidate_mask: np.ndarray) -> np.ndarray:
        run = np.maximum.accumulate(np.where(candidate_mask, idx, -1) + seg_off)
        prev = np.empty(n, dtype=np.int64)
        prev[0] = -1
        np.subtract(run[:-1], seg_off[1:], out=prev[1:])
        prev[prev < 0] = -1
        return prev

    return prev_of(write_rows), prev_of(read_rows), first_seg


class ChunkKernel:
    """Incremental, signature-state-carrying vectorized Algorithm 1.

    A pipeline worker sees the trace chunk by chunk; one-shot profiling
    (:meth:`run`) hands it the whole trace as a single chunk.  The kernel
    keeps the tracker state *between* chunks in a pair of plane trackers
    (:mod:`repro.sigmem.planes`) and processes each chunk as array
    operations:

    1. gather the chunk's rows from the full batch (global positions kept),
    2. derive tracking keys (hash slot, or a dense index over addresses or
       hash slots),
    3. expand FREE events into per-key kill rows (the trackers derive the
       keys a FREE kills),
    4. sort by ``(key, position)``, segment at kills, and compute segmented
       previous-read/previous-write indices,
    5. splice the *planes' carry-in state* into each key's first segment —
       the last access before this chunk plays the role of a virtual
       previous row,
    6. apply Algorithm 1's branch masks, classify loop-carried sites against
       push-order loop-frame snapshots (:class:`LoopStateIndex`), dedup, and
       bulk-merge into the store,
    7. scatter each key's final state (last read/write after the last kill)
       back into the planes.

    It reproduces the reference engine bit for bit — same dependences, same
    instance counts, same race flags, same carried sets — because every one
    of those steps mirrors a reference-engine rule, including the push-order
    loop-frame semantics of delayed pushes (Section V).

    With a :class:`~repro.obs.provenance.ProvenanceCollector` attached it
    also records what the reference engine's per-instance notes record:
    each merged dependence of a chunk is noted once with its instance
    count, first/last sink timestamp and ``suspect_fp``, reduced over the
    groups the dedup already forms.  Over slot planes with conflict
    tracking, step 5 additionally derives ``ArraySignature``'s suspect
    sources and hash-conflict evictions (:func:`_conflict_flags`), which
    the planes turn into evicted bits, ``sigmem.evictions`` and conflict
    heat.  Without a collector the hot path pays one ``is None`` test per
    emitted dependence type.

    :class:`~repro.parallel.worker.Worker` drives it through ``store``,
    ``stats``, ``read_tracker``/``write_tracker`` and :meth:`process_rows`.
    """

    def __init__(
        self,
        config: ProfilerConfig,
        read_tracker,
        write_tracker,
        store: DependenceStore | None = None,
        heat=None,
        provenance: "ProvenanceCollector | None" = None,
    ) -> None:
        if type(read_tracker) is not type(write_tracker):
            raise ProfilerError("read/write plane trackers must match")
        self.config = config
        self.read_tracker = read_tracker
        self.write_tracker = write_tracker
        #: Optional address-heat recorder (see :mod:`repro.obs.heatmap`).
        #: Fed inline from the masks the kernel computes anyway, so heat
        #: recording never re-derives the access split per chunk.
        self.heat = heat
        #: Optional per-dependence attribution collector: every merged
        #: dependence of a chunk is noted with its instance count, sink
        #: timestamp window and suspect-source verdict.
        self.provenance = provenance
        #: Lossy planes with conflict tracking: derive suspect sources and
        #: hash-conflict evictions (see :func:`_conflict_flags`).
        self._track_conflicts = read_tracker.tracks_conflicts
        self.store = store if store is not None else DependenceStore()
        self.stats = ProfileStats()
        #: Push-order loop-frame snapshots for the batch being profiled.
        #: The pipeline builds one index per batch and shares it across its
        #: same-process workers; unset, the kernel builds its own lazily.
        self.loop_index: "LoopStateIndex | None" = None
        self._batch_id: int | None = None

    # -- helpers -----------------------------------------------------------
    def bind_loop_index(self, batch: TraceBatch, index: "LoopStateIndex") -> None:
        """Adopt a prebuilt snapshot index for ``batch`` (one per pipeline
        run, shared across this process's workers)."""
        self.loop_index = index
        self._batch_id = id(batch)

    def _loop_index_for(self, batch: TraceBatch) -> "LoopStateIndex":
        if self.loop_index is None or self._batch_id != id(batch):
            self.loop_index = LoopStateIndex(batch)
        self._batch_id = id(batch)
        return self.loop_index

    @classmethod
    def one_shot(cls, config: ProfilerConfig) -> "ChunkKernel":
        """A kernel over fresh plane trackers for one whole-trace run.

        Perfect tracking keys the planes by address; an array signature
        keys them by the signature's hash slots, so the planes grow with
        the touched slots rather than with ``signature_slots``.
        """
        space = (
            DenseKeySpace()
            if config.perfect_signature
            else DenseKeySpace(config.signature_slots, config.hash_salt)
        )
        return cls(config, DensePlaneTracker(space), DensePlaneTracker(space))

    def run(self, batch: TraceBatch) -> ProfileResult:
        """One-shot profiling of a complete trace (one chunk, all rows)."""
        self.process_rows(batch, np.arange(len(batch), dtype=np.int64))
        self.stats.n_unique_addresses = batch.n_unique_addresses
        return ProfileResult(
            store=self.store,
            loops=extract_loop_info(batch),
            stats=self.stats,
            var_names=batch.var_names,
            file_names=batch.file_names,
            multithreaded=batch.n_threads > 1 or self.config.multithreaded_target,
        )

    # -- the chunk hot path ------------------------------------------------
    def process_rows(self, batch: TraceBatch, rows: np.ndarray) -> None:
        """Run Algorithm 1 over ``rows`` (ascending global row indices)."""
        cfg = self.config
        stats = self.stats
        stats.n_events += len(rows)
        kind = batch.kind[rows]
        is_read = kind == READ
        is_write = kind == WRITE
        acc = is_read | is_write
        stats.n_reads += int(np.count_nonzero(is_read))
        stats.n_writes += int(np.count_nonzero(is_write))
        stats.n_accesses = stats.n_reads + stats.n_writes

        acc_rows = rows[acc].astype(np.int64)
        if self.heat is not None and len(acc_rows):
            self.heat.record_accesses(batch.addr[acc_rows], is_write[acc])
        free_rows = (
            rows[kind == FREE].astype(np.int64)
            if cfg.track_lifetime
            else np.empty(0, dtype=np.int64)
        )
        if len(acc_rows) == 0 and len(free_rows) == 0:
            self._note_memory()
            return

        pos = acc_rows
        key = self.read_tracker.keys_of(batch.addr[acc_rows])
        cat = np.where(is_write[acc], _WRITE_CAT, _READ_CAT).astype(np.int8)
        loc = batch.loc[acc_rows].astype(np.int64)
        var = batch.var[acc_rows].astype(np.int64)
        tid = batch.tid[acc_rows].astype(np.int64)
        ts = batch.ts[acc_rows].astype(np.int64)

        if len(free_rows):
            kp_parts = [pos]
            kk_parts = [key]
            kill_keys = self.read_tracker.kill_keys
            for i in free_rows.tolist():
                base = int(batch.addr[i])
                keys = kill_keys(base, base + int(batch.aux[i]), ACCESS_GRANULARITY)
                if len(keys):
                    kp_parts.append(np.full(len(keys), i, dtype=np.int64))
                    kk_parts.append(keys)
            if len(kp_parts) > 1:
                n_acc = len(pos)
                pos = np.concatenate(kp_parts)
                key = np.concatenate(kk_parts)
                pad = len(pos) - n_acc
                fill = np.zeros(pad, dtype=np.int64)
                cat = np.concatenate([cat, np.full(pad, _KILL_CAT, dtype=np.int8)])
                loc = np.concatenate([loc, fill - 1])
                var = np.concatenate([var, fill - 1])
                tid = np.concatenate([tid, fill])
                ts = np.concatenate([ts, fill])

        if len(pos) == 0:
            # Only FREEs over addresses this worker never tracked.
            self._note_memory()
            return

        del acc_rows  # ``pos`` holds the rows from here on
        order = np.lexsort((pos, key))
        key = key[order]
        cat = cat[order]
        pos = pos[order]
        loc = loc[order]
        var = var[order]
        tid = tid[order]
        ts = ts[order]
        del order
        n = len(key)

        # -- segmentation: new key, or kill boundary within a key ----------
        is_kill = cat == _KILL_CAT
        new_key = np.empty(n, dtype=bool)
        new_key[0] = True
        new_key[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(new_key)
        grp = np.cumsum(new_key, dtype=np.int64) - 1
        idx = np.arange(n, dtype=np.int64)
        read_rows = cat == _READ_CAT
        write_rows = cat == _WRITE_CAT
        prev_w, prev_r, first_seg = _segment_prev(
            is_kill, new_key, starts, grp, idx, write_rows, read_rows
        )

        # -- carry-in: the planes act as the virtual row before each key's
        # first (pre-kill) segment; gathered once per key, not per row ----
        ukey = key[starts]
        carry_r = self.read_tracker.gather(ukey)
        carry_w = self.write_tracker.gather(ukey)
        has_w = (prev_w >= 0) | (first_seg & carry_w[0][grp])
        has_r = (prev_r >= 0) | (first_seg & carry_r[0][grp])

        # -- signature conflicts: suspect sources + evictions ----------------
        suspect_r = suspect_w = None
        if self._track_conflicts:
            addr = batch.addr[pos].astype(np.int64, copy=False)
            suspect_r, evict_r = _conflict_flags(
                self.read_tracker, read_rows, has_r, prev_r, ukey, grp, starts, addr
            )
            suspect_w, evict_w = _conflict_flags(
                self.write_tracker, write_rows, has_w, prev_w, ukey, grp, starts, addr
            )
            self.read_tracker.note_evictions(key[evict_r], addr[evict_r])
            self.write_tracker.note_evictions(key[evict_w], addr[evict_w])
            del addr, evict_r, evict_w

        def sources(sel, prev, carry):
            """``(loc, var, tid, ts)`` of each selected row's source: the
            previous in-chunk access, else the key's carried-in record."""
            p = prev[sel]
            inside = p >= 0
            p[~inside] = 0
            g = grp[sel]
            return [
                np.where(inside, col[p], plane[g])
                for col, plane in zip((loc, var, tid, ts), carry[1:])
            ]

        # -- Algorithm 1 branch table --------------------------------------
        init_mask = write_rows & ~has_w
        waw_mask = write_rows & has_w
        emit_plan = [
            (DepType.RAW, read_rows & has_w, prev_w, carry_w, suspect_w),
            (DepType.WAR, waw_mask & has_r, prev_r, carry_r, suspect_r),
            (DepType.WAW, waw_mask, prev_w, carry_w, suspect_w),
        ]
        if not cfg.ignore_rar:
            emit_plan.append(
                (DepType.RAR, read_rows & has_r, prev_r, carry_r, suspect_r)
            )
        loop_index = self._loop_index_for(batch)
        for dep_type, mask, prev, carry, suspect in emit_plan:
            sel = np.flatnonzero(mask)
            stats.dep_instances[dep_type] += len(sel)
            if len(sel) == 0:
                continue
            s_loc, s_var, s_tid, s_ts = sources(sel, prev, carry)
            self._emit(
                dep_type,
                sink_loc=loc[sel],
                sink_tid=tid[sel],
                sink_pos=pos[sel],
                sink_ts=ts[sel],
                src_loc=s_loc,
                src_tid=s_tid,
                src_var=s_var,
                src_ts=s_ts,
                loop_index=loop_index,
                suspect=suspect,
                sel=sel,
            )

        init_rows = np.flatnonzero(init_mask)
        stats.dep_instances[DepType.INIT] += len(init_rows)
        if len(init_rows):
            i_loc = loc[init_rows]
            i_tid = tid[init_rows]
            order, g_starts = _group_rows([i_loc, i_tid])
            heads = order[g_starts]
            deps = [
                Dependence(
                    DepType.INIT,
                    sink_loc=s_loc,
                    sink_tid=s_tid,
                    source_loc=-1,
                    source_tid=-1,
                    var=-1,
                )
                for s_loc, s_tid in zip(
                    i_loc[heads].tolist(), i_tid[heads].tolist()
                )
            ]
            self._merge_groups(deps, order, g_starts, ts[init_rows])

        # -- carry-out: scatter each key's end-of-chunk state --------------
        # The surviving record per key is the last read/write *after the
        # key's last kill* (a kill row itself belongs to the preceding
        # segment, so segment-local maxima would wrongly resurrect a freed
        # record when a group ends with its kill).  Take the maxima over
        # whole key groups and invalidate anything at or before the last
        # kill.
        def group_last(mask: np.ndarray) -> np.ndarray:
            return np.maximum.reduceat(np.where(mask, idx, -1), starts)

        last_kill = group_last(is_kill)
        last_r = group_last(read_rows)
        last_w = group_last(write_rows)
        last_r = np.where(last_r > last_kill, last_r, np.int64(-1))
        last_w = np.where(last_w > last_kill, last_w, np.int64(-1))
        group_killed = last_kill >= 0
        # Owner addresses for the occupancy plane are gathered only for the
        # few carried-out rows (``pos`` still holds each sorted row's batch
        # row index), never for the whole chunk.
        wants_addrs = getattr(self.read_tracker, "wants_addrs", False)
        for tracker, last in (
            (self.read_tracker, last_r),
            (self.write_tracker, last_w),
        ):
            upd = last >= 0
            src = last[upd]
            if wants_addrs:
                adr = batch.addr[pos[src]].astype(np.int64, copy=False)
                tracker.set_rows(
                    key[src], loc[src], var[src], tid[src], ts[src], addr=adr
                )
            else:
                tracker.set_rows(key[src], loc[src], var[src], tid[src], ts[src])
            dead = ~upd & group_killed
            tracker.clear_keys(key[starts[dead]])
        self._note_memory()

    def _emit(
        self,
        dep_type: DepType,
        sink_loc: np.ndarray,
        sink_tid: np.ndarray,
        sink_pos: np.ndarray,
        sink_ts: np.ndarray,
        src_loc: np.ndarray,
        src_tid: np.ndarray,
        src_var: np.ndarray,
        src_ts: np.ndarray,
        loop_index: "LoopStateIndex",
        suspect: np.ndarray | None = None,
        sel: np.ndarray | None = None,
    ) -> None:
        """Carried classification + dedup + bulk store merge for one type.

        ``suspect`` is the chunk's per-row suspect mask (``None`` without
        conflict tracking) and ``sel`` the rows this type's sinks sit on.
        """
        race = src_ts > sink_ts
        self.stats.races_flagged += int(np.count_nonzero(race))
        depth = loop_index.depth
        cols = [sink_loc, sink_tid, src_loc, src_tid, src_var, race.astype(np.int64)]
        if depth:
            tids = np.unique(sink_tid).tolist()
            if len(tids) == 1:
                carried = loop_index.carried_sites(tids[0], sink_pos, src_ts)
            else:
                carried = np.empty((len(sink_loc), depth), dtype=np.int64)
                for t in tids:
                    m = sink_tid == t
                    carried[m] = loop_index.carried_sites(t, sink_pos[m], src_ts[m])
            cols.extend(carried[:, lvl] for lvl in range(depth))
        order, starts = _group_rows(cols)
        heads = order[starts]
        uniq = [c[heads].tolist() for c in cols]
        if depth:
            sites = [frozenset(s for s in row if s >= 0) for row in zip(*uniq[6:])]
        else:
            sites = [frozenset()] * len(heads)
        deps = [
            Dependence(
                dep_type,
                sink_loc=s_loc,
                sink_tid=s_tid,
                source_loc=p_loc,
                source_tid=p_tid,
                var=p_var,
                carried=carried_at,
                race=bool(is_race),
            )
            for s_loc, s_tid, p_loc, p_tid, p_var, is_race, carried_at in zip(
                *uniq[:6], sites
            )
        ]
        self._merge_groups(deps, order, starts, sink_ts, suspect, sel)

    def _merge_groups(
        self,
        deps: list[Dependence],
        order: np.ndarray,
        starts: np.ndarray,
        sink_ts: np.ndarray,
        suspect: np.ndarray | None = None,
        sel: np.ndarray | None = None,
    ) -> None:
        """Merge one group per dependence (``_group_rows`` layout) into the
        store, and into the provenance collector when one is attached."""
        counts = np.diff(np.append(starts, len(order))).tolist()
        store = self.store
        for dep, c in zip(deps, counts):
            store.add_merged(dep, c)
        prov = self.provenance
        if prov is None:
            return
        ts = sink_ts[order]
        first = np.minimum.reduceat(ts, starts).tolist()
        last = np.maximum.reduceat(ts, starts).tolist()
        sus = (
            np.logical_or.reduceat(suspect[sel][order], starts).tolist()
            if suspect is not None
            else [False] * len(deps)
        )
        for dep, c, f, la, su in zip(deps, counts, first, last, sus):
            prov.note_many(dep, f, la, c, su)

    def _note_memory(self) -> None:
        self.stats.tracker_memory_bytes = (
            self.read_tracker.memory_bytes + self.write_tracker.memory_bytes
        )
