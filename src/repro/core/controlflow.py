"""Runtime control-flow information (loop regions).

The profiler reports, next to the dependences, where control regions begin
and end and how many iterations each loop executed (the ``BGN loop`` /
``END loop 1200`` lines of Figure 1).  This module extracts that view from a
trace, and builds the push-order loop-frame snapshots
(:class:`LoopStateIndex`) the vectorized kernel uses to decide whether a
dependence is loop-carried.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ProfilerError
from repro.trace import LOOP_ENTER, LOOP_EXIT, LOOP_ITER, TraceBatch

#: Loop-nest depth cap for the snapshot index (one int64 column per level).
MAX_SNAPSHOT_DEPTH = 63

#: Rows per window when scanning ``batch.kind`` for loop events.
_SCAN_WINDOW = 1 << 22


def loop_event_rows(batch: TraceBatch, *kinds: int) -> np.ndarray:
    """Global row indices of the requested loop-event kinds, in order.

    Scans ``batch.kind`` window-by-window instead of building one
    full-trace boolean mask: on an mmap-spilled batch both the transient
    mask and the resident ``kind`` pages stay bounded by the window
    (consumed windows are released immediately), so loop-index builds no
    longer spike peak RSS proportionally to trace length.
    """
    kind = batch.kind
    n = len(kind)
    release = getattr(batch, "release_window", None)
    found: list[np.ndarray] = []
    for s in range(0, n, _SCAN_WINDOW):
        e = min(n, s + _SCAN_WINDOW)
        kw = np.asarray(kind[s:e])
        mask = kw == kinds[0]
        for k in kinds[1:]:
            mask |= kw == k
        hits = np.flatnonzero(mask)
        if len(hits):
            found.append(hits.astype(np.int64, copy=False) + s)
        if release is not None:
            release(s, e)
    if not found:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(found)


@dataclass
class LoopInfo:
    """Aggregated runtime facts about one static loop site."""

    site: int  # encoded header location
    end_loc: int  # encoded location of the loop's exit line
    total_iterations: int = 0  # summed over all dynamic executions
    executions: int = 0  # number of dynamic instances (all threads)
    threads: set[int] = field(default_factory=set)
    parent: int = -1  # enclosing loop site, -1 if top-level

    @property
    def mean_iterations(self) -> float:
        return self.total_iterations / self.executions if self.executions else 0.0


def extract_loop_info(batch: TraceBatch) -> dict[int, LoopInfo]:
    """Collect per-site loop statistics from the trace's loop events."""
    loops: dict[int, LoopInfo] = {}
    # Track the enclosing site per thread to attribute parents.
    stacks: dict[int, list[int]] = {}
    for i in loop_event_rows(batch, LOOP_ENTER, LOOP_EXIT):
        kind = batch.kind[i]
        site = int(batch.addr[i])
        tid = int(batch.tid[i])
        stack = stacks.setdefault(tid, [])
        if kind == LOOP_ENTER:
            info = loops.get(site)
            if info is None:
                info = loops[site] = LoopInfo(site=site, end_loc=site)
            if stack and info.parent == -1:
                info.parent = stack[-1]
            info.executions += 1
            info.threads.add(tid)
            stack.append(site)
        else:  # LOOP_EXIT
            info = loops[site]
            info.total_iterations += int(batch.aux[i])
            end_loc = int(batch.loc[i])
            if end_loc >= 0:
                info.end_loc = end_loc
            if stack and stack[-1] == site:
                stack.pop()
    return loops


class _TidLoopStates:
    """Per-thread loop-frame snapshots, one row per loop event of the thread."""

    __slots__ = ("rows", "depth", "site", "entry", "iterts")

    def __init__(
        self,
        rows: np.ndarray,
        depth: np.ndarray,
        site: np.ndarray,
        entry: np.ndarray,
        iterts: np.ndarray,
    ) -> None:
        self.rows = rows  # global row index of each loop event (ascending)
        self.depth = depth  # (n_states,) stack depth after k loop events
        self.site = site  # (n_states, D) loop site per level, -1 above depth
        self.entry = entry  # (n_states, D) entry_ts per level
        self.iterts = iterts  # (n_states, D) iter_start_ts per level


class LoopStateIndex:
    """Loop-frame stack snapshots addressed by *stream position*.

    The reference engine classifies a dependence as loop-carried against the
    thread's live loop-frame stack at the moment the *sink* event is
    processed — i.e. the stack produced by all loop events preceding the
    sink in the event stream (push order, not access timestamps: under the
    delayed pushes of Section V the two differ).  This index snapshots each
    thread's stack after every one of its loop events and answers the
    carried test for a sink at global row ``i`` with the exact stack the
    reference engine would have held.

    The snapshots are built per thread with array operations instead of a
    replay.  The stack depth after each loop event is a ±1 walk clamped at
    zero (an EXIT on an empty stack is a no-op)::

        c = cumsum(step);  d = c - min(0, cummin(c))

    Stack level ``lvl`` is live where ``d > lvl``; its frame was pushed by
    the latest ENTER whose post-depth is ``lvl + 1`` (a later one would
    have needed the frame popped first), and its iteration started at the
    latest ITER at depth ``lvl + 1`` after that ENTER, else at entry.
    """

    def __init__(self, batch: TraceBatch) -> None:
        loop_rows = loop_event_rows(batch, LOOP_ENTER, LOOP_ITER, LOOP_EXIT)
        kind = np.asarray(batch.kind[loop_rows])
        tid = np.asarray(batch.tid[loop_rows]).astype(np.int64, copy=False)
        ts = np.asarray(batch.ts[loop_rows]).astype(np.int64, copy=False)
        site = np.asarray(batch.addr[loop_rows]).astype(np.int64, copy=False)
        step = (kind == LOOP_ENTER).astype(np.int64) - (kind == LOOP_EXIT)
        order = np.argsort(tid, kind="stable")
        tids, starts = np.unique(tid[order], return_index=True)
        bounds = np.append(starts, len(order))
        walks: list[tuple[int, np.ndarray, np.ndarray]] = []
        depth = 0
        for t, lo, hi in zip(tids.tolist(), bounds[:-1], bounds[1:]):
            sel = order[lo:hi]
            c = np.cumsum(step[sel])
            d = c - np.minimum(np.minimum.accumulate(c), 0)
            depth = max(depth, int(d.max()))
            walks.append((t, sel, d))
        if depth > MAX_SNAPSHOT_DEPTH:
            raise ProfilerError(
                f"loop nest depth {depth} exceeds supported {MAX_SNAPSHOT_DEPTH}"
            )
        #: Deepest stack observed across all threads; the carried-site matrix
        #: returned by :meth:`carried_sites` has this many columns.
        self.depth = depth
        width = max(depth, 1)
        self._tids: dict[int, _TidLoopStates] = {}
        for t, sel, d in walks:
            n = len(sel)
            k, t_ts, t_site = kind[sel], ts[sel], site[sel]
            idx = np.arange(n, dtype=np.int64)
            is_enter = k == LOOP_ENTER
            is_iter = k == LOOP_ITER
            # State 0 is the empty stack before the thread's first event.
            s_site = np.full((n + 1, width), -1, dtype=np.int64)
            s_entry = np.zeros((n + 1, width), dtype=np.int64)
            s_iter = np.zeros((n + 1, width), dtype=np.int64)
            for lvl in range(int(d.max()) if n else 0):
                top = d == lvl + 1
                ent = np.maximum.accumulate(np.where(is_enter & top, idx, -1))
                it = np.maximum.accumulate(np.where(is_iter & top, idx, -1))
                live = d > lvl
                ent = np.maximum(ent, 0)  # only read where live, hence >= 0
                s_site[1:, lvl] = np.where(live, t_site[ent], -1)
                s_entry[1:, lvl] = np.where(live, t_ts[ent], 0)
                s_iter[1:, lvl] = np.where(
                    live, t_ts[np.where(it > ent, it, ent)], 0
                )
            dep = np.zeros(n + 1, dtype=np.int64)
            dep[1:] = d
            self._tids[t] = _TidLoopStates(
                loop_rows[sel], dep, s_site, s_entry, s_iter
            )

    def carried_sites(
        self, tid: int, sink_rows: np.ndarray, source_ts: np.ndarray
    ) -> np.ndarray:
        """Carried loop sites per (sink row, source ts) pair on one thread.

        Returns an ``(n, depth)`` int64 matrix holding the loop site at each
        stack level for which ``entry_ts <= source_ts < iter_start_ts`` held
        in the sink's snapshot, and ``-1`` elsewhere — a fixed-width encoding
        of the reference engine's ``carried_sites`` frozenset that dedups as
        plain integer columns.
        """
        n = len(sink_rows)
        if self.depth == 0:
            return np.full((n, 0), -1, dtype=np.int64)
        st = self._tids.get(tid)
        if st is None:
            return np.full((n, self.depth), -1, dtype=np.int64)
        k = np.searchsorted(st.rows, sink_rows, side="left")
        dep = st.depth[k]
        out = np.full((n, self.depth), -1, dtype=np.int64)
        # Column by column: levels at or above a row's depth never hit.
        for lvl in range(int(dep.max(initial=0))):
            hit = (
                (dep > lvl)
                & (st.entry[k, lvl] <= source_ts)
                & (source_ts < st.iterts[k, lvl])
            )
            out[hit, lvl] = st.site[k[hit], lvl]
        return out
