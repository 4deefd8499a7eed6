"""The instrumentation runtime.

In the paper, an LLVM pass inserts calls to ``push_read``/``push_write``
(Figure 4) and to control-region markers; this class is the Python equivalent
of that runtime library.  An executing target program (the MiniVM
interpreter, or a synthetic workload generator) calls the methods below; the
recorder assigns global *access timestamps*, tracks each target thread's
dynamic loop stack, interns variable and file names, and appends rows to a
:class:`~repro.trace.batch.TraceBuilder`.

Timestamps vs. stream order
---------------------------
Rows land in the trace in *push order*.  The ``ts`` column carries the
*access* timestamp.  For sequential targets the two always coincide.  For
multi-threaded targets the MiniVM interpreter may push an access later than
it occurred when the access is not protected by a lock (Section V-A/V-B of
the paper) — callers obtain a timestamp with :meth:`next_ts` at access time
and pass it to a later ``read``/``write`` call.  A worker thread observing
decreasing timestamps flags the dependence as a potential data race.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import MiniVmError
from repro.trace.batch import TraceBatch, TraceBuilder
from repro.trace import events as ev


class _ThreadState:
    """Per-target-thread dynamic loop stack."""

    __slots__ = ("loop_sites", "loop_iters", "alive")

    def __init__(self) -> None:
        self.loop_sites: list[int] = []  # encoded header locs, outermost first
        self.loop_iters: list[int] = []  # current iteration index per frame
        self.alive = True


class TraceRecorder:
    """Collects instrumented events from an executing target program."""

    def __init__(self, capacity: int = 1024) -> None:
        self._builder = TraceBuilder(capacity=capacity)
        self._ts = 0
        self._threads: dict[int, _ThreadState] = {}

    # -- intern helpers ----------------------------------------------------
    def intern_var(self, name: str) -> int:
        return self._builder.intern_var(name)

    def intern_file(self, name: str) -> int:
        return self._builder.intern_file(name)

    # -- timestamps ----------------------------------------------------------
    def next_ts(self) -> int:
        """Reserve and return the next access timestamp."""
        ts = self._ts
        self._ts += 1
        return ts

    def _state(self, tid: int) -> _ThreadState:
        st = self._threads.get(tid)
        if st is None:
            st = _ThreadState()
            self._threads[tid] = st
        return st

    def _emit(
        self,
        kind: int,
        tid: int,
        loc: int,
        addr: int,
        aux: int,
        var: int,
        ts: int | None = None,
    ) -> None:
        if ts is None:
            ts = self.next_ts()
        self._builder.append(kind, tid, loc, addr, aux, var, ts)

    # -- memory accesses -----------------------------------------------------
    def read(
        self,
        addr: int,
        loc: int,
        var: int = -1,
        tid: int = 0,
        ts: int | None = None,
    ) -> None:
        """Record a load of ``addr`` at source location ``loc``.

        ``ts`` overrides the default for *delayed* pushes: the caller
        captured the access timestamp at access time and pushes the event
        later (Section V-A).
        """
        self._emit(ev.READ, tid, loc, addr, 0, var, ts)

    def write(
        self,
        addr: int,
        loc: int,
        var: int = -1,
        tid: int = 0,
        ts: int | None = None,
    ) -> None:
        """Record a store to ``addr`` at source location ``loc``."""
        self._emit(ev.WRITE, tid, loc, addr, 0, var, ts)

    # -- allocation lifecycle (variable-lifetime analysis) ---------------------
    def alloc(
        self, addr: int, size: int, loc: int = -1, var: int = -1, tid: int = 0
    ) -> None:
        self._emit(ev.ALLOC, tid, loc, addr, size, var)

    def free(self, addr: int, size: int, loc: int = -1, tid: int = 0) -> None:
        self._emit(ev.FREE, tid, loc, addr, size, -1)

    # -- control regions -------------------------------------------------------
    def loop_enter(self, site: int, tid: int = 0) -> None:
        """Enter the loop whose header is at encoded location ``site``."""
        st = self._state(tid)
        st.loop_sites.append(site)
        st.loop_iters.append(-1)  # first loop_iter() makes it 0
        self._emit(ev.LOOP_ENTER, tid, site, site, 0, -1)

    def loop_iter(self, site: int, tid: int = 0) -> None:
        """Mark the start of the next iteration of the innermost loop."""
        st = self._state(tid)
        if not st.loop_sites or st.loop_sites[-1] != site:
            raise MiniVmError(
                f"loop_iter for site {site} but innermost loop is "
                f"{st.loop_sites[-1] if st.loop_sites else None}"
            )
        st.loop_iters[-1] += 1
        self._emit(ev.LOOP_ITER, tid, site, site, st.loop_iters[-1], -1)

    def emit_block(
        self,
        tid: int,
        site: int,
        n_iters: int,
        kind: np.ndarray,
        loc: np.ndarray,
        addr: np.ndarray,
        aux: np.ndarray,
        var: np.ndarray,
    ) -> None:
        """Bulk-append ``n_iters`` whole iterations of the innermost loop.

        The caller (the affine fast path) pre-builds the per-row columns for
        a block of consecutive iterations of the loop at ``site`` — the
        LOOP_ITER markers and every access of every iteration, in exactly
        the order the tree-walking interpreter would have pushed them.  This
        method supplies what the recorder owns: the monotone ``ts`` range
        and the per-thread iteration bookkeeping
        that :meth:`loop_iter` normally advances one call at a time.
        """
        st = self._state(tid)
        if not st.loop_sites or st.loop_sites[-1] != site:
            raise MiniVmError(
                f"emit_block for site {site} but innermost loop is "
                f"{st.loop_sites[-1] if st.loop_sites else None}"
            )
        n_rows = len(kind)
        ts0 = self._ts
        self._ts += n_rows
        st.loop_iters[-1] += n_iters
        self._builder.append_rows(
            n_rows,
            kind=kind,
            tid=tid,
            loc=loc,
            addr=addr,
            aux=aux,
            var=var,
            ts=np.arange(ts0, ts0 + n_rows, dtype=np.int64),
        )

    def loop_exit(self, site: int, tid: int = 0, end_loc: int | None = None) -> None:
        """Exit the innermost loop; ``aux`` records executed iterations.

        ``end_loc`` is the source location of the loop's last line (the
        ``END loop`` marker of Figure 1); it defaults to the header site.
        """
        st = self._state(tid)
        if not st.loop_sites or st.loop_sites[-1] != site:
            raise MiniVmError(
                f"loop_exit for site {site} but innermost loop is "
                f"{st.loop_sites[-1] if st.loop_sites else None}"
            )
        iters = st.loop_iters.pop() + 1
        st.loop_sites.pop()
        self._emit(
            ev.LOOP_EXIT, tid, site if end_loc is None else end_loc, site, iters, -1
        )

    # -- synchronization ---------------------------------------------------------
    def lock_acquire(self, lock_id: int, loc: int = -1, tid: int = 0) -> None:
        self._emit(ev.LOCK_ACQ, tid, loc, lock_id, 0, -1)

    def lock_release(self, lock_id: int, loc: int = -1, tid: int = 0) -> None:
        self._emit(ev.LOCK_REL, tid, loc, lock_id, 0, -1)

    # -- functions / threads -------------------------------------------------------
    def func_enter(self, func_id: int, loc: int = -1, tid: int = 0) -> None:
        self._emit(ev.FUNC_ENTER, tid, loc, func_id, 0, -1)

    def func_exit(self, func_id: int, loc: int = -1, tid: int = 0) -> None:
        self._emit(ev.FUNC_EXIT, tid, loc, func_id, 0, -1)

    def thread_start(self, tid: int, parent_tid: int = 0) -> None:
        self._emit(ev.THREAD_START, tid, -1, 0, parent_tid, -1)

    def thread_end(self, tid: int) -> None:
        st = self._state(tid)
        if st.loop_sites:
            raise MiniVmError(
                f"thread {tid} ended inside {len(st.loop_sites)} open loop(s)"
            )
        st.alive = False
        self._emit(ev.THREAD_END, tid, -1, 0, 0, -1)

    # -- finish --------------------------------------------------------------------
    def build(self) -> TraceBatch:
        """Freeze the recorded stream into an immutable :class:`TraceBatch`."""
        for tid, st in self._threads.items():
            if st.loop_sites:
                raise MiniVmError(
                    f"trace ended with thread {tid} inside "
                    f"{len(st.loop_sites)} open loop(s)"
                )
        return self._builder.build()
