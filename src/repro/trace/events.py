"""Event-kind encoding and a row-view dataclass.

Hot paths never touch :class:`Event` objects — they index numpy columns
directly — but the dataclass view keeps the reference engine, tests, and
error messages readable.
"""

from __future__ import annotations

from dataclasses import dataclass

# Event kinds (uint8 column values).  READ/WRITE are the hot ones; everything
# else is control/bookkeeping and typically <1% of a trace.
READ = 0
WRITE = 1
ALLOC = 2
FREE = 3
LOOP_ENTER = 4
LOOP_ITER = 5
LOOP_EXIT = 6
LOCK_ACQ = 7
LOCK_REL = 8
FUNC_ENTER = 9
FUNC_EXIT = 10
THREAD_START = 11
THREAD_END = 12

KIND_NAMES = {
    READ: "READ",
    WRITE: "WRITE",
    ALLOC: "ALLOC",
    FREE: "FREE",
    LOOP_ENTER: "LOOP_ENTER",
    LOOP_ITER: "LOOP_ITER",
    LOOP_EXIT: "LOOP_EXIT",
    LOCK_ACQ: "LOCK_ACQ",
    LOCK_REL: "LOCK_REL",
    FUNC_ENTER: "FUNC_ENTER",
    FUNC_EXIT: "FUNC_EXIT",
    THREAD_START: "THREAD_START",
    THREAD_END: "THREAD_END",
}

#: Kinds that carry a memory address in the ``addr`` column.
MEMORY_KINDS = (READ, WRITE)


@dataclass(frozen=True, slots=True)
class Event:
    """One trace row, decoded.

    Column semantics by kind:

    ========== ======================= =========================
    kind       addr                    aux
    ========== ======================= =========================
    READ/WRITE memory address          0
    ALLOC      base address            size in bytes
    FREE       base address            size in bytes
    LOOP_*     loop site (encoded loc) iteration index / total
    LOCK_*     lock id                 0
    FUNC_*     function id             0
    THREAD_*   0                       parent tid / 0
    ========== ======================= =========================
    """

    kind: int
    tid: int
    loc: int  # encoded SourceLocation, -1 for "none"
    addr: int
    aux: int
    var: int  # interned variable-name id, -1 for "none"
    ts: int  # global monotone timestamp (push order)

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, f"?{self.kind}")

    @property
    def is_memory_access(self) -> bool:
        return self.kind in MEMORY_KINDS

    @property
    def is_write(self) -> bool:
        return self.kind == WRITE
