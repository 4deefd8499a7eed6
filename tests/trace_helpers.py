"""Compact trace construction helpers shared by test modules.

``seq_trace`` turns a list of micro-ops into a TraceBatch:

    ("r", addr, line)            read            (var optional 4th field)
    ("w", addr, line)            write
    ("alloc", base, size, line)  allocation
    ("free", base, size, line)   deallocation
    ("L+", line)                 loop enter   (site = file 0, given line)
    ("Li", line)                 loop iteration start
    ("L-", line)                 loop exit
    ("tid", t)                   switch current thread for subsequent ops
    ("rd", addr, line)           *delayed* read: takes its timestamp now, is
    ("wd", addr, line)           pushed at the next ("push",) of its thread
                                 (var optional 4th field)
    ("push",)                    push the current thread's delayed accesses

Delayed accesses model the multithreaded push semantics of Section V: the
row lands in the trace after later events of the same thread (loop events
included), carrying its original access timestamp.  Any still pending at the
end are pushed before the trace is built.

Lines are encoded with file id 0, so ``loc == line`` for readability in
assertions (line < 2**20).
"""

from __future__ import annotations

from repro.common.sourceloc import encode_location
from repro.trace import TraceBatch, TraceRecorder


def seq_trace(ops, file_name: str = "test.c") -> TraceBatch:
    r = TraceRecorder()
    r.intern_file(file_name)
    tid = 0
    pending: dict[int, list] = {}  # tid -> delayed (push, kwargs) pairs

    def push(t: int) -> None:
        for emit, kwargs in pending.pop(t, []):
            emit(**kwargs)

    for op in ops:
        code = op[0]
        if code == "r":
            _, addr, line = op[:3]
            var = r.intern_var(op[3]) if len(op) > 3 else -1
            r.read(addr, loc=encode_location(0, line), var=var, tid=tid)
        elif code == "w":
            _, addr, line = op[:3]
            var = r.intern_var(op[3]) if len(op) > 3 else -1
            r.write(addr, loc=encode_location(0, line), var=var, tid=tid)
        elif code == "alloc":
            _, base, size, line = op
            r.alloc(base, size, loc=encode_location(0, line), tid=tid)
        elif code == "free":
            _, base, size, line = op
            r.free(base, size, loc=encode_location(0, line), tid=tid)
        elif code == "L+":
            r.loop_enter(encode_location(0, op[1]), tid=tid)
        elif code == "Li":
            r.loop_iter(encode_location(0, op[1]), tid=tid)
        elif code == "L-":
            end = encode_location(0, op[2]) if len(op) > 2 else None
            r.loop_exit(encode_location(0, op[1]), tid=tid, end_loc=end)
        elif code == "tid":
            tid = op[1]
        elif code in ("rd", "wd"):
            _, addr, line = op[:3]
            var = r.intern_var(op[3]) if len(op) > 3 else -1
            emit = r.read if code == "rd" else r.write
            pending.setdefault(tid, []).append(
                (
                    emit,
                    dict(
                        addr=addr,
                        loc=encode_location(0, line),
                        var=var,
                        tid=tid,
                        ts=r.next_ts(),
                    ),
                )
            )
        elif code == "push":
            push(tid)
        else:
            raise ValueError(f"unknown op {op!r}")
    for t in list(pending):
        push(t)
    return r.build()


def loc(line: int) -> int:
    """Encoded location for file 0 at ``line``."""
    return encode_location(0, line)
