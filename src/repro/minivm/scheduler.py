"""Deterministic thread scheduler + instrumentation gate.

Runs a MiniVM program's threads under a seeded interleaving, implementing

* scheduling policies: ``roundrobin`` (fair, quantum-sized turns),
  ``random`` (seeded), ``serial`` (lowest runnable tid first — depth-first
  deterministic),
* blocking lock semantics with FIFO handoff, barriers, and join-all,
* the paper's push model (Section V): accesses made while holding a lock are
  pushed immediately (Figure 4's access+push lock region); unprotected
  accesses may be *delayed* by a seeded number of scheduler steps, so their
  event lands in the stream after later accesses — exactly the timestamp
  reversals the profiler flags as potential data races.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.common.errors import MiniVmError
from repro.common.rng import make_rng
from repro.minivm.affine import program_has_spawn
from repro.minivm.interp import Interp
from repro.minivm.memory import Memory
from repro.minivm.program import Program
from repro.trace import TraceBatch, TraceRecorder

POLICIES = ("roundrobin", "random", "serial")


@dataclass(frozen=True)
class ScheduleConfig:
    """Interleaving and push-delay knobs for one execution."""

    policy: str = "roundrobin"
    seed: int = 0
    quantum: int = 1
    delay_probability: float = 0.0
    delay_min_steps: int = 1
    delay_max_steps: int = 8

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise MiniVmError(f"unknown policy {self.policy!r}; pick from {POLICIES}")
        if self.quantum <= 0:
            raise MiniVmError("quantum must be positive")
        if not 0.0 <= self.delay_probability <= 1.0:
            raise MiniVmError("delay_probability must be in [0, 1]")
        if not 1 <= self.delay_min_steps <= self.delay_max_steps:
            raise MiniVmError("need 1 <= delay_min_steps <= delay_max_steps")


class _Thread:
    __slots__ = ("tid", "gen", "state", "blocked_on", "resume", "locks_held")

    def __init__(self, tid: int, gen) -> None:
        self.tid = tid
        self.gen = gen
        self.state = "runnable"  # runnable | blocked | finished
        self.blocked_on: tuple | None = None
        self.resume = None  # value for the next gen.send()
        self.locks_held: set[int] = set()


class Scheduler:
    """Owns threads, locks, barriers, and the delayed-push queue."""

    def __init__(
        self,
        program: Program,
        recorder: TraceRecorder | None = None,
        schedule: ScheduleConfig | None = None,
        fastpath: bool = True,
    ) -> None:
        self.cfg = schedule if schedule is not None else ScheduleConfig()
        self.recorder = recorder if recorder is not None else TraceRecorder()
        self.recorder.intern_file(program.name)
        self.memory = Memory()
        self.interp = Interp(program, self.memory, self, fastpath=fastpath)
        self._has_spawn: bool | None = None  # lazy program_has_spawn()
        self._threads: dict[int, _Thread] = {}
        self._next_tid = 1
        self._locks: dict[int, int] = {}  # lock_id -> owner tid
        self._lock_waiters: dict[int, list[int]] = {}
        self._barrier_arrivals: dict[int, list[int]] = {}
        self._rng = make_rng(self.cfg.seed, "scheduler")
        self._step = 0
        self._pending: list[tuple[int, int, tuple]] = []  # (flush_step, seq, ev)
        self._pending_seq = 0
        self._rr_next = 0

    # ------------------------------------------------------------------
    # EmitGate implementation (the instrumentation runtime seen by Interp)
    # ------------------------------------------------------------------
    def intern_var(self, name: str) -> int:
        return self.recorder.intern_var(name)

    def _maybe_delay(self, tid: int) -> bool:
        if self.cfg.delay_probability <= 0.0:
            return False
        th = self._threads.get(tid)
        if th is not None and th.locks_held:
            return False  # Figure 4: in a lock region, access+push are atomic
        return bool(self._rng.random() < self.cfg.delay_probability)

    def emit_read(self, tid: int, addr: int, loc: int, var: int) -> None:
        if self._maybe_delay(tid):
            self._defer(("r", addr, loc, var, tid))
        else:
            self.recorder.read(addr, loc, var, tid)

    def emit_write(self, tid: int, addr: int, loc: int, var: int) -> None:
        if self._maybe_delay(tid):
            self._defer(("w", addr, loc, var, tid))
        else:
            self.recorder.write(addr, loc, var, tid)

    def _defer(self, ev: tuple) -> None:
        ts = self.recorder.next_ts()
        flush_at = self._step + int(
            self._rng.integers(self.cfg.delay_min_steps, self.cfg.delay_max_steps + 1)
        )
        heapq.heappush(
            self._pending, (flush_at, self._pending_seq, ev + (ts,))
        )
        self._pending_seq += 1

    def _flush_due(self, everything: bool = False) -> None:
        while self._pending and (
            everything or self._pending[0][0] <= self._step
        ):
            _, _, ev = heapq.heappop(self._pending)
            kind, addr, loc, var, tid, ts = ev
            if kind == "r":
                self.recorder.read(addr, loc, var, tid, ts=ts)
            else:
                self.recorder.write(addr, loc, var, tid, ts=ts)

    def emit_alloc(self, tid: int, addr: int, size: int, loc: int, var: int) -> None:
        self.recorder.alloc(addr, size, loc, var, tid)

    def emit_free(self, tid: int, addr: int, size: int, loc: int) -> None:
        self.recorder.free(addr, size, loc, tid)

    def emit_loop_enter(self, tid: int, site: int) -> None:
        self.recorder.loop_enter(site, tid)

    def emit_loop_iter(self, tid: int, site: int) -> None:
        self.recorder.loop_iter(site, tid)

    def emit_loop_exit(self, tid: int, site: int, end_loc: int) -> None:
        self.recorder.loop_exit(site, tid, end_loc=end_loc)

    def emit_func_enter(self, tid: int, func_id: int, loc: int) -> None:
        self.recorder.func_enter(func_id, loc, tid)

    def emit_func_exit(self, tid: int, func_id: int, loc: int) -> None:
        self.recorder.func_exit(func_id, loc, tid)

    def fastpath_allowed(self, tid: int) -> bool:
        """May the interpreter vectorize a whole loop for ``tid`` right now?

        Collapsing per-statement scheduling points must be unobservable in
        the trace, which requires: no delayed-push model (it draws RNG per
        access), no queued deferred events, exactly one live thread (so
        every pick is forced), and — for programs that can spawn — a policy
        whose later choices cannot depend on how many picks happened while
        this thread ran alone (``random`` draws RNG per pick, so it is only
        safe when no second thread can ever appear).
        """
        if self.cfg.delay_probability > 0.0 or self._pending:
            return False
        live = [t for t in self._threads.values() if t.state != "finished"]
        if len(live) != 1 or live[0].tid != tid:
            return False
        if self.cfg.policy == "random":
            if self._has_spawn is None:
                self._has_spawn = program_has_spawn(self.interp.prog)
            if self._has_spawn:
                return False
        return True

    def emit_block(self, tid: int, site: int, n_iters: int, **cols) -> None:
        self.recorder.emit_block(tid, site, n_iters, **cols)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def run(self, args: tuple = ()) -> TraceBatch:
        """Execute ``main(*args)`` to completion and return the trace."""
        main = _Thread(0, self.interp.thread_gen(0, "main", args))
        self._threads[0] = main
        while True:
            self._flush_due()
            th = self._pick()
            if th is None:
                if any(t.state == "blocked" for t in self._threads.values()):
                    blocked = {
                        t.tid: t.blocked_on
                        for t in self._threads.values()
                        if t.state == "blocked"
                    }
                    raise MiniVmError(f"deadlock: all threads blocked: {blocked}")
                break  # everything finished
            for _ in range(self.cfg.quantum):
                if th.state != "runnable":
                    break
                self._advance(th)
                self._step += 1
        self._flush_due(everything=True)
        return self.recorder.build()

    def _runnable(self) -> list[_Thread]:
        return [t for t in self._threads.values() if t.state == "runnable"]

    def _pick(self) -> _Thread | None:
        runnable = sorted(self._runnable(), key=lambda t: t.tid)
        if not runnable:
            return None
        if self.cfg.policy == "serial":
            return runnable[0]
        if self.cfg.policy == "random":
            return runnable[int(self._rng.integers(0, len(runnable)))]
        # roundrobin: next tid strictly after the last one served, cyclic.
        for t in runnable:
            if t.tid >= self._rr_next:
                self._rr_next = t.tid + 1
                return t
        self._rr_next = runnable[0].tid + 1
        return runnable[0]

    def _advance(self, th: _Thread) -> None:
        send, th.resume = th.resume, None
        try:
            action = th.gen.send(send)
        except StopIteration:
            self._finish(th)
            return
        kind = action[0]
        if kind == "step":
            return
        if kind == "spawn":
            _, func, argvals = action
            tid = self._next_tid
            self._next_tid += 1
            self.recorder.thread_start(tid, parent_tid=th.tid)
            child = _Thread(tid, self.interp.thread_gen(tid, func, argvals))
            self._threads[tid] = child
            th.resume = tid
            return
        if kind == "tryacq":
            _, lock_id, loc = action
            if lock_id not in self._locks:
                self._grant(th, lock_id, loc)
            else:
                self._lock_waiters.setdefault(lock_id, []).append(th.tid)
                th.state = "blocked"
                th.blocked_on = ("lock", lock_id)
            return
        if kind == "release":
            _, lock_id, loc = action
            if self._locks.get(lock_id) != th.tid:
                raise MiniVmError(
                    f"thread {th.tid} released lock {lock_id} it does not hold"
                )
            del self._locks[lock_id]
            th.locks_held.discard(lock_id)
            self.recorder.lock_release(lock_id, loc, th.tid)
            waiters = self._lock_waiters.get(lock_id)
            if waiters:
                next_tid = waiters.pop(0)  # FIFO handoff
                waiter = self._threads[next_tid]
                waiter.state = "runnable"
                waiter.blocked_on = None
                self._grant(waiter, lock_id, loc)
            return
        if kind == "barrier":
            _, bar_id, parties, _loc = action
            arrivals = self._barrier_arrivals.setdefault(bar_id, [])
            arrivals.append(th.tid)
            if len(arrivals) >= parties:
                for tid in arrivals:
                    t = self._threads[tid]
                    t.state = "runnable"
                    t.blocked_on = None
                    t.resume = True
                arrivals.clear()
            else:
                th.state = "blocked"
                th.blocked_on = ("barrier", bar_id)
            return
        if kind == "join_all":
            if self._others_finished(th.tid):
                th.resume = True
            else:
                th.state = "blocked"
                th.blocked_on = ("join", None)
            return
        raise MiniVmError(f"unknown scheduler action {action!r}")

    def _grant(self, th: _Thread, lock_id: int, loc: int) -> None:
        self._locks[lock_id] = th.tid
        th.locks_held.add(lock_id)
        self.recorder.lock_acquire(lock_id, loc, th.tid)
        th.resume = True

    def _others_finished(self, tid: int) -> bool:
        return all(
            t.state == "finished" for t in self._threads.values() if t.tid != tid
        )

    def _finish(self, th: _Thread) -> None:
        th.state = "finished"
        if th.locks_held:
            raise MiniVmError(
                f"thread {th.tid} finished still holding locks {th.locks_held}"
            )
        if th.tid != 0:
            self.recorder.thread_end(th.tid)
        # Wake join_all waiters whose condition may now hold.
        for t in self._threads.values():
            if t.state == "blocked" and t.blocked_on == ("join", None):
                if self._others_finished(t.tid):
                    t.state = "runnable"
                    t.blocked_on = None
                    t.resume = True
