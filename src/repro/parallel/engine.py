"""The parallel profiling pipeline (Figure 2).

``ParallelProfiler.profile`` plays the producer role over an instrumented
trace: it routes every memory access to its owning worker, broadcasts the
events all workers need for context (FREE for lifetime analysis, loop
markers for carried-dependence classification), pushes fixed-size chunks of
row indices onto per-worker queues, and triggers the Section IV-A load
balancer at its configured cadence.  Workers consume chunks and run the
incremental Algorithm 1 engine on private trackers; local stores are merged
at the end ("this step incurs only minor overhead since the local maps are
free of duplicates").

Two execution modes:

* ``deterministic`` — in-process: the producer drains a worker's queue
  inline whenever it fills and drains everything at the end.  Fully
  reproducible; used by tests and as the cost model's source of pipeline
  statistics (the speedups are *estimated* by :mod:`repro.costmodel`).
* ``processes`` — real ``multiprocessing`` workers with private signatures,
  reading the trace zero-copy out of one shared-memory block
  (:mod:`repro.trace.shm`); only window index ranges cross the task queues
  and routing is recomputed worker-side, so this mode shows *measured*
  multi-core speedup.  Load rebalancing and the telemetry sampler are
  producer-side features and are disabled here (static address partition);
  per-worker stores, metrics, provenance, and trace events are merged when
  the workers exit.

Telemetry: the run is instrumented through one
:class:`~repro.obs.metrics.MetricsRegistry` — stall counters live *inside*
the queues, rebalance counters inside the :class:`Rebalancer`, per-chunk
latencies inside the workers, and a :class:`~repro.obs.sampler.Sampler`
scrapes queue occupancy / signature fill / chunk-pool gauges once per
producer window.  :class:`ParallelRunInfo` and the aggregate
:class:`~repro.core.result.ProfileStats` are derived *views* of that
registry rather than independently maintained bookkeeping.  Pass a
registry with a sink to capture the event stream; the default private
registry has a ``NullSink`` and costs only the plain counters.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from dataclasses import dataclass, field

import numpy as np

from repro.common.config import ProfilerConfig
from repro.common.errors import ProfilerError
from repro.core.controlflow import LoopStateIndex, extract_loop_info
from repro.core.deps import DependenceStore
from repro.core.result import ProfileResult, ProfileStats
from repro.obs.environment import peak_rss_bytes
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceCollector
from repro.obs.sampler import Sampler
from repro.obs.tracing import MAIN_TRACK, worker_track
from repro.parallel.address_map import AddressMap, route_masks
from repro.parallel.balance import AccessStats, Rebalancer
from repro.parallel.chunks import Chunk, ChunkPool
from repro.parallel.heartbeat import (
    HeartbeatBoard,
    WorkerWatchdog,
    process_exitcodes,
)
from repro.parallel.procworker import run_worker
from repro.parallel.queues import LockedQueue, SpscRingQueue
from repro.parallel.worker import Worker
from repro.trace import TraceBatch
from repro.trace.shm import share_batch

MODES = ("deterministic", "processes")


@dataclass
class ParallelRunInfo:
    """Pipeline statistics of one run — the cost model's raw material.

    Constructed by :meth:`from_registry` as a frozen view over the run's
    metrics registry (stall counters are the queues' own counters, worker
    loads the workers' published counters, and so on); the dataclass keeps
    the cost model's stable field-level API.
    """

    n_workers: int = 0
    n_chunks: int = 0
    n_broadcast_rows: int = 0
    per_worker_accesses: list[int] = field(default_factory=list)
    per_worker_chunks: list[int] = field(default_factory=list)
    rebalance_rounds: int = 0
    addresses_migrated: int = 0
    #: Bank-granularity migrations (sharded signature memory); each move
    #: relocated one address-range bank *with* its signature state.
    banks_migrated: int = 0
    #: Producer-order log: (worker, rows_in_chunk) per pushed chunk, with
    #: (-1, 0) markers at rebalance quiesce points — the cost model replays
    #: this sequence through its discrete-event pipeline.
    chunk_log: list[tuple[int, int]] = field(default_factory=list)
    push_stalls: int = 0
    lock_ops: int = 0
    chunks_allocated: int = 0
    queue_memory_bytes: int = 0
    signature_memory_bytes: int = 0
    #: Full audit trail of the run's rebalancing decisions (one dict per
    #: round, see :attr:`~repro.parallel.balance.Rebalancer.audit`).  Empty
    #: in processes mode, which uses a static address partition.
    rebalance_audit: list[dict] = field(default_factory=list)

    @property
    def access_imbalance(self) -> float:
        """max/mean per-worker access load; 1.0 is perfectly balanced."""
        if not self.per_worker_accesses:
            return 1.0
        mean = sum(self.per_worker_accesses) / len(self.per_worker_accesses)
        return max(self.per_worker_accesses) / mean if mean > 0 else 1.0

    @classmethod
    def from_registry(
        cls,
        registry: MetricsRegistry,
        n_workers: int,
        chunk_log: list[tuple[int, int]],
        rebalance_audit: list[dict] | None = None,
    ) -> "ParallelRunInfo":
        """Derive the statistics view from the run's registry."""

        def per_worker(name: str) -> list[int]:
            by_worker = {
                int(dict(c.labels)["worker"]): c.value
                for c in registry.counters()
                if c.name == name and "worker" in dict(c.labels)
            }
            return [by_worker.get(w, 0) for w in range(n_workers)]

        def gauge_value(name: str) -> int:
            return int(
                sum(g.value for g in registry.gauges() if g.name == name)
            )

        return cls(
            n_workers=n_workers,
            n_chunks=registry.counter("pipeline.chunks").value,
            n_broadcast_rows=registry.counter("pipeline.broadcast_rows").value,
            per_worker_accesses=per_worker("worker.accesses"),
            per_worker_chunks=per_worker("worker.chunks"),
            rebalance_rounds=registry.counter("rebalance.rounds").value,
            addresses_migrated=registry.counter("rebalance.moves").value,
            banks_migrated=registry.counter("rebalance.bank_moves").value,
            chunk_log=chunk_log,
            push_stalls=registry.sum_counters("queue.push_stalls"),
            lock_ops=registry.sum_counters("queue.lock_ops"),
            chunks_allocated=gauge_value("chunkpool.allocated"),
            queue_memory_bytes=gauge_value("chunkpool.memory_bytes"),
            signature_memory_bytes=gauge_value("engine.tracker_memory_bytes"),
            rebalance_audit=rebalance_audit if rebalance_audit is not None else [],
        )


class ParallelProfiler:
    """The chunk/queue/worker pipeline of Section IV."""

    def __init__(
        self,
        config: ProfilerConfig,
        mode: str = "deterministic",
        rebalance_threshold: float = 1.25,
        window: int = 1 << 15,
        registry: MetricsRegistry | None = None,
        provenance: bool = False,
        heartbeat_interval: float | None = 0.05,
        ledger=None,
    ) -> None:
        if mode not in MODES:
            raise ProfilerError(f"unknown mode {mode!r}; pick from {MODES}")
        self.config = config
        self.mode = mode
        self.rebalance_threshold = rebalance_threshold
        self.window = window
        #: Watchdog cadence for ``processes`` mode (seconds); ``None`` or
        #: ``0`` disables the heartbeat plane entirely.
        self.heartbeat_interval = heartbeat_interval
        #: Telemetry registry; ``None`` means each run builds a private
        #: sinkless one (counters still work, no event stream).
        self.registry = registry
        #: When True, every worker keeps a :class:`ProvenanceCollector`
        #: (attributing each dependence to worker/chunk/timestamps) and the
        #: merge phase folds them into ``result.provenance``.
        self.provenance = provenance
        #: Optional :class:`~repro.obs.ledger.RunLedger`: the pipeline
        #: checkpoints a partial bundle (atomic tmp+rename) on every exit
        #: from the producer frame, so even a worker crash leaves a valid,
        #: never-torn run bundle behind.  The CLI's success path later
        #: finalizes the full document over it.
        self.ledger = ledger

    def _ledger_checkpoint(self, reg: MetricsRegistry) -> None:
        """Crash-safe partial-bundle write; never raises into the pipeline."""
        if self.ledger is None:
            return
        try:
            self.ledger.checkpoint(reg)
        except OSError:  # a full/readonly ledger must not mask the run error
            pass

    # ------------------------------------------------------------------
    def profile(self, batch: TraceBatch) -> tuple[ProfileResult, ParallelRunInfo]:
        if self.mode == "processes":
            return self._profile_processes(batch)
        cfg = self.config
        # One registry per run: counters are monotonic, so a shared
        # externally-supplied registry must not be reused across runs.
        reg = self.registry if self.registry is not None else MetricsRegistry()
        tracer = reg.tracer
        if tracer.enabled:
            tracer.set_track(MAIN_TRACK, "main")
            for w in range(cfg.workers):
                tracer.set_track(worker_track(w), f"worker {w}")
        provs: list[ProvenanceCollector] | None = (
            [ProvenanceCollector(worker=w) for w in range(cfg.workers)]
            if self.provenance
            else None
        )
        workers = [
            Worker(w, cfg, reg, provenance=provs[w] if provs is not None else None)
            for w in range(cfg.workers)
        ]
        # One push-order loop-snapshot index per run, shared by every
        # in-process kernel (it is batch-global, read-only).
        shared_loops = LoopStateIndex(batch)
        for worker in workers:
            worker.engine.bind_loop_index(batch, shared_loops)
        if cfg.lock_free_queues:
            queues: list[SpscRingQueue | LockedQueue] = [
                SpscRingQueue(
                    cfg.queue_depth,
                    push_stalls=reg.counter("queue.push_stalls", worker=w),
                )
                for w in range(cfg.workers)
            ]
        else:
            queues = [
                LockedQueue(
                    cfg.queue_depth,
                    push_stalls=reg.counter("queue.push_stalls", worker=w),
                    lock_ops_counter=reg.counter("queue.lock_ops", worker=w),
                )
                for w in range(cfg.workers)
            ]
        pool = ChunkPool(cfg.chunk_size)
        open_chunks: list[Chunk] = [pool.acquire() for _ in range(cfg.workers)]
        amap = AddressMap(cfg.workers, bank_geometry=cfg.bank_geometry)
        stats = AccessStats()
        rebalancer = Rebalancer(amap, cfg.hot_addresses, registry=reg)
        chunk_log: list[tuple[int, int]] = []
        chunk_counter = reg.counter("pipeline.chunks")

        # -- periodic telemetry sampling --------------------------------
        sampler = Sampler(reg)
        for w in range(cfg.workers):
            sampler.add(
                "queue.occupancy", queues[w].__len__, worker=w
            )
            tr = workers[w].engine.read_tracker
            tw = workers[w].engine.write_tracker
            sampler.add("sigmem.occupied", tr.occupied, worker=w, kind="read")
            sampler.add("sigmem.occupied", tw.occupied, worker=w, kind="write")
            if hasattr(tr, "fill_ratio"):
                sampler.add("sigmem.fill_ratio", tr.fill_ratio, worker=w, kind="read")
                sampler.add(
                    "sigmem.fill_ratio", tw.fill_ratio, worker=w, kind="write"
                )
        sampler.add("chunkpool.free", lambda: pool.free_count)
        sampler.add("chunkpool.allocated", lambda: pool.allocated)
        sampler.add("chunkpool.memory_bytes", lambda: pool.memory_bytes)
        sampler.add("process.peak_rss_bytes", peak_rss_bytes)

        def drain_inline(w: int, limit: int | None = None) -> None:
            popped = 0
            while limit is None or popped < limit:
                ok, chunk = queues[w].try_pop()
                if not ok:
                    return
                workers[w].process_chunk(batch, chunk)
                pool.release(chunk)
                popped += 1

        def push_chunk(w: int) -> None:
            chunk = open_chunks[w]
            if chunk.count == 0:
                return
            chunk.seq = chunk_counter.value
            if not queues[w].try_push(chunk):
                stall_t0 = time.perf_counter() if tracer.enabled else 0.0
                while True:
                    drain_inline(w, limit=1)
                    if queues[w].try_push(chunk):
                        break
                if tracer.enabled:
                    tracer.complete("queue.push_stall", MAIN_TRACK, stall_t0, worker=w)
            if tracer.enabled:
                tracer.instant(
                    "chunk.push", MAIN_TRACK, worker=w, seq=chunk.seq, rows=chunk.count
                )
            chunk_counter.inc()
            reg.counter("worker.chunks", worker=w).inc()
            chunk_log.append((w, chunk.count))
            open_chunks[w] = pool.acquire()

        def bulk_append(w: int, rows: np.ndarray) -> None:
            i, n = 0, len(rows)
            while i < n:
                i += open_chunks[w].extend(rows, start=i)
                if open_chunks[w].full:
                    push_chunk(w)

        def quiesce() -> None:
            """Drain every queue, so each worker has consumed its rows."""
            t0 = time.perf_counter() if tracer.enabled else 0.0
            for w in range(cfg.workers):
                drain_inline(w)
            if tracer.enabled:
                tracer.complete("pipeline.quiesce", MAIN_TRACK, t0)

        # Hysteresis: remember the hot-load ratio right after the previous
        # redistribution.  If the current ratio is no worse, the previous
        # spread is still in effect (or the workload's hot set simply cannot
        # be balanced below the threshold) and redoing the move would only
        # thrash — the paper performs redistribution at most ~20 times per
        # benchmark for the same reason.
        post_rebalance_imbalance: list[float | None] = [None]

        def maybe_rebalance() -> None:
            imbalance = rebalancer.imbalance(stats)
            if imbalance <= self.rebalance_threshold:
                return
            prev = post_rebalance_imbalance[0]
            if prev is not None and imbalance <= prev * 1.1:
                return
            # Flush buffered rows first: rows sitting in open chunks were
            # routed under the old rules and must land in their worker's
            # trackers *before* state is exported, or the migrated bank
            # would miss them (surfacing as phantom INIT dependences).
            for w in range(cfg.workers):
                push_chunk(w)
            quiesce()  # preserve per-address ordering across the move
            decision = rebalancer.rebalance(stats)
            for addr, old, new in decision.moves:
                r, wrec = workers[old].migrate_out(addr)
                workers[new].migrate_in(addr, r, wrec)
            # Banked mode: a moved bank's addresses were spread over every
            # worker before its first rule, so the new owner collects the
            # bank's signature state from *all* other workers (newest access
            # wins on slot collisions) — state follows routing instead of
            # being dropped to go cold.
            for bank, _old, new in decision.bank_moves:
                for w, worker in enumerate(workers):
                    if w == new:
                        continue
                    workers[new].migrate_bank_in(worker.migrate_bank_out(bank))
            post_rebalance_imbalance[0] = rebalancer.imbalance(stats)
            if decision.n_moves or decision.n_bank_moves:
                chunk_log.append((-1, 0))

        # ---- producer loop over windows of the trace ------------------
        # Access/broadcast masks are computed *per window*, never over the
        # full trace: with an mmap-spilled batch the trace may dwarf RAM, and
        # two trace-length bool arrays would defeat the bounded-memory claim.
        kind = batch.kind
        addr = batch.addr
        bcast_counter = reg.counter("pipeline.broadcast_rows")
        # Spilled batches support dropping consumed windows' resident pages.
        # Purely an RSS hint (dropped pages re-read transparently), so the
        # lag bound only has to be generous, not exact: pushed rows sit in at
        # most queue_depth+1 chunks per worker plus the current window.
        release = getattr(batch, "release_window", None)
        release_lag = (
            self.window + cfg.workers * (cfg.queue_depth + 2) * cfg.chunk_size
        )
        released_upto = 0
        # The paper re-checks the access statistics every 50 000 chunks; we
        # measure the interval in *routed accesses* (interval x chunk_size)
        # so the cadence does not depend on how many workers the control
        # rows are replicated to.
        rebalance_every = cfg.rebalance_interval_chunks * cfg.chunk_size
        accesses_at_last_check = 0
        accesses_routed = 0
        n = len(batch)
        try:
            for s in range(0, n, self.window):
                e = min(s + self.window, n)
                with reg.span("route", window_start=s):
                    rows = np.arange(s, e, dtype=np.int64)
                    acc, bcast = route_masks(kind[s:e])
                    bcast_counter.inc(int(np.count_nonzero(bcast)))
                    acc_rows = rows[acc]
                    if len(acc_rows):
                        stats.record_many(addr[acc_rows])
                        accesses_routed += len(acc_rows)
                    assign = amap.workers_of(np.asarray(addr[s:e]))
                with reg.span("push", window_start=s):
                    for w in range(cfg.workers):
                        wrows = rows[(acc & (assign == w)) | bcast]
                        if len(wrows):
                            bulk_append(w, wrows)
                sampler.poll()
                if accesses_routed - accesses_at_last_check >= rebalance_every:
                    accesses_at_last_check = accesses_routed
                    maybe_rebalance()
                if release is not None:
                    upto = max(0, e - release_lag)
                    if upto - released_upto >= (1 << 22):
                        release(released_upto, upto)
                        released_upto = upto

            # ---- flush + drain ------------------------------------------
            with reg.span("drain"):
                for w in range(cfg.workers):
                    push_chunk(w)
                    queues[w].close()
                for w in range(cfg.workers):
                    drain_inline(w)
        finally:
            sampler.poll(force=True)  # final post-drain sample
            # A worker failure propagating out of this frame must not lose
            # the telemetry already emitted: flush (not close) the sink.
            reg.sink.flush()
            self._ledger_checkpoint(reg)

        with reg.span("merge"):
            store = DependenceStore()
            prov: ProvenanceCollector | None = None
            if provs is not None:
                prov = ProvenanceCollector()
                for p in provs:
                    prov.merge(p)
            for w, worker in enumerate(workers):
                store.merge(worker.store)
                worker.engine.stats.publish(reg, worker=w)
                worker.publish_heat()
                reg.counter("worker.accesses", worker=w).inc(
                    worker.accesses_processed
                )
                # Authoritative tracker memory: allocated signature arrays
                # count even for workers that never processed a chunk.
                reg.gauge("engine.tracker_memory_bytes", worker=w).set(
                    worker.memory_bytes
                )
                reg.gauge("queue.high_water", worker=w).set(
                    queues[w].high_water
                )
            # The aggregate statistics are a *view* of the registry: each
            # worker published its engine totals above, and the producer-side
            # facts (event count, unique addresses) overwrite the per-worker
            # sums that double-count broadcast rows.
            reg.gauge("process.peak_rss_bytes").set(peak_rss_bytes())
            agg = ProfileStats.from_registry(reg)
            agg.n_events = len(batch)
            agg.n_unique_addresses = batch.n_unique_addresses

        info = ParallelRunInfo.from_registry(
            reg, cfg.workers, chunk_log, rebalance_audit=rebalancer.audit
        )

        result = ProfileResult(
            store=store,
            loops=extract_loop_info(batch),
            stats=agg,
            var_names=batch.var_names,
            file_names=batch.file_names,
            multithreaded=batch.n_threads > 1 or cfg.multithreaded_target,
            provenance=prov,
        )
        return result, info

    # ------------------------------------------------------------------
    def _profile_processes(
        self, batch: TraceBatch
    ) -> tuple[ProfileResult, ParallelRunInfo]:
        """Multi-process pipeline over one shared-memory trace block.

        The producer ships only ``(start, end, window_idx)`` index ranges;
        each worker process recomputes the address routing against the
        shared columns (see :mod:`repro.parallel.procworker`).  The static
        address partition makes results independent of scheduling, so this
        mode is bit-for-bit equivalent to ``deterministic`` minus the
        load balancer (which needs producer-side signature migration).
        """
        cfg = self.config
        reg = self.registry if self.registry is not None else MetricsRegistry()
        tracer = reg.tracer
        if tracer.enabled:
            tracer.set_track(MAIN_TRACK, "main")
        methods = multiprocessing.get_all_start_methods()
        # fork shares the parent's pages (cheap start, no re-import);
        # required anyway for the monkeypatch-based tests, preferred always.
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        shared = share_batch(batch)
        task_qs = [ctx.Queue(maxsize=cfg.queue_depth) for _ in range(cfg.workers)]
        result_q = ctx.Queue()
        hb_interval = self.heartbeat_interval
        board = (
            HeartbeatBoard.create(cfg.workers)
            if hb_interval is not None and hb_interval > 0
            else None
        )
        opts = {
            "provenance": self.provenance,
            "trace": tracer.enabled,
            "run_id": reg.run_id,
            "heartbeat": board.meta if board is not None else None,
        }
        procs = [
            ctx.Process(
                target=run_worker,
                args=(w, cfg, shared.meta, task_qs[w], result_q, opts),
                daemon=True,
                name=f"ddprof-worker-{w}",
            )
            for w in range(cfg.workers)
        ]

        def ensure_alive() -> None:
            dead = [p.name for p in procs if p.exitcode not in (None, 0)]
            if dead:
                raise ProfilerError(
                    f"worker process(es) died without a result: {dead}"
                )

        # The bounded task queues ARE the spill tier's backpressure: when the
        # producer outruns the consumers, put() blocks until a worker frees a
        # slot, so in-flight windows never exceed workers x queue_depth
        # regardless of trace length.  The counter makes the stalls visible.
        backpressure = reg.counter("pipeline.backpressure_stalls")

        def put_blocking(q: "multiprocessing.queues.Queue", item: object) -> None:
            stalled = False
            while True:
                try:
                    q.put(item, timeout=1.0)
                    return
                except queue_mod.Full:
                    if not stalled:
                        stalled = True
                        backpressure.inc()
                    ensure_alive()

        watchdog = None
        if board is not None:
            if tracer.enabled:
                for w in range(cfg.workers):
                    tracer.set_track(worker_track(w), f"worker {w}")
            watchdog = WorkerWatchdog(
                board,
                reg,
                process_exitcodes(procs),
                interval_s=hb_interval,
            )

        payloads: list[dict] = []
        try:
            for p in procs:
                p.start()
            if watchdog is not None:
                watchdog.start()
            n = len(batch)
            with reg.span("push"):
                for widx, s in enumerate(range(0, n, self.window)):
                    e = min(s + self.window, n)
                    task = (s, e, widx)
                    for q in task_qs:
                        put_blocking(q, task)
            with reg.span("drain"):
                for q in task_qs:
                    put_blocking(q, None)
                while len(payloads) < cfg.workers:
                    try:
                        msg = result_q.get(timeout=1.0)
                    except queue_mod.Empty:
                        ensure_alive()
                        continue
                    if msg[0] == "error":
                        _, wid, tb = msg
                        raise ProfilerError(
                            f"worker process {wid} failed:\n{tb}"
                        )
                    payloads.append(msg[1])
                for p in procs:
                    p.join(timeout=30.0)
        finally:
            # Watchdog before terminate(): the final classification pass must
            # see the workers' true exit state, not the SIGTERM we send next.
            if watchdog is not None:
                watchdog.stop()
            for p in procs:
                if p.is_alive():
                    p.terminate()
            if board is not None:
                board.close()
            shared.close()
            # Telemetry written so far must survive even when a worker
            # failure propagates out of this frame: flush (never close —
            # the caller may still emit a final snapshot) on every path.
            reg.sink.flush()
            self._ledger_checkpoint(reg)

        with reg.span("merge"):
            payloads.sort(key=lambda d: d["wid"])
            store = DependenceStore()
            prov: ProvenanceCollector | None = (
                ProvenanceCollector() if self.provenance else None
            )
            log_entries: list[tuple[int, int, int]] = []
            for d in payloads:
                store.merge(d["store"])
                reg.merge_state(d["metrics"])
                if prov is not None and d["provenance"] is not None:
                    prov.merge(d["provenance"])
                if tracer.enabled and d["tracer"] is not None:
                    epoch, events, track_names = d["tracer"]
                    tracer.adopt(events, epoch, track_names)
                log_entries.extend(
                    (widx, d["wid"], rows) for widx, rows in d["chunk_log"]
                )
            # Producer-order chunk log for the cost model: interleave the
            # workers' chunks in window order, matching how the in-process
            # producer would have pushed them.
            log_entries.sort(key=lambda t: (t[0], t[1]))
            chunk_log = [(wid, rows) for _, wid, rows in log_entries]
            reg.counter("pipeline.chunks").inc(len(chunk_log))
            # Windowed broadcast-row count: never materialize a trace-length
            # mask (the batch may be an mmap spill larger than RAM).
            kind = batch.kind
            release = getattr(batch, "release_window", None)
            n_bcast = 0
            for s in range(0, len(batch), self.window):
                e = min(s + self.window, len(batch))
                n_bcast += int(np.count_nonzero(route_masks(kind[s:e])[1]))
                if release is not None:
                    release(s, e)
            reg.counter("pipeline.broadcast_rows").inc(n_bcast)
            # Parent-process RSS high-water; each worker published its own
            # labeled gauge from inside its process before exiting.
            reg.gauge("process.peak_rss_bytes").set(peak_rss_bytes())
            agg = ProfileStats.from_registry(reg)
            agg.n_events = len(batch)
            agg.n_unique_addresses = batch.n_unique_addresses

        info = ParallelRunInfo.from_registry(reg, cfg.workers, chunk_log)
        result = ProfileResult(
            store=store,
            loops=extract_loop_info(batch),
            stats=agg,
            var_names=batch.var_names,
            file_names=batch.file_names,
            multithreaded=batch.n_threads > 1 or cfg.multithreaded_target,
            provenance=prov,
        )
        return result, info
