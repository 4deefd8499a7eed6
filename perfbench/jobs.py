"""The benchmark's three workloads, their jobs, and their output oracles.

A *job* is one user-visible profiling request, the work one ``ddprof
loops|races`` invocation does: build or load the trace, profile it, then
analyse the result.  Every layer call inside a job goes through
:meth:`Spans.span`, so a traced run can split the job's wall time by layer
(``minivm``, ``core``, ``parallel``, ``analyses``, ``obs``) while an
untraced run pays nothing for the bookkeeping.

Each workload has three phases:

* ``setup()`` makes the inputs (the job plan; for ``amp-stream`` the
  amplified trace spilled to disk) and is what ``setup_s`` times;
* ``prepare()`` computes every program's oracle before the timed region
  (``par-delayed`` and ``amp-stream`` run one untimed job per program for
  it, which also warms their caches);
* ``run_job()`` is one timed job; ``check()`` compares its output with the
  oracle afterwards.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.analyses import analyze_loops, communication_matrix
from repro.common.config import ProfilerConfig
from repro.core import profile_trace
from repro.core.deps import DependenceStore, set_rates
from repro.minivm import ScheduleConfig, run_program
from repro.obs import MetricsRegistry, RunLedger, RunReport, new_run_id
from repro.parallel import ParallelProfiler
from repro.trace.batch import _COLUMNS
from repro.workloads import (
    clear_trace_cache,
    get_trace,
    get_workload,
    strip_loops,
    workload_names,
)

#: Per-layer span names, in job order.  ``obs`` has two (report, ledger).
LAYER_SPANS = ("minivm", "core", "parallel", "analyses", "obs.report", "obs.ledger")
#: Layers that count errors (``<layer>.errors``).
LAYERS = ("minivm", "core", "parallel", "analyses", "obs")

PERFECT = ProfilerConfig(perfect_signature=True)
#: Target threads of the pthread-style variants.
TARGET_THREADS = 4
#: Delayed-push probability of the ``par-delayed`` schedule (paper §V).
DELAY_PROBABILITY = 0.3
#: ``amp-stream`` trace size in millions of events (``amp-cg`` scale).
AMP_SCALE_MEVENTS = 8


class Spans:
    """In-memory span log of one run, written out when the run ends.

    A record is ``(job, name, parent, start, end)``; every layer span's
    parent is its job's ``job`` span.  Disabled, :meth:`span` returns a
    shared no-op context, so untraced jobs do no bookkeeping.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.records: list[tuple[int, str, str | None, float, float]] = []
        self._null = nullcontext()

    @contextmanager
    def _record(self, job: int, name: str, parent: str | None) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.records.append((job, name, parent, t0, time.perf_counter()))

    def span(self, job: int, name: str, parent: str | None = "job"):
        if not self.enabled:
            return self._null
        return self._record(job, name, parent)


@dataclass
class JobRecord:
    """One timed job: what ran, how long, what it produced."""

    job: int
    program: str
    traced: bool
    pass_idx: int
    wall_s: float = 0.0
    #: Time of the host-speed calibration unit measured right after the job.
    calibration_s: float = 0.0
    events: int = 0
    #: Layer the job was in when it raised (``None`` = it did not raise).
    error_layer: str | None = None
    error: str | None = None
    #: The job's dependences, held until :meth:`Workload.check` has run.
    store: DependenceStore | None = None
    #: ``(false positives, reported, false negatives, baseline)`` records
    #: of ``store`` against the oracle (``set_rates``).
    rates: tuple[int, int, int, int] | None = None
    digest: str | None = None
    #: Annotated loops found parallelizable (``seq-suite`` only).
    identified: set[str] | None = None
    #: Layer counters read from the job's registry after the wall clock.
    counters: dict[str, float] = field(default_factory=dict)
    ok: bool = False


@dataclass
class Oracle:
    """Expected output of one program under one seed."""

    store: DependenceStore
    digest: str | None = None
    expected_identified: set[str] | None = None


def trace_digest(batch: Any) -> str:
    """SHA-256 over every trace column (a fingerprint of the trace)."""
    h = hashlib.sha256()
    for name, _ in _COLUMNS:
        h.update(np.ascontiguousarray(getattr(batch, name)).tobytes())
    return h.hexdigest()


def _identified(meta: Any, loops: dict) -> set[str]:
    """Annotated loops the analysis found parallelizable; an annotated loop
    that was never profiled is reported as ``missing:<name>``."""
    found = set()
    for key, site in meta.annotated_sites().items():
        if site not in loops:
            found.add(f"missing:{key}")
        elif loops[site].parallelizable:
            found.add(key)
    return found


class Workload:
    """Shared job loop plumbing; subclasses define the jobs and oracles."""

    name = ""
    #: Whether job times are scaled to reference-host speed: the host
    #: calibration runs in the benchmark's process, so it tracks jobs that
    #: run there and not jobs whose work runs in profiler worker processes.
    host_scaled = True

    def __init__(self, seed: int, workdir: Path, programs: list[str] | None = None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.programs = list(programs) if programs is not None else self.default_programs()
        self.oracles: dict[str, Oracle] = {}
        #: program -> why its oracle could not be computed (its jobs fail).
        self.oracle_errors: dict[str, str] = {}
        #: Layer the running job is in (a raising job is charged to it).
        self._layer = "minivm"

    def default_programs(self) -> list[str]:
        raise NotImplementedError

    def setup(self) -> None:
        """Make the workload's inputs (none beyond the job plan by default)."""

    def pass_order(self, pass_idx: int) -> list[str]:
        """One pass runs every program once, in a seed-derived order."""
        order = list(self.programs)
        random.Random(self.seed * 1_000_003 + pass_idx).shuffle(order)
        return order

    def prepare(self) -> None:
        """Compute every program's oracle, outside the timed region."""
        for program in self.programs:
            try:
                self.oracles[program] = self.oracle(program)
            except Exception as exc:  # no oracle: the program's jobs fail
                self.oracle_errors[program] = f"{type(exc).__name__}: {exc}"

    def oracle(self, program: str) -> Oracle:
        raise NotImplementedError

    def job(self, rec: JobRecord, spans: Spans) -> Any:
        raise NotImplementedError

    def run_job(self, job: int, program: str, pass_idx: int, spans: Spans) -> JobRecord:
        """Run and time one job; a raising job is recorded, not propagated."""
        rec = JobRecord(job=job, program=program, traced=spans.enabled, pass_idx=pass_idx)
        self._layer = "minivm"
        t0 = time.perf_counter()
        try:
            with spans.span(job, "job", parent=None):
                out = self.job(rec, spans)
        except Exception as exc:  # a failing job is counted; the run goes on
            rec.wall_s = time.perf_counter() - t0
            rec.error_layer = self._layer
            rec.error = f"{type(exc).__name__}: {exc}"
            return rec
        rec.wall_s = time.perf_counter() - t0
        self.after_job(rec, out)
        return rec

    def after_job(self, rec: JobRecord, out: Any) -> None:
        """Collect outputs and counters, outside the job's wall time."""

    def check(self, rec: JobRecord) -> bool:
        """Compare the job's output with its oracle; sets ``rec.ok`` and
        ``rec.rates``."""
        oracle = self.oracles.get(rec.program)
        if rec.store is not None and oracle is not None:
            r = set_rates(rec.store, oracle.store)
            rec.rates = (r.false_positives, r.n_reported, r.false_negatives, r.n_baseline)
        rec.ok = (
            rec.error is None
            and rec.store is not None
            and oracle is not None
            and self.matches(rec, oracle)
        )
        return rec.ok

    def matches(self, rec: JobRecord, oracle: Oracle) -> bool:
        return rec.digest == oracle.digest and rec.store == oracle.store


def _producer_counters(reg: MetricsRegistry, counters: dict[str, float]) -> None:
    counters["fastpath_events"] = reg.sum_counters("producer.events_fastpath")
    counters["interp_events"] = reg.sum_counters("producer.events_interpreted")


class SeqSuite(Workload):
    """All sequential analogs, each job as one ``ddprof loops`` call."""

    name = "seq-suite"

    def default_programs(self) -> list[str]:
        return [n for n in workload_names() if get_workload(n).suite != "amplified"]

    def setup(self) -> None:
        self.ledger_dir = self.workdir / "ledger"
        self.ledger_dir.mkdir(parents=True, exist_ok=True)

    def job(self, rec: JobRecord, spans: Spans) -> Any:
        # Per-CLI-call behaviour: the producer runs every job.
        clear_trace_cache()
        reg = MetricsRegistry(run_id=new_run_id())
        j = rec.job
        self._layer = "minivm"
        with spans.span(j, "minivm"):
            batch, meta = get_trace(rec.program, with_meta=True, registry=reg)
        self._layer = "core"
        with spans.span(j, "core"):
            res = profile_trace(batch, PERFECT, registry=reg)
        self._layer = "analyses"
        with spans.span(j, "analyses"):
            loops = analyze_loops(res)
        self._layer = "obs"
        with spans.span(j, "obs.report"):
            reg.emit({"type": "snapshot", **reg.snapshot()})
            reg.close()
            report = RunReport.build(
                reg, res, None, workload=rec.program, variant="seq", engine="vectorized"
            )
            report.render()
        with spans.span(j, "obs.ledger"):
            RunLedger(
                self.ledger_dir, reg.run_id, meta={"workload": rec.program}
            ).finalize(reg, report, result=res)
        return batch, meta, res, loops, reg

    def after_job(self, rec: JobRecord, out: Any) -> None:
        batch, meta, res, loops, reg = out
        rec.events = len(batch)
        rec.digest = trace_digest(batch)
        rec.store = res.store
        rec.identified = _identified(meta, loops)
        rec.counters["merged"] = res.store.n_entries
        _producer_counters(reg, rec.counters)

    def oracle(self, program: str) -> Oracle:
        # The spec: the reference engine on an interpreter-only build.
        clear_trace_cache()
        batch, meta = get_trace(program, with_meta=True, fastpath=False)
        clear_trace_cache()
        ref = profile_trace(batch, PERFECT, engine="reference")
        return Oracle(
            store=ref.store,
            digest=trace_digest(batch),
            expected_identified=set(meta.expected_identified),
        )

    def matches(self, rec: JobRecord, oracle: Oracle) -> bool:
        return (
            super().matches(rec, oracle)
            and rec.identified == oracle.expected_identified
        )


class ParDelayed(Workload):
    """pthread-style variants under a delayed-push schedule (paper §V),
    each job as one ``ddprof races`` call plus the comm/loop analyses."""

    name = "par-delayed"

    def default_programs(self) -> list[str]:
        return [
            n
            for n in workload_names()
            if get_workload(n).suite != "amplified" and get_workload(n).has_parallel_variant
        ]

    def setup(self) -> None:
        self.schedule = ScheduleConfig(
            policy="roundrobin", seed=self.seed, delay_probability=DELAY_PROBABILITY
        )
        self.config = PERFECT.with_(multithreaded_target=True)

    def job(self, rec: JobRecord, spans: Spans) -> Any:
        reg = MetricsRegistry()
        j = rec.job
        wl = get_workload(rec.program)
        self._layer = "minivm"
        with spans.span(j, "minivm"):
            program, _ = wl.build_par(wl.default_scale, TARGET_THREADS)
            batch = run_program(program, schedule=self.schedule, registry=reg)
        self._layer = "core"
        with spans.span(j, "core"):
            res = profile_trace(batch, self.config, registry=reg)
        self._layer = "analyses"
        with spans.span(j, "analyses"):
            res.store.races()
            communication_matrix(res, n_threads=TARGET_THREADS + 1)
            analyze_loops(res)
        return batch, res, reg

    def after_job(self, rec: JobRecord, out: Any) -> None:
        batch, res, reg = out
        rec.events = len(batch)
        rec.digest = trace_digest(batch)
        rec.store = res.store
        rec.counters["merged"] = res.store.n_entries
        _producer_counters(reg, rec.counters)

    def oracle(self, program: str) -> Oracle:
        # The warm-up job's own trace is the one the reference engine reads.
        rec = JobRecord(job=-1, program=program, traced=False, pass_idx=-1)
        batch, _, _ = self.job(rec, Spans())
        ref = profile_trace(batch, self.config, engine="reference")
        return Oracle(store=ref.store, digest=trace_digest(batch))


class AmpStream(Workload):
    """``amp-cg`` spilled to the mmap tier, profiled by the processes-mode
    pipeline with lossy banked signatures."""

    name = "amp-stream"
    host_scaled = False

    def default_programs(self) -> list[str]:
        return ["amp-cg"]

    def setup(self) -> None:
        cache = self.workdir / "trace-cache"
        self.batch = get_trace("amp-cg", scale=AMP_SCALE_MEVENTS, cache_dir=cache)
        self.config = ProfilerConfig(
            signature_slots=1 << 22,
            signature_banks=16,
            hash_salt=self.seed,
            workers=min(2, os.cpu_count() or 1),
        )

    def job(self, rec: JobRecord, spans: Spans) -> Any:
        reg = MetricsRegistry()
        self._layer = "parallel"
        with spans.span(rec.job, "parallel"):
            res, info = ParallelProfiler(self.config, mode="processes", registry=reg).profile(
                self.batch
            )
        return res, info, reg

    def after_job(self, rec: JobRecord, out: Any) -> None:
        res, info, reg = out
        rec.events = len(self.batch)
        rec.store = res.store
        c = rec.counters
        c["merged"] = res.store.n_entries
        for phase, agg in reg.phase_totals().items():
            c[f"phase.{phase}"] = agg["seconds"]
        c["access_imbalance"] = info.access_imbalance
        c["backpressure_stalls"] = reg.counter("pipeline.backpressure_stalls").value
        c["signature_memory_bytes"] = info.signature_memory_bytes
        c["worker_peak_rss_bytes"] = max(
            (
                g.value
                for g in reg.gauges()
                if g.name == "process.peak_rss_bytes" and "worker" in dict(g.labels)
            ),
            default=0.0,
        )

    def oracle(self, program: str) -> Oracle:
        # Ground truth of an amplified trace: the stripped base trace's set.
        base = strip_loops(get_trace("cg"))
        truth = profile_trace(base, PERFECT, engine="reference").store
        self.run_job(-1, program, -1, Spans())
        return Oracle(store=truth)

    def matches(self, rec: JobRecord, oracle: Oracle) -> bool:
        # Lossy signatures: only a raised or crashed job fails; accuracy is
        # reported through dep_precision / dep_recall instead.
        return True


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SeqSuite, ParDelayed, AmpStream)
}


def dependence_rates(records: list[JobRecord]) -> tuple[float, float]:
    """Pooled record-level (FPR, FNR) of the checked jobs against their
    oracles: false positives over reported records and false negatives
    over baseline records, summed across jobs."""
    fp = n_rep = fn = n_base = 0
    for rec in records:
        if rec.rates is not None:
            fp += rec.rates[0]
            n_rep += rec.rates[1]
            fn += rec.rates[2]
            n_base += rec.rates[3]
    return (fp / n_rep if n_rep else 0.0, fn / n_base if n_base else 0.0)
