"""The pipeline kernel's differential oracle: replay its chunks by reference.

:func:`record_chunks` captures the exact rows every pipeline
:class:`~repro.parallel.worker.Worker` fed its chunk kernel (per worker, in
order, with each chunk's sequence number); :func:`replay_reference` then
drives one :class:`~repro.core.reference.ReferenceEngine` per worker over
the same chunks — ``engine.process(batch.select(rows))`` — with the scalar
trackers the kernel's planes mirror (``ArraySignature`` of
``slots_per_worker`` slots with conflict tracking, banked like the slot
planes when the run is, or ``PerfectSignature``).
Stores, instance counts, provenance, eviction counts and conflict heat must
then agree field for field.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.deps import DependenceStore
from repro.core.reference import ReferenceEngine
from repro.core.result import ProfileStats
from repro.obs.heatmap import N_BOUNDS, bucket_of
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.provenance import ProvenanceCollector
from repro.parallel.worker import Worker
from repro.sigmem import ArraySignature, PerfectSignature, hash_address, hash_addresses

ChunkStreams = dict[int, list[tuple[int, np.ndarray]]]


@contextmanager
def record_chunks():
    """Record ``{worker: [(seq, rows), ...]}`` for in-process pipeline runs."""
    streams: ChunkStreams = {}
    original = Worker.process_rows

    def recording(self, batch, rows, seq=-1):
        streams.setdefault(self.wid, []).append((seq, np.array(rows)))
        return original(self, batch, rows, seq)

    Worker.process_rows = recording
    try:
        yield streams
    finally:
        Worker.process_rows = original


class ConflictSignature(ArraySignature):
    """An ``ArraySignature`` that also remembers each evicting address (the
    reference side of ``heat.conflicts``).

    With a bank geometry its slots are laid out as the banked slot planes
    lay theirs out (``bank * bank_slots + h(addr) % bank_slots``), so banked
    pipeline runs have a reference too.
    """

    def __init__(self, n_slots: int, salt: int, geometry=None) -> None:
        self.geometry = geometry
        if geometry is not None:
            self.bank_slots = geometry.bank_slots(n_slots)
            n_slots = geometry.round_slots(n_slots)
        super().__init__(
            n_slots, salt, eviction_counter=Counter("sigmem.evictions"),
            track_conflicts=True,
        )
        self.conflict_addrs: list[int] = []

    def slot_of(self, addr: int) -> int:
        if self.geometry is None:
            return super().slot_of(addr)
        return self.geometry.bank_of(addr) * self.bank_slots + hash_address(
            addr, self.bank_slots, self.salt
        )

    def slots_of(self, addrs: np.ndarray) -> np.ndarray:
        if self.geometry is None:
            return super().slots_of(addrs)
        return self.geometry.banks_of(addrs) * self.bank_slots + hash_addresses(
            addrs, self.bank_slots, self.salt
        )

    def insert(self, addr, record) -> None:
        before = self.eviction_counter.value
        super().insert(addr, record)
        if self.eviction_counter.value != before:
            self.conflict_addrs.append(addr)


@dataclass
class ReferenceRun:
    store: DependenceStore = field(default_factory=DependenceStore)
    stats: ProfileStats = field(default_factory=ProfileStats)
    provenance: ProvenanceCollector = field(default_factory=ProvenanceCollector)
    #: ``{(worker, kind): evictions}`` — lossy signatures only.
    evictions: dict[tuple[int, str], int] = field(default_factory=dict)
    #: ``{worker: heat.conflicts bucket counts}`` — lossy signatures only.
    conflict_heat: dict[int, list[int]] = field(default_factory=dict)
    #: ``{(worker, kind): heat.occupancy bucket counts}`` of the owner
    #: addresses the trackers hold at the end.
    occupancy: dict[tuple[int, str], list[int]] = field(default_factory=dict)


def _buckets(addrs) -> list[int]:
    counts = [0] * (N_BOUNDS + 1)
    for addr in addrs:
        counts[bucket_of(addr)] += 1
    return counts


def _owners(tracker) -> list[int]:
    if isinstance(tracker, PerfectSignature):
        return [addr for addr, _ in tracker.items()]
    return [
        tracker._slot_addrs[i]
        for i, rec in enumerate(tracker._slots)
        if rec is not None
    ]


def replay_reference(batch, config, streams: ChunkStreams) -> ReferenceRun:
    """One reference engine per worker over that worker's recorded chunks."""
    run = ReferenceRun()
    for wid in range(config.workers):
        if config.perfect_signature:
            read, write = PerfectSignature(), PerfectSignature()
        else:
            read, write = (
                ConflictSignature(
                    config.slots_per_worker, config.hash_salt, config.bank_geometry
                )
                for _ in range(2)
            )
        prov = ProvenanceCollector(worker=wid)
        engine = ReferenceEngine(config, read, write, provenance=prov)
        for seq, rows in streams.get(wid, []):
            prov.chunk = seq
            engine.process(batch.select(rows))
        run.store.merge(engine.store)
        run.provenance.merge(prov)
        for t, n in engine.stats.dep_instances.items():
            run.stats.dep_instances[t] += n
        run.stats.n_accesses += engine.stats.n_accesses
        for kind, tracker in (("read", read), ("write", write)):
            run.occupancy[(wid, kind)] = _buckets(_owners(tracker))
        if not config.perfect_signature:
            for kind, sig in (("read", read), ("write", write)):
                run.evictions[(wid, kind)] = sig.eviction_counter.value
            run.conflict_heat[wid] = _buckets(
                read.conflict_addrs + write.conflict_addrs
            )
    return run


def provenance_rows(prov: ProvenanceCollector, chunks: bool = True) -> dict:
    """``{dependence: record dict}``; ``chunks=False`` drops the chunk
    window, whose numbering is specific to an execution mode."""
    rows = {}
    for dep, rec in prov:
        d = rec.to_dict()
        if not chunks:
            del d["chunks"]
        rows[dep] = d
    return rows


def eviction_counts(reg: MetricsRegistry) -> dict[tuple[int, str], int]:
    """``{(worker, kind): value}`` of the registry's ``sigmem.evictions``."""
    out = {}
    for c in reg.counters():
        if c.name == "sigmem.evictions":
            labels = dict(c.labels)
            out[(int(labels["worker"]), labels["kind"])] = c.value
    return out


def conflict_heat(reg: MetricsRegistry) -> dict[int, list[int]]:
    """``{worker: heat.conflicts bucket counts}`` from the registry."""
    return {
        int(dict(h.labels)["worker"]): list(h.counts)
        for h in reg.histograms()
        if h.name == "heat.conflicts"
    }
