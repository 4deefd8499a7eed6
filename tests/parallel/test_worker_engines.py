"""Differential test: the pipeline's chunk kernel vs the reference engine.

Pipeline workers run the incremental array kernel
(:class:`~repro.core.vectorized.ChunkKernel`); the event-at-a-time
:class:`~repro.core.reference.ReferenceEngine` is the oracle.  Driven over
the same chunk rows (``ReferenceEngine.process(batch.select(rows))``, see
:mod:`tests.parallel.chunk_oracle`), the two must produce byte-identical
dependence stores — merged entries *and* per-type instance counts — on every
MiniVM example program, for both the perfect and the lossy array signature.
"""

import pytest

from repro.common.config import ProfilerConfig
from repro.core.vectorized import ChunkKernel
from repro.obs.provenance import ProvenanceCollector
from repro.parallel import ParallelProfiler
from repro.parallel.worker import Worker
from repro.workloads import get_trace, get_workload, workload_names
from tests.parallel.chunk_oracle import record_chunks, replay_reference

ALL_WORKLOADS = [
    name
    for suite in ("nas", "starbench", "splash2x")
    for name in workload_names(suite)
]

PERFECT = ProfilerConfig(perfect_signature=True, workers=2, chunk_size=2048)


def _kernel_and_reference(batch, cfg):
    with record_chunks() as streams:
        result, _ = ParallelProfiler(cfg).profile(batch)
    return result, replay_reference(batch, cfg, streams)


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_vectorized_matches_reference_all_programs(name):
    batch = get_trace(name, scale=1)
    vec, ref = _kernel_and_reference(batch, PERFECT)
    assert vec.store == ref.store
    assert vec.stats.dep_instances == ref.stats.dep_instances
    assert vec.stats.n_accesses == ref.stats.n_accesses


@pytest.mark.parametrize("name", ["ep", "kmeans", "md5"])
def test_vectorized_matches_reference_array_signature(name):
    """Same equivalence with the conflating fixed-size signature: the slot
    planes must reproduce the array signature's collisions exactly."""
    batch = get_trace(name, scale=1)
    cfg = ProfilerConfig(signature_slots=1 << 12, workers=2, chunk_size=1024)
    vec, ref = _kernel_and_reference(batch, cfg)
    assert vec.store == ref.store
    assert vec.stats.dep_instances == ref.stats.dep_instances


@pytest.mark.parametrize("name", ["md5", "rgbyuv"])
def test_vectorized_matches_reference_parallel_variant(name):
    """Multi-threaded target traces: thread ids and race flags must agree."""
    assert get_workload(name).has_parallel_variant
    batch = get_trace(name, variant="par", scale=1, threads=3)
    cfg = PERFECT.with_(multithreaded_target=True)
    vec, ref = _kernel_and_reference(batch, cfg)
    assert vec.store == ref.store
    assert vec.stats.dep_instances == ref.stats.dep_instances


def test_unknown_worker_engine_rejected():
    """A ``worker_engine`` setting fails loudly, never silently: the
    config has no such field and the CLI has no such flag."""
    from repro.cli import main

    with pytest.raises(TypeError):
        ProfilerConfig(worker_engine="reference")
    with pytest.raises(SystemExit) as exc:
        main(["stats", "ep", "--worker-engine", "reference", "--no-ledger"])
    assert exc.value.code == 2


def test_provenance_keeps_the_kernel():
    """Provenance does not change the worker's engine: the kernel records
    it, over conflict-tracking planes when the signature is lossy."""
    prov = ProvenanceCollector(worker=0)
    lossy = Worker(0, ProfilerConfig(signature_slots=64), provenance=prov)
    assert isinstance(lossy.engine, ChunkKernel)
    assert lossy.engine.provenance is prov
    assert lossy.engine.read_tracker.tracks_conflicts
    plain = Worker(0, ProfilerConfig(signature_slots=64))
    assert plain.engine.provenance is None
    assert not plain.engine.read_tracker.tracks_conflicts
    perfect = Worker(0, PERFECT, provenance=ProvenanceCollector(worker=0))
    assert not perfect.engine.read_tracker.tracks_conflicts
