"""Kernel provenance and eviction telemetry equal the reference engine's.

The pipeline's chunk kernel records provenance (workers, chunk window, sink
timestamp window, instance count, ``suspect_fp``) and, over a lossy
signature, ``sigmem.evictions`` and ``heat.conflicts``.  Its executable spec
is the reference engine over ``ArraySignature(track_conflicts=True)`` driven
over the same chunks with ``provenance.chunk = seq``; the two must agree
field for field.  Processes mode must then agree with the deterministic
mode on everything but the chunk numbering, which is mode-specific.
"""

import pytest
from hypothesis import given, settings

from repro.common.config import ProfilerConfig
from repro.obs.heatmap import N_BOUNDS
from repro.obs.metrics import MetricsRegistry
from repro.parallel import ParallelProfiler
from repro.workloads import get_trace
from tests.core.test_engine_equivalence import random_ops
from tests.parallel.chunk_oracle import (
    conflict_heat,
    eviction_counts,
    provenance_rows,
    record_chunks,
    replay_reference,
)
from tests.trace_helpers import seq_trace

SIGNATURES = {
    "slots64": {"signature_slots": 64},
    "slots4096": {"signature_slots": 4096},
    "perfect": {"perfect_signature": True},
}


def kernel_run(batch, cfg, mode="deterministic"):
    reg = MetricsRegistry()
    result, _ = ParallelProfiler(
        cfg,
        mode=mode,
        registry=reg,
        provenance=True,
        rebalance_threshold=float("inf"),
    ).profile(batch)
    return result, reg


def assert_matches_reference(batch, cfg):
    with record_chunks() as streams:
        result, reg = kernel_run(batch, cfg)
    ref = replay_reference(batch, cfg, streams)
    assert result.store == ref.store
    assert result.stats.dep_instances == ref.stats.dep_instances
    assert provenance_rows(result.provenance) == provenance_rows(ref.provenance)
    assert result.provenance.n_suspect == ref.provenance.n_suspect
    assert eviction_counts(reg) == ref.evictions
    zero = [0] * (N_BOUNDS + 1)
    expected_heat = {w: ref.conflict_heat.get(w, zero) for w in conflict_heat(reg)}
    assert conflict_heat(reg) == expected_heat
    return result, reg


class TestKernelMatchesReference:
    @pytest.mark.parametrize("sig", list(SIGNATURES))
    @pytest.mark.parametrize("name", ["is", "cg", "kmeans", "rgbyuv"])
    def test_single_worker(self, name, sig):
        cfg = ProfilerConfig(workers=1, chunk_size=1024, **SIGNATURES[sig])
        result, reg = assert_matches_reference(get_trace(name), cfg)
        evictions = sum(eviction_counts(reg).values())
        if sig == "perfect":
            assert result.provenance.n_suspect == 0
            assert evictions == 0
        else:
            assert result.provenance.n_suspect > 0
            assert evictions > 0

    @pytest.mark.parametrize("banks", [0, 8])
    @pytest.mark.parametrize("name", ["is", "md5"])
    def test_three_workers(self, name, banks):
        cfg = ProfilerConfig(
            workers=3, chunk_size=512, signature_slots=4096, signature_banks=banks
        )
        assert_matches_reference(get_trace(name), cfg)

    @settings(max_examples=40, deadline=None)
    @given(ops=random_ops(delayed=True))
    def test_random_traces_with_frees(self, ops):
        """Tiny chunks and a 7-slot signature: conflict state and evicted
        bits must carry across chunk and kill boundaries exactly."""
        cfg = ProfilerConfig(
            workers=2, chunk_size=4, signature_slots=14, multithreaded_target=True
        )
        assert_matches_reference(seq_trace(ops), cfg)


class TestModesAgree:
    @pytest.mark.parametrize("name", ["is", "kmeans"])
    def test_processes_matches_deterministic(self, name):
        batch = get_trace(name)
        cfg = ProfilerConfig(
            workers=3, chunk_size=1024, signature_slots=4096, signature_banks=8
        )
        det, det_reg = kernel_run(batch, cfg)
        par, par_reg = kernel_run(batch, cfg, mode="processes")
        assert par.store == det.store
        rows = provenance_rows(det.provenance, chunks=False)
        assert provenance_rows(par.provenance, chunks=False) == rows
        assert par.provenance.n_suspect == det.provenance.n_suspect > 0
        assert eviction_counts(par_reg) == eviction_counts(det_reg)
        assert conflict_heat(par_reg) == conflict_heat(det_reg)
        assert sum(eviction_counts(det_reg).values()) > 0
