"""Workload differential: profiling under delayed pushes equals the spec.

Every pthread-style variant runs with 4 target threads under a seeded
round-robin schedule that delays 30% of the access pushes (Section V): rows
reach the profiler after later events of their thread, loop events
included, with their access timestamps.  One-shot profiling (perfect and
lossy) and the deterministic W=4 pipeline must then report exactly what
:class:`~repro.core.ReferenceEngine` reports — the merged store, per-entry
instance counts, per-type instance totals, and the race count.
"""

import pytest

from repro.common.config import ProfilerConfig
from repro.core import profile_trace
from repro.minivm import ScheduleConfig, run_program
from repro.parallel import ParallelProfiler
from repro.workloads import get_workload, workload_names

THREADS = 4
SEED = 1
PAR_PROGRAMS = [
    n
    for n in workload_names()
    if get_workload(n).suite != "amplified" and get_workload(n).has_parallel_variant
]
CONFIGS = {
    "perfect": ProfilerConfig(perfect_signature=True, multithreaded_target=True),
    "sig-4096": ProfilerConfig(signature_slots=4096, multithreaded_target=True),
}


@pytest.fixture(scope="module", params=PAR_PROGRAMS)
def case(request):
    """One program's delayed-push trace and its reference results."""
    wl = get_workload(request.param)
    program, _ = wl.build_par(wl.default_scale, THREADS)
    schedule = ScheduleConfig("roundrobin", SEED, delay_probability=0.3)
    batch = run_program(program, schedule=schedule)
    refs = {cid: profile_trace(batch, cfg, "reference") for cid, cfg in CONFIGS.items()}
    return batch, refs


def assert_same(result, ref):
    assert result.store == ref.store
    assert result.store.instances == ref.store.instances
    assert result.stats.dep_instances == ref.stats.dep_instances
    assert result.stats.races_flagged == ref.stats.races_flagged


def test_programs_present():
    assert len(PAR_PROGRAMS) == 14


@pytest.mark.parametrize("config_id", sorted(CONFIGS))
def test_one_shot_matches_reference(case, config_id):
    batch, refs = case
    assert_same(profile_trace(batch, CONFIGS[config_id]), refs[config_id])


def test_pipeline_matches_reference(case):
    batch, refs = case
    cfg = CONFIGS["perfect"].with_(workers=4)
    result, _ = ParallelProfiler(cfg, mode="deterministic").profile(batch)
    assert_same(result, refs["perfect"])
