"""Workload-wide differential oracle for the affine producer fast path.

The tree-walking interpreter is the oracle: for every bundled workload
(sequential and, where available, parallel variant) the trace produced
with the fast path enabled must be **bit-for-bit identical** — all eight
columns plus all three intern tables — to the trace produced with the
fast path disabled.  A final aggregate test asserts the fast path is not
vacuously passing (it must actually vectorize loops somewhere).
"""

import numpy as np
import pytest

from repro.minivm import ScheduleConfig, Scheduler
from repro.workloads import get_workload, workload_names

ALL = workload_names("nas") + workload_names("starbench") + workload_names("splash2x")
PAR = [n for n in ALL if get_workload(n).has_parallel_variant]

COLUMNS = ("kind", "tid", "loc", "addr", "aux", "var", "ts")


def _run(program, schedule, fastpath):
    sched = Scheduler(program, schedule=schedule, fastpath=fastpath)
    sched.run()
    return sched.interp.fastpath_stats, sched.recorder.build()


def _assert_identical(fast, slow, label):
    for name in COLUMNS:
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.dtype == b.dtype, (label, name)
        mism = np.flatnonzero(a != b)
        assert mism.size == 0, (
            f"{label}: column {name} differs at row {mism[0]} "
            f"(fast={a[mism[0]]!r} interp={b[mism[0]]!r})"
        )
    assert fast.var_names == slow.var_names, label
    assert fast.file_names == slow.file_names, label


def _check(name, variant):
    wl = get_workload(name)
    if variant == "seq":
        build = lambda: wl.build_seq(wl.default_scale)[0]  # noqa: E731
        schedule = None
    else:
        build = lambda: wl.build_par(wl.default_scale, 4)[0]  # noqa: E731
        schedule = ScheduleConfig(policy="roundrobin", seed=0)
    stats, fast = _run(build(), schedule, fastpath=True)
    _, slow = _run(build(), schedule, fastpath=False)
    _assert_identical(fast, slow, f"{name}/{variant}")
    return stats, len(fast)


class TestOracleAllWorkloads:
    @pytest.mark.parametrize("name", ALL)
    def test_sequential_bit_identical(self, name):
        _check(name, "seq")

    @pytest.mark.parametrize("name", PAR)
    def test_parallel_bit_identical(self, name):
        _check(name, "par")

    def test_fastpath_actually_engages(self):
        """Guard against the oracle passing vacuously: across the
        sequential suite, a meaningful share of events must come off the
        vectorized path."""
        total_fast = total_events = total_loops = 0
        for name in ALL:
            stats, n_events = _check(name, "seq")
            total_fast += stats.events
            total_events += n_events
            total_loops += stats.loops
        assert total_loops > 0
        assert total_fast / total_events > 0.05, (
            f"fast path covered only {total_fast}/{total_events} events"
        )
