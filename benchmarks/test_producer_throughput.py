"""Throughput of the trace producer's affine fast path (not a paper artifact).

The producer fast path executes classified affine MiniVM loops as whole
iteration-space array operations and bulk-emits their trace rows.  This
bench records producer throughput with the fast path on and off into the
``engine`` suite record so regressions in either path are visible, declares
the >=5x floor on the speedup metric itself (the CI gate enforces it via
``ddprof bench compare``), and folds the producer's own telemetry counters
(fast-path event share) into the same record via the run report.
"""

import numpy as np

from repro.minivm import ProgramBuilder, run_program
from repro.obs import MetricsRegistry, RunReport, repeat_timed
from repro.workloads import get_workload

N = 20000


def affine_dominated_program():
    """Three streaming affine loops over int arrays — the shape the fast
    path is built for (fill, map, elementwise combine)."""
    pb = ProgramBuilder("affine-bench")
    a = pb.global_array("a", N)
    b = pb.global_array("b", N)
    c = pb.global_array("c", N)
    with pb.function("main") as f:
        i = f.reg("i")
        with f.for_loop(i, 0, N):
            f.store(a, i, i * 3)
        with f.for_loop(i, 0, N):
            f.store(b, i, f.load(a, i) + 7)
        with f.for_loop(i, 0, N):
            f.store(c, i, f.load(a, i) * f.load(b, i))
    return pb.build()


def producer_eps(build, fastpath, repeats=2, warmup=1, registry=None):
    """Median events/s of the producer over ``build()``'s program, plus the
    last produced batch (shared warmup/repeat policy)."""
    timed = repeat_timed(
        lambda: run_program(build(), fastpath=fastpath, registry=registry),
        repeats=repeats,
        warmup=warmup,
    )
    eps = [len(b) / s for b, s in zip(timed.results, timed.seconds)]
    return sorted(eps)[len(eps) // 2], eps, timed.last


def test_affine_fastpath_speedup(benchmark, bench_record):
    """The fast path must beat the tree-walking producer by >=5x on an
    affine-dominated workload, while producing a bit-identical trace."""
    build = affine_dominated_program
    reg = MetricsRegistry()
    interp_med, interp_eps, interp_batch = producer_eps(build, False)
    fast_med, fast_eps, fast_batch = producer_eps(build, True, registry=reg)
    for col in ("kind", "tid", "loc", "addr", "aux", "var", "ts"):
        assert np.array_equal(
            getattr(fast_batch, col), getattr(interp_batch, col)
        ), col
    bench_record.record(
        "producer.interpreted_eps", samples=interp_eps, unit="events/s",
        direction="higher", warmup=1,
    )
    bench_record.record(
        "producer.fastpath_eps", samples=fast_eps, unit="events/s",
        direction="higher", warmup=1,
    )
    speedup = fast_med / interp_med
    bench_record.record(
        "producer.fastpath_speedup", speedup, unit="x", direction="higher",
        floor=5.0, events=len(fast_batch),
    )
    # The producer's own counters ride the same record: on this workload
    # the affine fast path must carry essentially every emitted event.
    report = RunReport.build(reg, workload="affine-bench")
    recs = bench_record.record_run_report(report, "producer.affine_bench")
    frac = next(r for r in recs if r.id.endswith("fastpath_fraction"))
    assert frac.value > 0.9, f"fast path covered only {frac.value:.1%}"
    assert speedup >= 5.0, (
        f"affine fast path only {speedup:.1f}x over the interpreter "
        f"(needs >=5x on affine-dominated loops)"
    )
    benchmark.pedantic(
        lambda: producer_eps(build, True, repeats=1, warmup=0),
        rounds=3,
        iterations=1,
    )


def test_bundled_workload_coverage(benchmark, bench_record):
    """Record (without a hard speedup floor — coverage varies) what the
    fast path buys on a real bundled workload with partial affine
    coverage."""
    wl = get_workload("rgbyuv")
    build = lambda: wl.build_seq(wl.default_scale)[0]  # noqa: E731
    interp_med, interp_eps, _ = producer_eps(build, False)
    fast_med, fast_eps, batch = producer_eps(build, True)
    bench_record.record(
        "producer.rgbyuv_interpreted_eps", samples=interp_eps,
        unit="events/s", direction="higher", warmup=1,
    )
    bench_record.record(
        "producer.rgbyuv_fastpath_eps", samples=fast_eps, unit="events/s",
        direction="higher", warmup=1, events=len(batch),
    )
    ratio = fast_med / interp_med
    bench_record.record(
        "producer.rgbyuv_fastpath_ratio", ratio, unit="x", direction="higher",
        floor=0.8,  # partial coverage, but the fast path must never cost us
    )
    assert ratio > 0.8
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
