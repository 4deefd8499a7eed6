"""End-to-end benchmark of the data-dependence profiler.

Run from the repository root::

    python3 perfbench/run.py --workload seq-suite --seed 1 --seconds 40 --trace 0

One client runs jobs in a closed loop (the next job starts when the previous
one ends) for ``--seconds`` seconds, always finishing the current pass over
the workload's programs.  Every job's output is checked against an oracle
computed outside the timed region.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates traced and untraced passes and prints the
per-layer metrics, including ``trace_overhead`` (traced over untraced pass
time).  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything the run writes stays under the working directory: scratch inputs
(trace cache, spill, ledger) in ``.perfbench_tmp/`` (removed at exit) and
the traced run's span log in ``.perfbench_out/``.  See ``perfbench/README.md``
for the workloads and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Fresh-interpreter set-up repetitions per run (``setup_s`` is their median).
SETUP_REPEATS = 5
#: A run stops mid-pass once it has run this long past ``--seconds``.
OVERRUN_CAP_S = 60.0
#: Fewest jobs a tail percentile needs beyond it.
TAIL_SAMPLES = 10
#: Time of one :func:`calibrate` call on the reference host.  Job and set-up
#: times are reported at that host's speed (see :func:`calibrate`).
REF_CALIBRATION_S = 0.005
#: After each job, host speed is re-measured for this share of its wall time.
CALIBRATION_SHARE = 0.1

END_TO_END = {
    "events_per_s": "events/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "job_ok_rate": "fraction",
    "dep_precision": "fraction",
    "dep_recall": "fraction",
}

PER_LAYER = {
    "minivm.self_s": "s",
    "minivm.events_per_s": "events/s",
    "minivm.fastpath_share": "fraction",
    "minivm.errors": "count",
    "core.self_s": "s",
    "core.events_per_s": "events/s",
    "core.reduction_factor": "events/dep",
    "core.errors": "count",
    "parallel.self_s": "s",
    "parallel.push_s": "s",
    "parallel.drain_s": "s",
    "parallel.merge_s": "s",
    "parallel.access_imbalance": "ratio",
    "parallel.backpressure_stalls": "count",
    "parallel.worker_peak_rss_mb": "MB",
    "parallel.errors": "count",
    "sigmem.memory_mb": "MB",
    "analyses.self_s": "s",
    "analyses.errors": "count",
    "obs.report_s": "s",
    "obs.ledger_s": "s",
    "obs.errors": "count",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "job.wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead": "ratio",
}

MB = float(1 << 20)


def _use_sources(root: Path) -> None:
    """Import the profiler from the checkout's ``src``; exit 2 without it."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no profiler sources under {src} (run from the repository root)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


_CALIBRATION_ARRAYS = None


def calibrate() -> float:
    """Time one fixed unit of host work and return it in seconds.

    The shared host this benchmark runs on changes speed by 20-40% within
    tens of seconds, and the process's CPU time changes with it, so raw job
    times of runs minutes apart differ by that much.  The unit is the
    benchmark's own code, never the profiler's: a stable sort of a fixed
    200k-element int64 array into a preallocated buffer, so it allocates
    nothing and does not depend on the process's heap.  Each job's time is
    reported scaled by ``REF_CALIBRATION_S`` over the unit's time measured
    right after that job, that is, in seconds on a host where one sort takes
    ``REF_CALIBRATION_S``: a change to the profiler moves it, a change in
    host speed much less.  Over four minutes of seq-suite jobs interleaved
    with it, job time over sort time spread 0.07 (IQR/median of windows of
    25 jobs) where raw job time spread 0.28; a pure-Python dict loop as the
    unit only brought it to 0.18.
    """
    global _CALIBRATION_ARRAYS
    import numpy as np

    if _CALIBRATION_ARRAYS is None:
        keys = np.arange(200_000, dtype=np.int64) * 2654435761 % 1_000_003
        _CALIBRATION_ARRAYS = (keys, np.empty_like(keys))
    keys, work = _CALIBRATION_ARRAYS
    t0 = time.perf_counter()
    work[:] = keys
    work.sort(kind="stable")
    return time.perf_counter() - t0


def calibrate_for(seconds: float) -> float:
    """Median time of :func:`calibrate` calls made for at least
    ``CALIBRATION_SHARE`` of ``seconds``, and at least once."""
    samples: list[float] = []
    while not samples or sum(samples) < CALIBRATION_SHARE * seconds:
        samples.append(calibrate())
    return statistics.median(samples)


def probe_setup(workload: str, seed: int, workdir: Path) -> None:
    """Child side of a set-up measurement: a fresh interpreter imports the
    CLI, then makes the workload's inputs; prints both times, and the
    host's calibration time right after them, as JSON."""
    _use_sources(Path.cwd())
    t0 = time.perf_counter()
    import repro.cli  # noqa: F401  (the import is what is timed)

    t1 = time.perf_counter()
    from jobs import WORKLOADS

    WORKLOADS[workload](seed, workdir).setup()
    t2 = time.perf_counter()
    cal = calibrate_for(t2 - t0)
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1, "calibration_s": cal}))


def measure_setup(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Run :func:`probe_setup` in ``SETUP_REPEATS`` fresh interpreters."""
    samples = []
    for i in range(SETUP_REPEATS):
        d = workdir / f"setup-{i}"
        d.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", str(d),
             "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        shutil.rmtree(d, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _peak_rss_reset() -> None:
    """Free the previous job's garbage, hand freed heap back to the OS and
    restart the kernel's RSS high-water mark, so the next reading is one
    job's own peak (Linux)."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def _peak_rss_bytes() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) * 1024
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024


def run_timed(w, seconds: float, trace: bool):
    """Closed-loop client: whole passes until ``seconds`` have elapsed.

    With ``trace``, even passes are traced and odd ones are not, and at
    least one of each runs.  Each job is checked against its oracle right
    after it (outside its wall time), then the host's speed is measured
    (:func:`calibrate_for`).  Returns the job records, each with the
    process's peak RSS during its job and the host's calibration time right
    after it, and the span log.
    """
    from jobs import Spans

    spans = Spans()
    records = []
    start = time.perf_counter()
    pass_idx = 0
    job = 0
    while True:
        spans.enabled = trace and pass_idx % 2 == 0
        for program in w.pass_order(pass_idx):
            _peak_rss_reset()
            rec = w.run_job(job, program, pass_idx, spans)
            rec.counters["peak_rss_bytes"] = _peak_rss_bytes()
            if w.host_scaled:
                rec.calibration_s = calibrate_for(rec.wall_s)
            w.check(rec)
            rec.store = None  # checked; only the outcome is kept
            records.append(rec)
            job += 1
            if time.perf_counter() - start > seconds + OVERRUN_CAP_S:
                break
        pass_idx += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds + OVERRUN_CAP_S or (
            elapsed >= seconds and (not trace or pass_idx >= 2)
        ):
            break
    return records, spans


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics: on a
    suite whose job times have gaps between programs it moves smoothly
    instead of jumping with whichever program sits at rank ``p·n``.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, (1 << 14) + 1)
    inner = grid[1:-1]
    logpdf = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    pdf = np.concatenate([[0.0], np.exp(logpdf - logpdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    edges = np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1])
    return float(np.dot(np.diff(edges), x))


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ``TAIL_SAMPLES`` jobs beyond
    it, capped at 99; ``None`` when ``n`` is too small for any."""
    if n <= TAIL_SAMPLES:
        return None
    return min(99, (100 * (n - TAIL_SAMPLES)) // n)


def program_medians(records, value) -> dict[str, float]:
    """Each program's median of ``value(record)`` over its jobs."""
    by_prog: dict[str, list[float]] = {}
    for r in records:
        by_prog.setdefault(r.program, []).append(value(r))
    return {prog: statistics.median(v) for prog, v in by_prog.items()}


def job_times(records, time_of) -> list[float]:
    """The samples behind the job-time quantiles: each program's mean of
    ``time_of(record)``, so every program counts once and its repeats,
    spread over the run, average out; a single-program workload uses its
    jobs."""
    by_prog: dict[str, list[float]] = {}
    for r in records:
        by_prog.setdefault(r.program, []).append(time_of(r))
    if len(by_prog) == 1:
        return [time_of(r) for r in records]
    return [statistics.mean(v) for v in by_prog.values()]


def _job_peak_rss(r) -> float:
    return max(r.counters.get("peak_rss_bytes", 0.0), r.counters.get("worker_peak_rss_bytes", 0.0))


def scaled_wall(r) -> float:
    """A job's wall time at reference-host speed (see :func:`calibrate`);
    its raw wall time when it was not calibrated."""
    if not r.calibration_s:
        return r.wall_s
    return r.wall_s * REF_CALIBRATION_S / r.calibration_s


def setup_time(sample: dict) -> float:
    """One set-up probe's time at reference-host speed."""
    return (sample["import_s"] + sample["inputs_s"]) * REF_CALIBRATION_S / sample["calibration_s"]


def end_to_end_metrics(records, setup) -> dict[str, float]:
    from jobs import dependence_rates

    times = job_times(records, scaled_wall)
    fpr, fnr = dependence_rates(records)
    return {
        "events_per_s": sum(r.events for r in records) / sum(map(scaled_wall, records)),
        "job_p50_s": hd_quantile(times, 0.5),
        "job_p90_s": hd_quantile(times, 0.9),
        # The largest program's typical job (median over its repeats).
        "peak_rss_mb": max(program_medians(records, _job_peak_rss).values()) / MB,
        "setup_s": statistics.median(setup_time(s) for s in setup),
        "job_ok_rate": sum(r.ok for r in records) / len(records),
        "dep_precision": 1.0 - fpr,
        "dep_recall": 1.0 - fnr,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer_metrics(records, spans, setup) -> dict[str, float]:
    """Per-layer numbers from the traced jobs (means per job).

    Self times plus ``unattributed_s`` add up to ``job.wall_s``: the layer
    spans are disjoint children of the job span, and the parallel layer's
    self time excludes the engine's own push/drain/merge phases, which are
    reported beside it.
    """
    from jobs import LAYER_SPANS, LAYERS

    traced = [r for r in records if r.traced]
    n = len(traced)
    by_job: dict[int, dict[str, float]] = {}
    for job, name, parent, t0, t1 in spans.records:
        if parent is not None:
            d = by_job.setdefault(job, {})
            d[name] = d.get(name, 0.0) + (t1 - t0)

    def span_total(name: str) -> float:
        return sum(by_job.get(r.job, {}).get(name, 0.0) for r in traced)

    def counter_total(name: str, recs=traced) -> float:
        return sum(r.counters.get(name, 0.0) for r in recs)

    phases = {p: counter_total(f"phase.{p}") for p in ("push", "drain", "merge")}
    t = {name: span_total(name) for name in LAYER_SPANS}
    wall = sum(r.wall_s for r in traced)
    produced = counter_total("fastpath_events") + counter_total("interp_events")
    core_events = sum(r.events for r in traced if "core" in by_job.get(r.job, {}))
    with_store = [r for r in records if "merged" in r.counters]

    def pass_means(flag: bool) -> float:
        totals: dict[int, float] = {}
        for r in records:
            if r.traced == flag:
                totals[r.pass_idx] = totals.get(r.pass_idx, 0.0) + r.wall_s
        return statistics.mean(totals.values()) if totals else 0.0

    m = {
        "minivm.self_s": t["minivm"] / n,
        "minivm.events_per_s": _ratio(produced, t["minivm"]),
        "minivm.fastpath_share": _ratio(counter_total("fastpath_events"), produced),
        "core.self_s": t["core"] / n,
        "core.events_per_s": _ratio(core_events, t["core"]),
        "core.reduction_factor": _ratio(
            sum(r.events for r in with_store), counter_total("merged", with_store)
        ),
        "parallel.self_s": (t["parallel"] - sum(phases.values())) / n
        if t["parallel"] > 0 else 0.0,
        "parallel.push_s": phases["push"] / n,
        "parallel.drain_s": phases["drain"] / n,
        "parallel.merge_s": phases["merge"] / n,
        "parallel.access_imbalance": _ratio(counter_total("access_imbalance"), n)
        if t["parallel"] > 0 else 0.0,
        "parallel.backpressure_stalls": counter_total("backpressure_stalls") / n,
        "parallel.worker_peak_rss_mb": max(
            (r.counters.get("worker_peak_rss_bytes", 0.0) for r in records), default=0.0
        ) / MB,
        "sigmem.memory_mb": counter_total("signature_memory_bytes") / n / MB,
        "analyses.self_s": t["analyses"] / n,
        "obs.report_s": t["obs.report"] / n,
        "obs.ledger_s": t["obs.ledger"] / n,
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "setup.inputs_s": statistics.median(s["inputs_s"] for s in setup),
        "job.wall_s": wall / n,
        "unattributed_s": (wall - sum(t.values())) / n,
        "trace_overhead": _ratio(pass_means(True), pass_means(False)),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = float(sum(r.error_layer == layer for r in records))
    return m


def program_rows(records) -> list[str]:
    """One line per program: jobs, checks passed, events, median job time."""
    by_prog: dict[str, list] = {}
    for r in records:
        by_prog.setdefault(r.program, []).append(r)
    lines = [f"{'program':<16} {'jobs':>4} {'ok':>4} {'events':>9} {'median_s':>9}  error"]
    for prog in sorted(by_prog):
        rs = by_prog[prog]
        err = next((f"{r.error_layer}: {r.error}" for r in rs if r.error), "")
        lines.append(
            f"{prog:<16} {len(rs):>4} {sum(r.ok for r in rs):>4} "
            f"{max(r.events for r in rs):>9} "
            f"{statistics.median(r.wall_s for r in rs):>9.4f}  {err}"
        )
    return lines


def write_spans(path: Path, records, spans) -> None:
    programs = {r.job: r.program for r in records}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for job, name, parent, t0, t1 in spans.records:
            f.write(json.dumps({"job": job, "program": programs.get(job), "name": name,
                                "parent": parent, "start": t0, "end": t1}) + "\n")


def bench(args: argparse.Namespace, root: Path) -> dict:
    workdir = root / ".perfbench_tmp" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Scratch files of this process and its children stay in the checkout,
    # and no run bundle may land in the user's ledger.
    os.environ["TMPDIR"] = str(workdir)
    os.environ["DDPROF_LEDGER"] = str(workdir / "default-ledger")
    try:
        setup = measure_setup(args.workload, args.seed, workdir)
        from jobs import WORKLOADS, dependence_rates

        w = WORKLOADS[args.workload](args.seed, workdir / "main")
        w.setup()
        w.prepare()
        records, spans = run_timed(w, args.seconds, bool(args.trace))
        if args.trace:
            metrics = per_layer_metrics(records, spans, setup)
            units = PER_LAYER
            write_spans(
                root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl",
                records, spans,
            )
        else:
            metrics = end_to_end_metrics(records, setup)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    n = len(records)
    failed = sum(not r.ok for r in records)
    walls = [r.wall_s for r in records]
    for line in program_rows(records):
        print(line)
    for prog, err in sorted(w.oracle_errors.items()):
        print(f"oracle for {prog} failed: {err}")
    q = tail_percentile(n)
    tail = f"p{q}={_quantile(walls, q):.4f}s" if q is not None else "none"
    fpr, fnr = dependence_rates(records)
    print(f"jobs={n} failed={failed} fail_rate={failed / n:.4f} dep_fpr={fpr:.6f} "
          f"dep_fnr={fnr:.6f} tail(>= {TAIL_SAMPLES} beyond)={tail}")
    times = job_times(records, lambda r: r.wall_s)
    cal = [r.calibration_s for r in records if r.calibration_s]
    print(f"host: calibration median={statistics.median(cal) if cal else 0.0:.5f}s"
          f" (reference {REF_CALIBRATION_S}s); unscaled "
          f"events_per_s={sum(r.events for r in records) / sum(walls):.6g} "
          f"job_p50_s={hd_quantile(times, 0.5):.5f} job_p90_s={hd_quantile(times, 0.9):.5f} "
          f"setup_s={statistics.median(s['import_s'] + s['inputs_s'] for s in setup):.5f}")
    for name, value in metrics.items():
        print(f"{name:<30} {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["seq-suite", "par-delayed",
                                                         "amp-stream"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--probe-setup", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    root = Path.cwd()
    if args.probe_setup is not None:
        probe_setup(args.workload, args.seed, args.probe_setup)
        return 0
    _use_sources(root)
    result = bench(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
