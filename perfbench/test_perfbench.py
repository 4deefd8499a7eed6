"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
from repro.core.deps import DependenceStore  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _prepared(cls, programs, tmp_path, seed=1):
    w = cls(seed, tmp_path, programs=programs)
    w.setup()
    w.prepare()
    return w


@pytest.mark.parametrize(
    "cls, programs",
    [(jobs.SeqSuite, ["lu", "md5"]), (jobs.ParDelayed, ["md5", "water-spatial"])],
)
def test_same_seed_same_trace_digests_and_oracles(cls, programs, tmp_path):
    a = _prepared(cls, programs, tmp_path / "a")
    b = _prepared(cls, programs, tmp_path / "b")
    assert not a.oracle_errors
    for prog in programs:
        assert a.oracles[prog].digest == b.oracles[prog].digest
        assert a.oracles[prog].store == b.oracles[prog].store
    # The timed jobs see the very trace the oracle was computed on.
    rec = a.run_job(0, programs[0], 0, jobs.Spans())
    assert rec.digest == a.oracles[programs[0]].digest


def test_store_missing_one_dependence_is_a_failed_job(tmp_path):
    w = _prepared(jobs.SeqSuite, ["lu"], tmp_path)
    rec = w.run_job(0, "lu", 0, jobs.Spans())
    assert w.check(rec)
    items = list(rec.store.items())
    short = DependenceStore()
    for dep, count in items[1:]:
        short.add_merged(dep, count)
    rec.store = short
    assert not w.check(rec)
    fpr, fnr = jobs.dependence_rates([rec])
    assert fpr == 0.0 and fnr == pytest.approx(1 / len(items))


def test_raising_job_is_counted_against_its_layer(tmp_path, monkeypatch):
    w = _prepared(jobs.SeqSuite, ["lu"], tmp_path)

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(jobs, "profile_trace", broken)
    rec = w.run_job(0, "lu", 0, jobs.Spans())
    assert rec.error_layer == "core" and "injected" in rec.error
    assert not w.check(rec)


def test_layer_times_add_up_to_job_wall(tmp_path):
    w = _prepared(jobs.SeqSuite, ["lu", "md5"], tmp_path)
    records, spans = run.run_timed(w, 0.0, trace=True)
    assert all(r.calibration_s > 0 for r in records)  # seq-suite is host-scaled
    assert {r.traced for r in records} == {True, False}
    setup = [{"import_s": 0.5, "inputs_s": 0.01}]
    m = run.per_layer_metrics(records, spans, setup)
    parts = [
        "minivm.self_s", "core.self_s", "parallel.self_s", "parallel.push_s",
        "parallel.drain_s", "parallel.merge_s", "analyses.self_s",
        "obs.report_s", "obs.ledger_s", "unattributed_s",
    ]
    assert sum(m[p] for p in parts) == pytest.approx(m["job.wall_s"])
    assert 0 <= m["unattributed_s"] < 0.05 * m["job.wall_s"]
    assert m["trace_overhead"] > 0
    assert set(m) == set(run.PER_LAYER)


def test_metric_names_and_benchmark_json_agree():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    for name in [*e2e, *layer, *(wl["name"] for wl in doc["workloads"])]:
        assert NAME.fullmatch(name), name
    # par-delayed fails its check until one-shot profiling matches the
    # reference on delayed-push traces, so it is not a benchmark workload.
    assert {wl["name"] for wl in doc["workloads"]} == set(jobs.WORKLOADS) - {"par-delayed"}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(100) == 90
    for n in range(11, 300):
        q = run.tail_percentile(n)
        assert n * (100 - q) / 100 >= run.TAIL_SAMPLES


def test_scaled_times_ignore_host_speed():
    JOBS = [("a", 0.1, 0.005), ("b", 0.3, 0.006), ("a", 0.12, 0.006), ("b", 0.28, 0.005)]

    def run_on(host_slowdown):
        records = []
        for i, (prog, wall, cal) in enumerate(JOBS):
            r = jobs.JobRecord(job=i, program=prog, traced=False, pass_idx=i // 2,
                               wall_s=wall * host_slowdown,
                               calibration_s=cal * host_slowdown, events=1000, ok=True)
            r.counters["peak_rss_bytes"] = 50 * run.MB
            records.append(r)
        setup = [{"import_s": 0.4 * host_slowdown, "inputs_s": 0.1 * host_slowdown,
                  "calibration_s": 0.025 * host_slowdown}]
        return run.end_to_end_metrics(records, setup)

    fast, slow = run_on(1.0), run_on(1.4)
    assert set(fast) == set(run.END_TO_END)
    for name in fast:
        assert slow[name] == pytest.approx(fast[name]), name
    assert fast["setup_s"] == pytest.approx(0.5 * run.REF_CALIBRATION_S / 0.025)
    assert fast["events_per_s"] == pytest.approx(
        4000 / sum(wall * run.REF_CALIBRATION_S / cal for _, wall, cal in JOBS)
    )
    # amp-stream's jobs run in worker processes and are not calibrated.
    assert not jobs.AmpStream.host_scaled
    assert run.scaled_wall(jobs.JobRecord(0, "amp-cg", False, 0, wall_s=2.0)) == 2.0
