"""``ddprof bench`` — the compare gate and report renderer as the CI uses them."""

import json

import pytest

from repro.cli import BENCH_SUITES, FAST_SUITES, main
from repro.obs import BenchRecorder


def write_suite(path, suite, values, **record_kwargs):
    r = BenchRecorder(suite, environment={"git_sha": "cafe" * 10})
    for bench_id, v in values.items():
        r.record(bench_id, v, **record_kwargs)
    return r.write(path / f"BENCH_{suite}.json")


@pytest.fixture()
def dirs(tmp_path):
    base = tmp_path / "base"
    cur = tmp_path / "cur"
    base.mkdir()
    cur.mkdir()
    return base, cur


class TestSuiteMap:
    def test_every_benchmark_module_has_a_suite(self):
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
        modules = {p.name for p in bench_dir.glob("test_*.py")}
        mapped = {m for files in BENCH_SUITES.values() for m in files}
        assert modules == mapped  # no orphan module, no stale entry
        assert sum(len(v) for v in BENCH_SUITES.values()) == len(mapped)
        assert set(FAST_SUITES) <= set(BENCH_SUITES)


class TestBenchCompare:
    def test_neutral_pair_exits_zero(self, dirs, capsys):
        base, cur = dirs
        write_suite(base, "s", {"m": 100.0})
        write_suite(cur, "s", {"m": 101.0})
        assert main(["bench", "compare", str(base), str(cur)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "neutral" in out

    def test_regression_exits_one(self, dirs, capsys):
        base, cur = dirs
        write_suite(base, "s", {"m": 100.0})
        write_suite(cur, "s", {"m": 300.0})  # the injected 3x slowdown
        assert main(["bench", "compare", str(base), str(cur)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_improvement_and_threshold_flag(self, dirs, capsys):
        base, cur = dirs
        write_suite(base, "s", {"m": 300.0})
        write_suite(cur, "s", {"m": 100.0})
        assert main(["bench", "compare", str(base), str(cur)]) == 0
        assert "improved" in capsys.readouterr().out
        # A huge explicit threshold makes the same pair neutral.
        assert main(
            ["bench", "compare", str(base), str(cur), "--threshold", "5.0"]
        ) == 0
        assert "neutral" in capsys.readouterr().out

    def test_new_suite_without_baseline_is_all_added(self, dirs, capsys):
        base, cur = dirs
        write_suite(cur, "fresh", {"m": 1.0})
        assert main(["bench", "compare", str(base), str(cur)]) == 0
        assert "added" in capsys.readouterr().out

    def test_suite_in_baseline_only(self, dirs, capsys):
        base, cur = dirs
        write_suite(base, "gone", {"m": 1.0})
        assert main(["bench", "compare", str(base), str(cur)]) == 0
        assert "skipped" in capsys.readouterr().out
        write_suite(base, "gone", {"m": 1.0})
        assert main(["bench", "compare", str(base), str(cur), "--strict"]) == 1

    def test_json_output(self, dirs, capsys):
        base, cur = dirs
        write_suite(base, "s", {"m": 100.0})
        write_suite(cur, "s", {"m": 300.0})
        assert main(["bench", "compare", str(base), str(cur), "--json"]) == 1
        docs = json.loads(capsys.readouterr().out)
        assert docs[0]["suite"] == "s" and docs[0]["ok"] is False
        assert docs[0]["results"][0]["status"] == "regressed"

    def test_single_file_arguments(self, dirs, capsys):
        base, cur = dirs
        pb = write_suite(base, "s", {"m": 1.0})
        pc = write_suite(cur, "s", {"m": 1.0})
        assert main(["bench", "compare", str(pb), str(pc)]) == 0

    def test_schema_mismatch_is_loud(self, dirs, capsys):
        base, cur = dirs
        (base / "BENCH_s.json").write_text(json.dumps({"schema": "nope"}))
        write_suite(cur, "s", {"m": 1.0})
        assert main(["bench", "compare", str(base), str(cur)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ddprof: error: ") and "regenerate" in err


class TestBenchReport:
    def test_renders_table(self, dirs, capsys):
        base, _ = dirs
        write_suite(base, "s", {"m": 2.5}, unit="x", direction="higher")
        assert main(["bench", "report", str(base)]) == 0
        out = capsys.readouterr().out
        assert "BENCH [s]" in out and "cafecafecafe" in out and "higher" in out

    def test_json_mode(self, dirs, capsys):
        base, _ = dirs
        write_suite(base, "s", {"m": 2.5})
        assert main(["bench", "report", str(base), "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert docs[0]["benchmarks"]["m"]["value"] == 2.5


class TestBenchRun:
    def test_unknown_suite_rejected(self, capsys):
        assert main(["bench", "run", "--suite", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_missing_benchmarks_dir(self, tmp_path, capsys):
        rc = main(
            ["bench", "run", "--benchmarks-dir", str(tmp_path / "nope")]
        )
        assert rc == 2
        assert "not found" in capsys.readouterr().err
