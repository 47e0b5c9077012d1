"""The quick-bench smoke harness (the CI perf-visibility artifact)."""

import json

from repro.bench import quick_bench
from repro.bench.quick_bench import EXCLUDED, demo_subset, main, run_quick_bench


class TestDemoSubset:
    def test_demo_subset_is_85_problems(self):
        subset = demo_subset()
        assert len(subset) == 85
        names = {b.name for b in subset}
        assert names.isdisjoint(EXCLUDED)


class TestRunQuickBench:
    def test_records_and_summary(self, monkeypatch):
        from repro.bench.suite import full_suite

        small = [b for b in full_suite() if b.name.startswith("count-up")][:2]
        monkeypatch.setattr(quick_bench, "demo_subset", lambda: small)
        result = run_quick_bench("dryadsynth", timeout=10.0)
        assert len(result["records"]) == 2
        for record in result["records"]:
            assert record["solved"] is True
            assert record["smt_rounds"] >= 0
            assert "assumption_core_skips" in record
        summary = result["summary"]
        assert summary["solved"] == 2
        assert summary["stats"]["smt_rounds"] == sum(
            r["smt_rounds"] for r in result["records"]
        )

    def test_main_writes_artifacts(self, monkeypatch, tmp_path):
        from repro.bench.suite import full_suite

        small = [b for b in full_suite() if b.name.startswith("count-up")][:1]
        monkeypatch.setattr(quick_bench, "demo_subset", lambda: small)
        out = tmp_path / "artifacts"
        assert main(["--timeout", "10", "--out", str(out)]) == 0
        lines = (out / "quick_bench.jsonl").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["solver"] == "dryadsynth"
        summary = json.loads((out / "quick_bench_summary.json").read_text())
        assert summary["problems"] == 1


class _RaisingSolver:
    def synthesize(self, problem):
        raise ValueError("interpreted function expansion did not converge")


class TestErrorsAreNotTimeouts:
    def test_exception_recorded_as_error(self, monkeypatch, tmp_path):
        from repro.bench.history import (
            compare,
            record_from_quick_bench,
            result_from_artifacts,
        )
        from repro.bench.suite import full_suite

        small = [b for b in full_suite() if b.name.startswith("count-up")][:1]
        monkeypatch.setattr(quick_bench, "demo_subset", lambda: small)
        monkeypatch.setattr(
            quick_bench, "make_solver", lambda name, timeout: _RaisingSolver()
        )
        out = tmp_path / "artifacts"
        assert main(["--timeout", "10", "--out", str(out)]) == 0
        (record,) = [
            json.loads(line)
            for line in (out / "quick_bench.jsonl").read_text().splitlines()
        ]
        assert record["solved"] is False
        assert record["timed_out"] is False
        assert record["error"] == (
            "ValueError: interpreted function expansion did not converge"
        )
        # The bench-compare readers accept records carrying the field.
        history_record = record_from_quick_bench(result_from_artifacts(str(out)))
        assert history_record["per_problem"][small[0].name]["solved"] is False
        assert compare(history_record, [history_record]).ok
