"""repro.bench: gate verdicts, the bench/v1 envelope, finish() and the
bench-index failure cases."""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.cli import main
from repro.exceptions import ConfigurationError, ReproError
from repro.experiments.bench_index import build_bench_index


class TestGate:
    def test_judged_true_and_false(self):
        assert bench.gate("a", 3, 2, ">=")["meets_target"] is True
        assert bench.gate("b", 1, 2, ">=")["meets_target"] is False
        assert bench.gate("c", True, True, "==")["meets_target"] is True
        assert bench.gate("d", 0.5, 0.5, "<")["meets_target"] is False

    def test_missing_value_fails(self):
        assert bench.gate("x", None, 0, "==")["meets_target"] is False
        assert bench.gate("y", None, 1, ">=")["meets_target"] is False

    def test_unknown_operator_rejected(self):
        with pytest.raises(ConfigurationError):
            bench.gate("x", 1, 1, "=~")

    def test_fields(self):
        assert set(bench.gate("x", 1, 1, "==")) == {
            "name",
            "value",
            "op",
            "target",
            "meets_target",
        }


class TestMeasurement:
    def test_nearest_rank_percentile(self):
        ordered = [float(i) for i in range(1, 101)]
        assert bench.percentile(ordered, 50) == 50.0
        assert bench.percentile(ordered, 95) == 95.0
        assert bench.percentile([7.0], 99) == 7.0

    def test_latency_summary(self):
        summary = bench.latency_summary([3.0, 1.0, 2.0])
        assert summary == {
            "samples": 3,
            "p50_ms": 2.0,
            "p95_ms": 3.0,
            "p99_ms": 3.0,
            "max_ms": 3.0,
        }
        assert bench.latency_summary([]) == {"samples": 0}

    def test_interleaved_timer_and_paired_ratio(self):
        order = []
        samples = bench.time_interleaved(
            {"a": lambda: order.append("a"), "b": lambda: order.append("b")},
            3,
        )
        assert order == ["a", "b"] * 3
        assert [len(samples[name]) for name in ("a", "b")] == [3, 3]
        assert bench.paired_ratio([4.0, 9.0, 2.0], [2.0, 3.0, 2.0]) == 2.0


class TestEnvelope:
    def test_report_keys(self):
        gates = [bench.gate("x", 1, 1, "==")]
        document = bench.report("bench-demo", {"k": 1}, {"v": 2}, gates)
        assert list(document) == [
            "schema",
            "family",
            "environment",
            "config",
            "results",
            "gates",
        ]
        assert document["schema"] == "bench/v1"
        assert document["family"] == "bench-demo"
        assert {"cpu_count", "host_fingerprint", "python", "numpy"} <= set(
            document["environment"]
        )

    def test_environment_records_resolved_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREFILTER", "exact")
        monkeypatch.setenv("REPRO_TRACE", "yes")
        knobs = bench.environment()["knobs"]
        assert set(knobs) == {
            "REPRO_BACKEND",
            "REPRO_POOL_WORKERS",
            "REPRO_ADAPT",
            "REPRO_TRACE",
            "REPRO_CACHE_TIER",
            "REPRO_PREFILTER",
            "REPRO_CLUSTER_REPLICAS",
        }
        assert knobs["REPRO_PREFILTER"] == "exact"
        # A malformed knob fails only the config that reads it, never
        # the report.
        assert knobs["REPRO_TRACE"] == (
            "invalid: REPRO_TRACE must be an integer or 'stderr', got 'yes'"
        )

    def test_finish_writes_and_exits_3_on_false_gate(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        good = bench.report(
            "bench-demo", {}, {}, [bench.gate("x", 1, 1, "==")]
        )
        assert bench.finish(good, str(path)) == 0
        assert bench.read(str(path), "bench-demo") == good
        bad = bench.report(
            "bench-demo",
            {},
            {},
            [bench.gate("x", 1, 1, "=="), bench.gate("y", 0, 1, ">=")],
        )
        assert bench.finish(bad) == bench.GATE_FAILED == 3
        captured = capsys.readouterr()
        assert "gates: 1 passed, 1 failed\n" in captured.out
        assert "gate y failed" in captured.err

    def test_read_rejects_other_schemas_and_families(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"schema": "bench-scale/v0"}))
        with pytest.raises(ReproError, match="unsupported schema"):
            bench.read(str(path))
        path.write_text(
            json.dumps(bench.report("bench-scale", {}, {}, []))
        )
        with pytest.raises(ReproError, match="bench-scale"):
            bench.read(str(path), "bench-drift")


def write_report(directory, name, gates, cores=None):
    document = bench.report("bench-demo", {}, {}, gates)
    if cores is not None:
        document["environment"]["cpu_count"] = cores
    (directory / f"BENCH_{name}.json").write_text(json.dumps(document))


class TestBenchIndex:
    def failures(self, directory):
        gates = build_bench_index(str(directory))["gates"]
        return sorted(
            entry["name"] for entry in gates if entry["meets_target"] is False
        )

    def test_passes_on_judged_reports(self, tmp_path):
        write_report(tmp_path, "a", [bench.gate("ok", 1, 1, "==")])
        write_report(
            tmp_path,
            "b",
            [bench.gate("ok", 1, 1, "=="), bench.gate("up", 3, 2, ">=")],
            1,
        )
        assert self.failures(tmp_path) == []
        assert main(["bench-index", "--dir", str(tmp_path)]) == 0

    def test_false_gate_fails(self, tmp_path, capsys):
        write_report(tmp_path, "a", [bench.gate("bad", 0, 1, "==")])
        assert self.failures(tmp_path) == ["BENCH_a.json.false_gates"]
        assert main(["bench-index", "--dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "gate BENCH_a.json.false_gates failed" in err

    def test_non_bench_v1_fails(self, tmp_path):
        (tmp_path / "BENCH_old.json").write_text(
            json.dumps(
                {"schema_version": 1, "derived": {"meets_target": True}}
            )
        )
        assert self.failures(tmp_path) == ["BENCH_old.json.bench_v1"]
        assert main(["bench-index", "--dir", str(tmp_path)]) == 3

    def test_report_without_gates_fails(self, tmp_path):
        write_report(tmp_path, "a", [])
        assert self.failures(tmp_path) == ["BENCH_a.json.gates"]

    def test_null_verdict_fails(self, tmp_path, capsys):
        # A null left by an older writer (a gate its host did not
        # judge) is not evidence: it fails the index like a false.
        unjudged = dict(bench.gate("scaling", 1.0, 2.0, ">="))
        unjudged.update(min_cores=4, meets_target=None)
        write_report(
            tmp_path, "a", [bench.gate("ok", 1, 1, "=="), unjudged], 2
        )
        assert self.failures(tmp_path) == ["BENCH_a.json.false_gates"]
        assert main(["bench-index", "--dir", str(tmp_path)]) == 3
        assert "failed: scaling" in capsys.readouterr().out

    def test_empty_directory_fails(self, tmp_path):
        assert self.failures(tmp_path) == ["reports"]
