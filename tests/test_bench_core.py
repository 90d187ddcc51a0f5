"""bench-core: the bench/v1 report, the backend-vs-oracle gate and the
paired python/numpy ratio gate."""

from __future__ import annotations

import copy
import json

import pytest

from repro import bench
from repro.exceptions import ReproError
from repro.experiments.bench_core import (
    FAMILY,
    BenchCoreConfig,
    core_gates,
    run_bench_core,
)


def failed(gates):
    return [entry["name"] for entry in gates if entry["meets_target"] is False]


def verdict(gates, name):
    return next(e["meets_target"] for e in gates if e["name"] == name)


@pytest.fixture(scope="module")
def report():
    return run_bench_core(
        BenchCoreConfig(
            scale=0.03, n_train=40, n_test=10, repeats=2, apro_queries=2
        )
    )


def test_report_is_bench_v1(report):
    assert report["schema"] == "bench/v1"
    assert report["family"] == FAMILY
    for name in ("usefulness_sweep", "apro_run"):
        entry = report["results"]["scenarios"][name]
        assert entry["repeat_order"] == ["python", "numpy"]
        assert entry["speedup"] > 0
    assert report["results"]["agreement"]["backend_matches_python"] is True
    # Without a reference only the agreement gate is judged.
    assert failed(report["gates"]) == []
    assert verdict(report["gates"], "backend_matches_python") is True
    assert verdict(report["gates"], "apro_run.speedup") is None


def test_agreement_failure_gates_everywhere(report):
    broken = copy.deepcopy(report["results"])
    broken["agreement"]["backend_matches_python"] = False
    gates = core_gates(broken, report["config"])
    assert failed(gates) == ["backend_matches_python"]


def test_ratio_drop_gates_only_on_matching_config(report):
    slower = copy.deepcopy(report["results"])
    entry = slower["scenarios"]["apro_run"]
    entry["speedup"] = entry["speedup"] / 2.0
    gates = core_gates(slower, report["config"], report)
    assert "apro_run.speedup" in failed(gates)
    other_config = copy.deepcopy(report)
    other_config["config"]["scale"] = 0.5
    gates = core_gates(slower, report["config"], other_config)
    assert "apro_run.speedup" not in failed(gates)
    assert verdict(gates, "apro_run.speedup") is None


def test_reader_accepts_only_bench_v1_core_reports(tmp_path, report):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(report))
    assert bench.read(str(path), FAMILY)["family"] == FAMILY
    path.write_text(json.dumps({**report, "schema": "bench-core/v3"}))
    with pytest.raises(ReproError, match="unsupported schema"):
        bench.read(str(path), FAMILY)
