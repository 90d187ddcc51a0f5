"""bench-core/v3: report schema, the backend-vs-oracle gate and the
paired python/numpy ratio gate."""

from __future__ import annotations

import copy
import json

import pytest

from repro.exceptions import ReproError
from repro.experiments.bench_core import (
    BENCH_CORE_SCHEMA,
    BenchCoreConfig,
    check_bench_core,
    read_bench_core,
    run_bench_core,
    validate_bench_core,
)


@pytest.fixture(scope="module")
def report():
    return run_bench_core(
        BenchCoreConfig(
            scale=0.03, n_train=40, n_test=10, repeats=2, apro_queries=2
        )
    )


def test_report_is_valid_v3(report):
    validate_bench_core(report)
    assert report["schema"] == "bench-core/v3"
    for name in ("usefulness_sweep", "apro_run"):
        entry = report["scenarios"][name]
        assert entry["repeat_order"] == ["python", "numpy"]
        assert entry["speedup_median"] > 0
    assert report["agreement"]["backend_matches_python"] is True
    assert check_bench_core(report, None) == ([], [])


def test_agreement_failure_gates_everywhere(report):
    broken = copy.deepcopy(report)
    broken["agreement"]["backend_matches_python"] = False
    failures, _warnings = check_bench_core(broken, None)
    assert failures == ["agreement flag backend_matches_python is false"]


def test_ratio_drop_gates_only_on_matching_config(report):
    slower = copy.deepcopy(report)
    entry = slower["scenarios"]["apro_run"]
    entry["speedup_median"] = entry["speedup_median"] / 2.0
    failures, _warnings = check_bench_core(slower, report)
    assert [f for f in failures if "apro_run/speedup_median" in f]
    other_config = copy.deepcopy(report)
    other_config["config"]["scale"] = 0.5
    failures, warnings = check_bench_core(slower, other_config)
    assert not [f for f in failures if "speedup_median" in f]
    assert [w for w in warnings if "apro_run/speedup_median" in w]


def test_reader_accepts_only_v3(tmp_path, report):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(report))
    assert read_bench_core(str(path))["schema"] == BENCH_CORE_SCHEMA
    path.write_text(json.dumps({**report, "schema": "bench-core/v2"}))
    with pytest.raises(ReproError, match="unsupported schema"):
        read_bench_core(str(path))
