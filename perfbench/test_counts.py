"""Deterministic-count guard for the benchmark.

Two small traced runs of one seed must report exactly the same work
counts: these are the numbers a 1-core host can judge, so a change that
makes them drift (or stops a layer from being measured) fails here.

Run from the repository root: ``python -m pytest perfbench/test_counts.py``
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

END_TO_END_COUNTS = ("probes_per_query", "correct_share")
LAYER_COUNTS = (
    "core.rd_build.rds",
    "core.rd_build.atoms",
    "core.prune.survivors",
    "core.best_set.calls",
)


@pytest.mark.parametrize("workload", ["paper-k3", "federation-k1"])
def test_counts_repeat_exactly(workload):
    first, second = (
        run.WORKLOADS[workload](seed=7, seconds=60.0, trace=True, size=6)
        for _ in range(2)
    )
    assert first.problems == [] and second.problems == []
    assert first.attempted == second.attempted == 6
    for name in END_TO_END_COUNTS:
        assert first.end_to_end[name] == second.end_to_end[name], name
    for name in LAYER_COUNTS:
        assert first.per_layer[name] == second.per_layer[name], name
    # Every layer the workload runs reports work (so a layer that
    # silently stops being measured shows as a zero), and the designed
    # profile holds.
    for claim, held in run.profile_checks(workload, first.per_layer):
        assert held, claim
