"""Every numeric backend and pruning mode walks the oracle's trajectory.

APro stops as soon as the best set's expected correctness reaches the
threshold (paper §5), so a backend or pruning mode whose certainty
drifts can stop a probe early or late and return another set. Each cell
here runs one configuration over a fixed query set and holds every run
to the oracle, unpruned ``APro(selector, backend="python")``, with
:func:`assert_agrees`:

* paper testbed, t = 0.8, k ∈ {1, 3}: numpy unpruned, numpy exact and
  python exact (k = 3 is where the batched answer-set search runs);
* tiny testbed, k = 2, t = 0.9: the serving layer on each backend at
  batch 2, and ``APro(prune=True)`` on each backend.
"""

from __future__ import annotations

import pytest

from repro.core.probing import APro
from repro.experiments.harness import train_pipeline
from repro.experiments.setup import PaperSetupConfig, build_paper_context
from repro.service.server import ServedAnswer
from tests.test_service_backend import make_service

PAPER = PaperSetupConfig(scale=0.06, seed=2004, n_train=120, n_test=20)


def _walk(run, served: bool):
    """A run's probes and its ``(answer set, certainty)`` points.

    A served answer keeps its probe order by database name and only its
    final point; *served* reads an APro session the same way.
    """
    if isinstance(run, ServedAnswer):
        return list(run.probe_order), [(run.selected, run.certainty)]
    if served:
        return [record.database for record in run.records], [
            (run.final.names, run.final.expected_correctness)
        ]
    return [(record.index, record.observed) for record in run.records], [
        (point.names, point.expected_correctness) for point in run.trajectory
    ]


def assert_agrees(runs, oracles) -> None:
    """Each run walked its oracle session's trajectory: identical probe
    records ``(index, observed)``, identical answer sets at every
    trajectory point, certainties within 1e-9 at every point (a served
    answer is held to the parts it keeps, see :func:`_walk`)."""
    assert len(runs) == len(oracles)
    mismatched = []
    for position, (run, oracle) in enumerate(zip(runs, oracles)):
        served = isinstance(run, ServedAnswer)
        probes, points = _walk(run, served)
        oracle_probes, oracle_points = _walk(oracle, served)
        if (
            probes != oracle_probes
            or [names for names, _ in points]
            != [names for names, _ in oracle_points]
            or any(
                abs(certainty - expected) > 1e-9
                for (_, certainty), (_, expected) in zip(points, oracle_points)
            )
        ):
            mismatched.append(position)
    assert not mismatched, (
        f"{len(mismatched)} of {len(runs)} runs left the oracle's "
        f"trajectory (positions {mismatched})"
    )


@pytest.fixture(scope="module")
def paper():
    """The paper testbed's selector, test queries and oracle runs by k."""
    context = build_paper_context(PAPER)
    selector = train_pipeline(context).rd_selector
    queries = context.test_queries
    oracle = APro(selector, backend="python")
    runs = {
        k: [oracle.run(query, k=k, threshold=0.8) for query in queries]
        for k in (1, 3)
    }
    return selector, queries, runs


@pytest.mark.parametrize("k", [1, 3], ids=["k1", "k3"])
@pytest.mark.parametrize(
    "backend,prune",
    [("numpy", False), ("numpy", True), ("python", True)],
    ids=["numpy-unpruned", "numpy-exact", "python-exact"],
)
def test_paper_testbed(paper, backend, prune, k):
    selector, queries, oracle_runs = paper
    apro = APro(selector, backend=backend, prune=prune)
    runs = [apro.run(query, k=k, threshold=0.8) for query in queries]
    assert_agrees(runs, oracle_runs[k])


@pytest.mark.parametrize("backend", ["numpy", "python"])
def test_service_path(trained_metasearcher, health_queries, backend):
    queries = health_queries[50:56]
    config = trained_metasearcher.config
    oracle = APro(trained_metasearcher.selector, backend="python")
    oracle_runs = [
        oracle.run(
            query,
            k=2,
            threshold=0.9,
            metric=config.metric,
            max_probes=config.max_probes,
            batch_size=2,
        )
        for query in queries
    ]
    with make_service(
        trained_metasearcher, backend=backend, cache_enabled=False
    ) as service:
        answers = [
            service.serve(query, k=2, certainty=0.9) for query in queries
        ]
    assert_agrees(answers, oracle_runs)


@pytest.mark.parametrize("backend", ["numpy", "python"])
def test_pruned_apro(trained_pipeline, backend):
    selector = trained_pipeline["selector"]
    queries = trained_pipeline["test_queries"][:4]
    oracle = APro(selector, backend="python")
    apro = APro(selector, backend=backend, prune=True)
    assert_agrees(
        [apro.run(query, k=2, threshold=0.9) for query in queries],
        [oracle.run(query, k=2, threshold=0.9) for query in queries],
    )
