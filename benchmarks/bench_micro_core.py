"""Micro-benchmarks of the core operations (true timing loops).

These are the per-query costs a deployment cares about: conjunctive
match counting inside a database, RD construction, expected-correctness
computation, full RD-based selection, and one APro run — plus, at
federated scale, the exact-pruning certificate, the RD build and the
survivors' ``TopKComputer`` build, and at k = 3 the greedy round of a
query whose every database is uncertain. ``test_probe_round_one`` times
the serving layer's probe round at the paper's one probe per round
(``ProbeExecutor.probe_batch``).
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.policies import GreedyUsefulnessPolicy
from repro.core.probing import APro
from repro.core.pruning import prunable_mask
from repro.core.topk import CorrectnessMetric, TopKComputer
from repro.corpus.generator import DocumentGenerator
from repro.corpus.topics import default_topic_registry
from repro.corpus.zipf import ZipfVocabulary
from repro.experiments.bench_scale import scale_specs
from repro.hiddenweb.mediator import Mediator
from repro.metasearch.metasearcher import Metasearcher, MetasearcherConfig
from repro.service.executor import ProbeExecutor
from repro.text.analyzer import Analyzer
from repro.types import Query


@pytest.fixture(scope="module")
def sample_query(paper_context):
    return paper_context.test_queries[0]


def test_engine_match_count(benchmark, paper_context, sample_query):
    database = paper_context.mediator["PubMedCentral"]
    benchmark(database.index.match_count, sample_query)


def test_build_rds(benchmark, paper_pipeline, sample_query):
    benchmark(paper_pipeline.rd_selector.build_rds, sample_query)


def test_probe_round_one(benchmark, paper_context, sample_query):
    """One one-probe round through ``ProbeExecutor``, at serving defaults.

    The probe runs on the calling thread. A tight loop keeps a pool
    thread hot, so a round handed to the pool would show only part of
    the hand-off it costs under a real request's cold pool.
    """
    with ProbeExecutor(paper_context.mediator) as executor:
        benchmark(executor.probe_batch, sample_query, [0])


@pytest.fixture(scope="module")
def federation():
    """A trained 1024-database federation and one topical query.

    ``bench_scale.scale_specs`` databases, exact pruning, trained on 60
    three-anchor topical queries with 8 samples per type — the shape of
    the benchmark's federation workload.
    """
    seed = 2004
    registry = default_topic_registry(seed=seed)
    analyzer = Analyzer()
    generator = DocumentGenerator(registry, ZipfVocabulary(1500, seed=seed + 1))
    mediator = Mediator.from_documents(
        {
            spec.name: generator.generate(spec)
            for spec in scale_specs(1024, registry, seed)
        },
        analyzer=analyzer,
    )
    rng = np.random.default_rng(seed + 11)
    names = registry.names()

    def topical() -> Query:
        topic = registry[names[int(rng.integers(len(names)))]]
        picked = rng.choice(
            topic.anchors, size=min(3, len(topic.anchors)), replace=False
        )
        return Query(
            tuple(
                dict.fromkeys(
                    term for word in picked for term in analyzer.analyze(word)
                )
            )
        )

    searcher = Metasearcher(
        mediator,
        MetasearcherConfig(samples_per_type=8, prune_mode="exact"),
        analyzer=analyzer,
    )
    searcher.train([topical() for _ in range(60)])
    return searcher, topical()


def test_build_rds_federation(benchmark, federation):
    """One query's RDs over 1024 databases (about 50 candidates)."""
    searcher, query = federation
    benchmark(searcher.selector.build_rds, query)


def test_restricted_computer_federation(benchmark, federation):
    """The ``TopKComputer`` APro builds over the bound-pruned survivors."""
    searcher, query = federation
    selector = searcher.selector
    apro = APro(selector, prune=True)
    rds = selector.build_rds(query)
    survivors, _bounds = apro._survivor_map(rds, 1, selector.nonzero(query))
    benchmark(apro._restricted_computer, rds, survivors, 1)


def test_prunable_mask_federation(benchmark):
    """The pruning certificate at federation shape: 1024 databases,
    ~967 of them certain-zero impulses tied at ``(0, 0)``, k=1."""
    rng = np.random.default_rng(7)
    mins = np.zeros(1024)
    maxs = np.zeros(1024)
    informative = rng.choice(1024, size=57, replace=False)
    mins[informative] = rng.integers(0, 20, 57)
    maxs[informative] = mins[informative] + rng.integers(1, 40, 57)
    benchmark(prunable_mask, mins, maxs, 1)


def test_topk_best_set_k1(benchmark, paper_pipeline, sample_query):
    rds = paper_pipeline.rd_selector.build_rds(sample_query)
    computer = TopKComputer(rds, 1)
    benchmark(computer.best_set, CorrectnessMetric.ABSOLUTE)


def test_topk_best_set_k3(benchmark, paper_pipeline, sample_query):
    rds = paper_pipeline.rd_selector.build_rds(sample_query)
    computer = TopKComputer(rds, 3)
    benchmark(computer.best_set, CorrectnessMetric.ABSOLUTE)


def test_topk_marginals(benchmark, paper_pipeline, sample_query):
    rds = paper_pipeline.rd_selector.build_rds(sample_query)
    computer = TopKComputer(rds, 3)
    benchmark(computer.marginals)


def test_rd_selection_k1(benchmark, paper_pipeline, sample_query):
    benchmark(
        paper_pipeline.rd_selector.select,
        sample_query,
        1,
        CorrectnessMetric.ABSOLUTE,
    )


def test_apro_run_k1_t80(benchmark, paper_context, paper_pipeline):
    apro = APro(paper_pipeline.rd_selector)
    query = paper_context.test_queries[1]

    def run():
        return apro.run(query, k=1, threshold=0.8)

    benchmark(run)


def test_usefulness_sweep_k1(benchmark, paper_pipeline, sample_query):
    """One greedy policy round: usefulness of every candidate database.

    A fresh computer per call, as APro pays for the first round of a
    query; later rounds run on a collapsed computer that reuses its
    parent's tables (``test_greedy_round_after_collapse_k1``).
    """
    rds = paper_pipeline.rd_selector.build_rds(sample_query)
    policy = GreedyUsefulnessPolicy()

    def sweep():
        computer = TopKComputer(rds, 1)
        for database in range(len(rds)):
            policy.usefulness(
                computer, database, CorrectnessMetric.ABSOLUTE
            )

    benchmark(sweep)


def test_usefulness_sweep_k3(benchmark, paper_pipeline, sample_query):
    """One greedy round at k = 3: absolute usefulness of every database.

    This times the batched exact answer-set search that the sweep's
    first ``best_set`` miss runs for every hypothetical probe. A fresh
    computer per call, as APro pays for the first round of a query.
    """
    rds = paper_pipeline.rd_selector.build_rds(sample_query)
    policy = GreedyUsefulnessPolicy()

    def sweep():
        computer = TopKComputer(rds, 3)
        for database in range(len(rds)):
            policy.usefulness(
                computer, database, CorrectnessMetric.ABSOLUTE
            )

    benchmark(sweep)


@pytest.fixture(scope="module")
def uncertain_rds():
    """RDs of perfbench paper-k3's ('crairound', 'doudot').

    All 20 databases are uncertain, 18 of them with 10–14 atoms, so a
    greedy round at k = 3 scores about 200 lanes whose answer-set pools
    hold 9–14 databases. Built with perfbench's own testbed
    (``perfbench/systems.py``, loaded under a private module name and
    never modified). Loading it clears ``REPRO_*`` knobs and may put
    ``src`` on ``sys.path``, so both are restored after it.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "systems.py"
    spec = importlib.util.spec_from_file_location("_perfbench_systems", path)
    systems = importlib.util.module_from_spec(spec)
    saved_environ, saved_path = dict(os.environ), list(sys.path)
    sys.modules[spec.name] = systems
    try:
        spec.loader.exec_module(systems)
    finally:
        os.environ.clear()
        os.environ.update(saved_environ)
        sys.path[:] = saved_path
    testbed = systems.build_paper(200)
    query = next(
        q for q in testbed.queries if tuple(q.terms) == ("crairound", "doudot")
    )
    return testbed.metasearcher.selector.build_rds(query)


def test_greedy_round_k3_all_uncertain(benchmark, uncertain_rds):
    """The first greedy round at k = 3 when every database is uncertain.

    ``best_set`` on the prior, then the usefulness of every database:
    the tail of the answer-set search, where pools are largest.
    """
    policy = GreedyUsefulnessPolicy()
    metric = CorrectnessMetric.ABSOLUTE
    candidates = list(range(len(uncertain_rds)))

    def round_():
        computer = TopKComputer(uncertain_rds, 3)
        computer.best_set(metric)
        policy.choose(computer, candidates, metric, 0.9)

    benchmark(round_)


def test_greedy_round_after_collapse_k1(
    benchmark, paper_pipeline, sample_query
):
    """The round APro pays after an in-support observation, at k = 1.

    Setup sweeps a fresh computer once and collapses the chosen
    candidate onto its most probable atom; the timed part is what the
    collapsed computer then pays: ``best_set`` plus the next sweep,
    which resume the parent's DP chains and share its rank masks.
    """
    rds = paper_pipeline.rd_selector.build_rds(sample_query)
    policy = GreedyUsefulnessPolicy()
    metric = CorrectnessMetric.ABSOLUTE
    computer = TopKComputer(rds, 1)
    candidates = [i for i, rd in enumerate(rds) if not rd.is_impulse]
    chosen = policy.choose(computer, candidates, metric, 0.9)
    value = max(computer.atoms_of(chosen), key=lambda atom: atom[2])[1]
    remaining = [i for i in candidates if i != chosen]

    def collapsed():
        return (computer.collapse(chosen, value),), {}

    def round_(child):
        child.best_set(metric)
        policy.choose(child, remaining, metric, 0.9)

    benchmark.pedantic(round_, setup=collapsed, rounds=200)
