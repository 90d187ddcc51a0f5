"""Shared fixtures: miniature corpora, mediators and trained pipelines.

Session-scoped where construction is expensive; all deterministic.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import knobs
from repro.corpus.generator import DatabaseSpec, DocumentGenerator
from repro.corpus.topics import default_topic_registry
from repro.corpus.zipf import ZipfVocabulary
from repro.hiddenweb.mediator import Mediator
from repro.querylog.generator import QueryTraceGenerator
from repro.text.analyzer import Analyzer
from repro.types import Document


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread it started running.

    Threads alive before the test (those of wider-scoped fixtures, say)
    are not its own. Its own threads get one second in all to finish
    after the test's function-scoped fixtures have torn down; any still
    alive then fails the test, by name.
    """
    before = set(threading.enumerate())
    yield
    grace = time.monotonic() + 1.0
    for thread in set(threading.enumerate()) - before:
        thread.join(max(0.0, grace - time.monotonic()))
    leaked = sorted(t.name for t in set(threading.enumerate()) - before)
    if leaked:
        pytest.fail(f"test left {len(leaked)} thread(s) running: {leaked}")


@pytest.fixture(scope="session")
def registry():
    """The default topic catalogue."""
    return default_topic_registry(seed=11)


@pytest.fixture(scope="session")
def background_vocab():
    """A small shared background vocabulary."""
    return ZipfVocabulary(400, seed=12)


@pytest.fixture(scope="session")
def analyzer():
    """One analyzer shared by corpora and queries."""
    return Analyzer()


@pytest.fixture(scope="session")
def tiny_corpora(registry, background_vocab):
    """Four small topical databases (name -> documents)."""
    generator = DocumentGenerator(registry, background_vocab)
    specs = [
        DatabaseSpec(
            name="onco",
            size=150,
            topic_mixture={"oncology": 8, "pharmacology": 1, "genetics": 1},
            seed=21,
        ),
        DatabaseSpec(
            name="cardio",
            size=120,
            topic_mixture={"cardiology": 8, "nutrition": 2},
            seed=22,
        ),
        DatabaseSpec(
            name="broad",
            size=400,
            topic_mixture={
                "oncology": 1, "cardiology": 1, "neurology": 1,
                "infectious": 1, "nutrition": 1, "pharmacology": 1,
            },
            seed=23,
        ),
        DatabaseSpec(
            name="news",
            size=200,
            topic_mixture={"politics": 4, "business": 3, "infectious": 1},
            background_fraction=0.55,
            seed=24,
        ),
    ]
    return {spec.name: generator.generate(spec) for spec in specs}


@pytest.fixture(scope="session")
def tiny_mediator(tiny_corpora, analyzer):
    """A mediator over the four tiny databases."""
    return Mediator.from_documents(tiny_corpora, analyzer=analyzer)


@pytest.fixture(scope="session")
def health_queries(registry, background_vocab, analyzer):
    """120 unique health-leaning 2/3-term queries."""
    trace = QueryTraceGenerator(
        registry, background_vocab, analyzer=analyzer, seed=31
    )
    return trace.generate(120)


@pytest.fixture(scope="session")
def trained_pipeline(tiny_mediator, health_queries):
    """Exact summaries + error model + RD selector on the tiny testbed."""
    from repro.core.training import EDTrainer
    from repro.core.selection import RDBasedSelector
    from repro.summaries.builder import ExactSummaryBuilder
    from repro.summaries.estimators import TermIndependenceEstimator

    estimator = TermIndependenceEstimator()
    builder = ExactSummaryBuilder()
    summaries = {db.name: builder.build(db) for db in tiny_mediator}
    trainer = EDTrainer(
        tiny_mediator, summaries, estimator, samples_per_type=30
    )
    error_model = trainer.train(health_queries[:80])
    selector = RDBasedSelector(
        tiny_mediator, summaries, estimator, error_model
    )
    return {
        "mediator": tiny_mediator,
        "summaries": summaries,
        "estimator": estimator,
        "error_model": error_model,
        "selector": selector,
        "train_queries": health_queries[:80],
        "test_queries": health_queries[80:],
    }


@pytest.fixture(scope="session")
def trained_metasearcher(tiny_mediator, health_queries, analyzer):
    """A trained end-to-end metasearcher on the tiny testbed."""
    from repro.metasearch.metasearcher import Metasearcher, MetasearcherConfig

    searcher = Metasearcher(
        tiny_mediator,
        MetasearcherConfig(samples_per_type=10),
        analyzer=analyzer,
    )
    searcher.train(health_queries[:40])
    return searcher


@pytest.fixture()
def sample_documents():
    """A handful of hand-written documents for engine unit tests."""
    return [
        Document(0, "breast cancer treatment with chemotherapy"),
        Document(1, "heart disease and cholesterol research"),
        Document(2, "breast cancer screening and heart health"),
        Document(3, "the sports game season was exciting"),
        Document(4, "cancer research funding for cancer trials"),
    ]


@pytest.fixture(scope="module", params=["numpy", "python"])
def numeric_backend(request):
    """Run a module's tests under each numeric backend.

    Opt in with ``pytestmark = pytest.mark.usefixtures("numeric_backend")``
    (the ``test_topk*`` modules do): every test then runs once with the
    tensor backend and once with the row-wise oracle, so a kernel bug
    that only one formulation has cannot hide behind the default.
    Module-scoped so hypothesis tests stay clear of the
    function-scoped-fixture health check. It sets ``REPRO_BACKEND``,
    the knob CI sets for the ``python`` job.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(knobs.BACKEND, request.param)
        yield request.param
