"""The certain-zero index and everything that visits only its candidates.

``CertainZeroIndex.nonzero`` replaces a per-database rule — an exact
summary with a zero-df query term proves r(db, q) = 0 under the
document-frequency definition — so each consumer is checked against
that rule applied database by database: the index itself, the
selector's RD build, the trainer's probe plan (``ParallelEDTrainer``
shares the index, so trainer-vs-trainer equality cannot catch an index
bug) and APro's pruning bounds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.probing import APro
from repro.core.pruning import prunable_mask, support_bounds
from repro.core.selection import RDBasedSelector
from repro.core.training import EDTrainer, PlannedProbe
from repro.corpus.generator import DocumentGenerator
from repro.experiments.bench_scale import scale_specs
from repro.experiments.setup import PaperSetupConfig, build_paper_context
from repro.hiddenweb.database import RelevancyDefinition
from repro.hiddenweb.mediator import Mediator
from repro.summaries.builder import ExactSummaryBuilder
from repro.summaries.estimators import TermIndependenceEstimator
from repro.summaries.summary import ContentSummary
from repro.summaries.zero_index import CertainZeroIndex
from repro.types import Query

DF = RelevancyDefinition.DOCUMENT_FREQUENCY
#: Small, so replaying training fills slices and the plan skips them.
SAMPLES_PER_TYPE = 4


def _provably_zero(summary: ContentSummary, query: Query, definition) -> bool:
    """The per-database rule the index replaces."""
    return (
        definition is DF
        and summary.is_exact
        and any(summary.document_frequency(t) == 0 for t in query.terms)
    )


def _brute_nonzero(summaries, query, definition) -> list[int]:
    return [
        i
        for i, summary in enumerate(summaries)
        if not _provably_zero(summary, query, definition)
    ]


# -- the index --------------------------------------------------------------

_VOCABULARY = [f"t{i}" for i in range(6)]
#: Held by every summary / by none.
_EVERYWHERE, _NOWHERE = "common", "absent"


@st.composite
def _federations(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    summaries = []
    for i in range(n):
        size = draw(st.integers(min_value=1, max_value=20))
        held = draw(st.lists(st.sampled_from(_VOCABULARY), unique=True))
        frequencies = {
            term: draw(st.integers(min_value=1, max_value=size))
            for term in held + [_EVERYWHERE]
        }
        sampled = draw(st.none() | st.integers(min_value=1, max_value=size))
        summaries.append(
            ContentSummary(f"db{i}", size, frequencies, sampled_documents=sampled)
        )
    terms = draw(
        st.lists(
            st.sampled_from(_VOCABULARY + [_EVERYWHERE, _NOWHERE]),
            min_size=1,
            max_size=5,
        )
    )
    definition = draw(st.sampled_from(list(RelevancyDefinition)))
    return summaries, Query(tuple(terms)), definition


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_federations())
def test_nonzero_matches_the_per_database_rule(case):
    # Random mixes of exact and sampled summaries; query terms repeat
    # and include a term no summary has and one every summary has.
    summaries, query, definition = case
    nonzero = CertainZeroIndex(summaries, definition).nonzero(query)
    assert nonzero.tolist() == _brute_nonzero(summaries, query, definition)


def test_nonzero_edge_terms():
    exact = ContentSummary("a", 10, {"x": 3, "y": 1})
    sampled = ContentSummary("b", 10, {"x": 2}, sampled_documents=4)
    index = CertainZeroIndex([exact, sampled, exact], DF)
    assert index.nonzero(Query(("x",))).tolist() == [0, 1, 2]
    assert index.nonzero(Query(("y", "x", "y"))).tolist() == [0, 1, 2]
    # Only the sampled summary survives a term no exact summary holds.
    assert index.nonzero(Query(("x", "zzz"))).tolist() == [1]
    similarity = CertainZeroIndex(
        [exact, sampled], RelevancyDefinition.DOCUMENT_SIMILARITY
    )
    assert similarity.nonzero(Query(("zzz",))).tolist() == [0, 1]


# -- consumers, on two testbeds -----------------------------------------------


def _pipeline(mediator, train_queries, sampled_every=None):
    """Exact summaries (some re-flagged as sampled), a trained model."""
    builder = ExactSummaryBuilder()
    summaries = {}
    for i, db in enumerate(mediator):
        summary = builder.build(db)
        if sampled_every and i % sampled_every == 0:
            summary = ContentSummary(
                summary.database_name,
                summary.size,
                dict(summary.items()),
                sampled_documents=summary.size,
            )
        summaries[db.name] = summary
    estimator = TermIndependenceEstimator()
    trainer = EDTrainer(
        mediator, summaries, estimator, samples_per_type=SAMPLES_PER_TYPE
    )
    model = trainer.train(train_queries)
    selector = RDBasedSelector(mediator, summaries, estimator, model)
    return summaries, estimator, trainer, selector


@pytest.fixture(scope="module")
def paper_testbed():
    context = build_paper_context(
        PaperSetupConfig(scale=0.03, n_train=40, n_test=12)
    )
    parts = _pipeline(context.mediator, context.train_queries)
    return context.mediator, context.test_queries, context.train_queries, parts


@pytest.fixture(scope="module")
def federation_testbed(registry, background_vocab, analyzer, health_queries):
    # bench-scale's recipe at 48 databases: a couple of strong
    # databases per topic and a long weak tail, so most databases are
    # certain zeros for a topical query. Every fifth summary is flagged
    # sampled, which makes its database a candidate for every query.
    generator = DocumentGenerator(registry, background_vocab)
    corpora = {
        spec.name: generator.generate(spec)
        for spec in scale_specs(48, registry, seed=2004)
    }
    mediator = Mediator.from_documents(corpora, analyzer=analyzer)
    train = health_queries[:24]
    parts = _pipeline(mediator, train, sampled_every=5)
    unknown = Query((health_queries[30].terms[0], "zzzzunseen"))
    return mediator, health_queries[30:42] + [unknown], train, parts


TESTBEDS = ["paper_testbed", "federation_testbed"]


@pytest.mark.parametrize("backend", ["numpy", "python"])
@pytest.mark.parametrize("testbed", TESTBEDS)
def test_build_rds_is_the_build_rd_loop(testbed, backend, request):
    mediator, queries, _train, (summaries, _e, _t, selector) = (
        request.getfixturevalue(testbed)
    )
    skipped = 0
    for query in queries:
        rds = selector.build_rds(query, backend=backend)
        for db, rd in zip(mediator, rds):
            single = selector.build_rd(db.name, query)
            assert rd.values.tobytes() == single.values.tobytes(), db.name
            assert rd.probs.tobytes() == single.probs.tobytes(), db.name
            if _provably_zero(summaries[db.name], query, DF):
                assert rd.values.tolist() == [0.0], db.name
                skipped += 1
    # The sweep must exercise the certain-zero slots.
    assert skipped > 0


@pytest.mark.parametrize("testbed", TESTBEDS)
def test_plan_query_matches_a_brute_force_plan(testbed, request):
    mediator, queries, train, (summaries, estimator, trainer, _sel) = (
        request.getfixturevalue(testbed)
    )
    classifier = trainer._classifier

    def brute_plan(model, query):
        plan = []
        for index, db in enumerate(mediator):
            summary = summaries[db.name]
            if _provably_zero(summary, query, DF):
                continue
            estimate = estimator.estimate(summary, query)
            query_type = classifier.classify(query, estimate)
            if model.sample_count(db.name, query_type) >= SAMPLES_PER_TYPE:
                continue
            plan.append(PlannedProbe(index, db.name, estimate, query_type))
        return plan

    # Replay training step by step, so the slice-full skip fires too.
    model = trainer.new_model()
    full = 0
    for query in train + queries:
        plan = trainer.plan_query(model, query)
        assert plan == brute_plan(model, query), query
        full += len(_brute_nonzero(
            [summaries[db.name] for db in mediator], query, DF
        )) - len(plan)
        for planned in plan:
            actual = mediator[planned.index].relevancy(query)
            trainer.apply_observation(model, planned, actual)
    assert full > 0


def _reference_survivors(rds, k, pool):
    """Bounds over every RD of the universe, the pre-index way."""
    universe = list(range(len(rds))) if pool is None else pool
    mins, maxs = support_bounds([rds[g] for g in universe])
    kept = ~prunable_mask(mins, maxs, k) | (mins < maxs)
    survivors = [universe[p] for p in np.flatnonzero(kept)]
    missing = min(len(universe), k + 1) - len(survivors)
    if missing > 0:
        nearest = sorted(
            (p for p in range(len(universe)) if universe[p] not in survivors),
            key=lambda p: (-float(mins[p]), universe[p]),
        )
        padding = [universe[p] for p in nearest[:missing]]
        survivors = sorted(survivors + padding)
    return survivors, mins, maxs, missing > 0


@pytest.mark.parametrize("testbed", TESTBEDS)
def test_survivor_map_matches_bounds_over_every_rd(testbed, request):
    mediator, queries, _train, (_s, _e, _t, selector) = (
        request.getfixturevalue(testbed)
    )
    apro = APro(selector, prune=True)
    rng = np.random.default_rng(16)
    padded = 0
    for query in queries:
        nonzero = selector.nonzero(query)
        for k in (1, 2, 3):
            keep = rng.choice(len(mediator), 8, replace=False)
            for pool in (None, sorted(keep.tolist())):
                rds = selector.build_rds(query, indices=pool)
                if pool is not None:
                    # Slots outside the pool are never built.
                    assert all(
                        rd.values.tolist() == [0.0]
                        for g, rd in enumerate(rds)
                        if g not in pool
                    )
                sub, (universe, mins, maxs) = apro._survivor_map(
                    rds, k, pool, nonzero
                )
                want, want_mins, want_maxs, was_padded = (
                    _reference_survivors(rds, k, pool)
                )
                assert sub == want, (query, k, pool)
                assert universe.tolist() == (
                    list(range(len(rds))) if pool is None else pool
                )
                assert mins.tobytes() == want_mins.tobytes()
                assert maxs.tobytes() == want_maxs.tobytes()
                padded += was_padded
    # The unseen-term query leaves too few survivors, so the padding
    # path runs.
    assert padded > 0
