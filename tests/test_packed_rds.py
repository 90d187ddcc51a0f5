"""The packed belief state: compiled ED table → packed RDs → TopKComputer.

``RDBasedSelector.build_rds`` builds the candidates' RDs on a vectorized
backend in array passes — estimates, estimate bands, the compiled ED
table's slots, one batched derivation and a per-segment normalization —
and must equal the per-database ``build_rd`` route bit for bit, for
every estimator. The sweep draws random exact and sampled summaries,
queries whose estimate lands exactly on a band threshold, each
estimator (term independence, CORI, MaxSimilarity, GlOSS) under both
relevancy definitions and random error models whose slices hold 0–8
samples around ``min_samples`` (so every fallback level is sometimes
present and sometimes absent, down to a global ED too thin to use).
The compiled table must equal ``lookup`` slot for slot and follow
``observe``, and a ``TopKComputer`` over a packed sequence must equal
one over the same RDs as a list, through chains of collapses, on both
backends.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pruning import support_bounds
from repro.core.query_types import QueryType, QueryTypeClassifier
from repro.core.relevancy import PackedRDs
from repro.core.selection import RDBasedSelector
from repro.core.topk import CorrectnessMetric, TopKComputer
from repro.core.training import ErrorModel
from repro.hiddenweb.database import RelevancyDefinition
from repro.stats.distribution import DiscreteDistribution as D
from repro.summaries.estimators import (
    CoriEstimator,
    GlossEstimator,
    MaxSimilarityEstimator,
    TermIndependenceEstimator,
)
from repro.summaries.summary import ContentSummary
from repro.types import Query

VOCABULARY = [f"w{i}" for i in range(8)]
CLASSIFIER = QueryTypeClassifier()
#: Integer thresholds a constructed summary can hit exactly.
EXACT_THRESHOLDS = [t for t in CLASSIFIER.estimate_thresholds if t == int(t)]
#: The estimators a case draws from, term independence most often.
ESTIMATORS = (
    TermIndependenceEstimator,
    CoriEstimator,
    MaxSimilarityEstimator,
    GlossEstimator,
)


def _error(rng: np.random.Generator) -> float:
    """An estimator error spread over every histogram bin."""
    kind = rng.random()
    if kind < 0.2:
        return -1.0
    if kind < 0.6:
        return float(rng.uniform(-0.99, 1.0))
    return float(np.exp(rng.uniform(0.0, 6.9)))


def _random_model(rng: np.random.Generator, names: list[str]) -> ErrorModel:
    """Slices of 0–8 samples, so each fallback level may or may not qualify.

    One model in eight holds at most 4 samples in all, leaving even the
    global ED below ``min_samples``.
    """
    model = ErrorModel()
    budget = 4 if rng.random() < 0.125 else None
    types = CLASSIFIER.all_types()
    for name in names:
        for index in rng.choice(len(types), int(rng.integers(0, 4)), replace=False):
            for _ in range(int(rng.integers(0, 9))):
                if budget is not None:
                    if budget == 0:
                        return model
                    budget -= 1
                model.observe(name, types[index], _error(rng))
    return model


def _random_case(rng: np.random.Generator):
    """``(selector, query, names)`` over 2–10 random databases.

    The estimator is term independence in about half the cases, and
    CORI, MaxSimilarity or GlOSS (over weight-carrying summaries) in
    the rest.
    """
    estimator = ESTIMATORS[rng.choice(4, p=[0.55, 0.15, 0.15, 0.15])]
    n = int(rng.integers(2, 11))
    terms = tuple(
        rng.choice(VOCABULARY, int(rng.integers(1, 4)), replace=False).tolist()
    )
    query = Query(terms)
    names = [f"db{i}" for i in range(n)]
    summaries = {}
    for name in names:
        if rng.random() < 0.3:
            # The estimate lands exactly on an integer band threshold:
            # size·(1/2)^q with size = t·2^q.
            threshold = float(rng.choice(EXACT_THRESHOLDS))
            size = int(threshold) * 2 ** len(terms)
            frequencies = {term: size // 2 for term in terms}
        else:
            size = int(rng.integers(1, 400))
            frequencies = {
                term: int(rng.integers(0, size + 1))
                for term in VOCABULARY
                if rng.random() < 0.8
            }
            if rng.random() < 0.5:
                # Mostly candidates: every query term held.
                for term in terms:
                    frequencies[term] = int(rng.integers(1, size + 1))
        sampled = None if rng.random() < 0.7 else int(rng.integers(1, size + 1))
        weights = None
        if estimator is GlossEstimator:
            # Σ_d (1 + log tf) is at least df.
            weights = {
                term: df * float(rng.uniform(1.0, 3.0))
                for term, df in frequencies.items()
            }
        summaries[name] = ContentSummary(
            name,
            size,
            frequencies,
            sampled_documents=sampled,
            term_weight_sums=weights,
        )
    definition = (
        RelevancyDefinition.DOCUMENT_FREQUENCY
        if rng.random() < 0.6
        else RelevancyDefinition.DOCUMENT_SIMILARITY
    )
    selector = RDBasedSelector(
        mediator=[SimpleNamespace(name=name) for name in names],
        summaries=summaries,
        estimator=(
            CoriEstimator(list(summaries.values()))
            if estimator is CoriEstimator
            else estimator()
        ),
        error_model=_random_model(rng, names),
        classifier=CLASSIFIER,
        definition=definition,
    )
    return selector, query, names


def _same_rd(a, b) -> bool:
    return (
        a.values.tobytes() == b.values.tobytes()
        and a.probs.tobytes() == b.probs.tobytes()
    )


def test_packed_route_is_bitwise_build_rd():
    seen = {"long": 0, "on_threshold": 0, "no_ed": 0} | {
        (estimator, definition): 0
        for estimator in ESTIMATORS
        for definition in RelevancyDefinition
    }

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1))
    def check(seed):
        selector, query, names = _random_case(np.random.default_rng(seed))
        packed = selector.build_rds(query, backend="numpy")
        assert isinstance(packed, PackedRDs) and len(packed) == len(names)
        oracle = selector.build_rds(query, backend="python")
        for i, name in enumerate(names):
            single = selector.build_rd(name, query)
            assert _same_rd(packed[i], single), (seed, name)
            assert _same_rd(oracle[i], single), (seed, name)
            seen["long"] += single.support_size >= 8
            estimate = selector.estimate(name, query)
            seen["on_threshold"] += estimate in EXACT_THRESHOLDS
            query_type = CLASSIFIER.classify(query, estimate)
            seen["no_ed"] += (
                int(i) in selector.nonzero(query)
                and selector.error_model.lookup(name, query_type) is None
            )
        seen[type(selector.estimator), selector.definition] += 1

    check()
    # The sweep reached both summation branches (8+ atoms), band
    # thresholds, the no-usable-ED impulse, and every estimator under
    # both definitions.
    assert all(count > 0 for count in seen.values()), seen


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_compiled_table_is_lookup(seed):
    rng = np.random.default_rng(seed)
    names = [f"db{i}" for i in range(int(rng.integers(1, 8)))]
    model = _random_model(rng, names)
    table = model.compile(names, CLASSIFIER)
    for d, name in enumerate(names):
        for query_type in CLASSIFIER.all_types():
            ed = model.lookup(name, query_type)
            slot = table.slot[
                d,
                table.term_slot[query_type.num_terms],
                query_type.estimate_band,
            ]
            if ed is None:
                assert slot == -1, (seed, name, query_type)
                continue
            atoms = slice(table.starts[slot], table.starts[slot + 1])
            expected = ed.to_distribution()
            assert table.values[atoms].tobytes() == expected.values.tobytes()
            assert table.probs[atoms].tobytes() == expected.probs.tobytes()


def test_observe_recompiles_the_table():
    # The query's slice on db1 holds 4 samples: below min_samples, so
    # its RD comes from the global ED until a fifth sample lands.
    query = Query(("a", "b"))
    query_type = CLASSIFIER.classify(query, 10.0)
    model = ErrorModel()
    for error in (-0.5, 0.1, 3.0, 40.0, -1.0, 0.3):
        model.observe("db0", QueryType(3, 0), error)
    for error in (2.0, 2.1, 2.2, 2.3):
        model.observe("db1", query_type, error)
    summaries = {
        "db0": ContentSummary("db0", 50, {"a": 10, "b": 10}),
        "db1": ContentSummary("db1", 40, {"a": 20, "b": 20}),
    }
    selector = RDBasedSelector(
        mediator=[SimpleNamespace(name=name) for name in summaries],
        summaries=summaries,
        estimator=TermIndependenceEstimator(),
        error_model=model,
        classifier=CLASSIFIER,
    )
    before = selector.build_rds(query, backend="numpy")[1]
    model.observe("db1", query_type, 2.4)
    after = selector.build_rds(query, backend="numpy")[1]
    assert not _same_rd(before, after)
    assert _same_rd(after, selector.build_rd("db1", query))


def test_hot_swap_compiles_the_new_model():
    summaries = {"db0": ContentSummary("db0", 40, {"a": 20, "b": 20})}
    query = Query(("a", "b"))
    old, new = ErrorModel(), ErrorModel()
    for error in (0.0, 0.1, 0.2, 0.3, 0.4):
        old.observe("db0", QueryType(2, 0), error)
    for error in (5.0, 6.0, 7.0, 8.0, 9.0):
        new.observe("db0", QueryType(3, 3), error)
    selector = RDBasedSelector(
        mediator=[SimpleNamespace(name="db0")],
        summaries=summaries,
        estimator=TermIndependenceEstimator(),
        error_model=old,
        classifier=CLASSIFIER,
    )
    swapped = selector.with_error_model(new)
    assert _same_rd(swapped.build_rds(query)[0], swapped.build_rd("db0", query))
    assert _same_rd(selector.build_rds(query)[0], selector.build_rd("db0", query))
    assert not _same_rd(swapped.build_rds(query)[0], selector.build_rds(query)[0])


# -- the sequence ---------------------------------------------------------------


def _random_rds(rng: np.random.Generator, n: int) -> list:
    rds = []
    for _ in range(n):
        size = 1 if rng.random() < 0.25 else int(rng.integers(2, 10))
        values = np.sort(
            rng.choice(np.arange(0, 60, dtype=np.float64), size, replace=False)
        )
        weights = rng.random(size) + 0.05
        rds.append(D.from_pairs(zip(values.tolist(), weights.tolist())))
    return rds


def _random_packed(rng: np.random.Generator) -> PackedRDs:
    """A build_rds-shaped sequence: shared zeros, assigned impulses, a view."""
    n = int(rng.integers(3, 12))
    rows = np.flatnonzero(rng.random(n) < 0.6)
    packed = PackedRDs.scattered(n, rows, PackedRDs.of(_random_rds(rng, len(rows))))
    for i in rng.choice(n, int(rng.integers(0, 3)), replace=False).tolist():
        packed[i] = D.impulse(float(rng.integers(0, 60)))
    keep = np.flatnonzero(rng.random(n) < 0.8)
    if len(keep) < 2:
        keep = np.arange(n)
    return packed.select(keep)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_sequence_reads_match_its_items(seed):
    rng = np.random.default_rng(seed)
    packed = _random_packed(rng)
    items = list(packed)
    assert [rd.support_size for rd in items] == packed.support_sizes().tolist()
    mins, maxs = support_bounds(packed)
    want_mins, want_maxs = support_bounds(items)
    assert mins.tobytes() == want_mins.tobytes()
    assert maxs.tobytes() == want_maxs.tobytes()
    values, probs, bounds = packed.atoms()
    assert values.tobytes() == np.concatenate([rd.values for rd in items]).tobytes()
    assert probs.tobytes() == np.concatenate([rd.probs for rd in items]).tobytes()
    assert np.diff(bounds).tolist() == [rd.support_size for rd in items]
    # Assignment changes one item and leaves views taken before alone.
    view = packed.select(np.arange(len(packed)))
    packed[0] = D.impulse(123.0)
    assert packed[0].values.tolist() == [123.0]
    assert _same_rd(view[0], items[0])
    assert all(_same_rd(a, b) for a, b in zip(list(packed)[1:], items[1:]))


def _assert_same_computer(a: TopKComputer, b: TopKComputer, trial) -> None:
    assert a._greater.tobytes() == b._greater.tobytes(), trial
    assert a._less.tobytes() == b._less.tobytes(), trial
    assert a.marginals().tobytes() == b.marginals().tobytes(), trial
    for i in range(a.num_databases):
        batch_a = a._override_marginals_all(i)
        batch_b = b._override_marginals_all(i)
        assert batch_a.tobytes() == batch_b.tobytes(), (trial, i)
    for metric in CorrectnessMetric:
        assert a.best_set(metric) == b.best_set(metric), (trial, metric)


def _assert_rebuild_agrees(computer: TopKComputer, trial) -> None:
    """A collapsed computer answers like one built from its RDs."""
    rebuilt = TopKComputer(
        [computer.rd(i) for i in range(computer.num_databases)],
        computer.k,
        backend=computer.backend_name,
    )
    assert np.max(np.abs(computer.marginals() - rebuilt.marginals())) <= 1e-9
    for metric in CorrectnessMetric:
        set_c, score_c = computer.best_set(metric)
        set_r, score_r = rebuilt.best_set(metric)
        assert set_c == set_r, (trial, metric)
        assert abs(score_c - score_r) <= 1e-9, (trial, metric)


@pytest.mark.parametrize("backend", ["numpy", "python"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_computer_over_packed_equals_over_list(backend, seed):
    rng = np.random.default_rng(seed)
    packed = _random_packed(rng)
    n = len(packed)
    k = int(rng.integers(1, min(n, 3) + 1))
    from_packed = TopKComputer(packed, k, backend=backend)
    from_list = TopKComputer(list(packed), k, backend=backend)
    _assert_same_computer(from_packed, from_list, seed)
    for step in range(int(rng.integers(1, 5))):
        database = int(rng.integers(0, n))
        support = from_packed.rd(database).values
        if rng.random() < 0.5:
            observed = float(rng.choice(support))
        else:
            observed = float(rng.integers(0, 60)) + 0.5
        from_packed = from_packed.collapse(database, observed)
        from_list = from_list.collapse(database, observed)
        _assert_same_computer(from_packed, from_list, (seed, step))
        _assert_rebuild_agrees(from_packed, (seed, step))
