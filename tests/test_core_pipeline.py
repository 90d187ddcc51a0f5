"""Tests for RD derivation, training, correctness and RD-based selection."""

import pytest

from repro.core.correctness import (
    GoldenStandard,
    absolute_correctness,
    partial_correctness,
    rank_by_relevancy,
    tie_tolerant_scores,
    true_topk,
)
from repro.core.errors import ErrorDistribution
from repro.core.query_types import QueryType, QueryTypeClassifier
from repro.core.relevancy import RelevancyDistribution, derive_rd
from repro.core.selection import RDBasedSelector
from repro.core.topk import CorrectnessMetric
from repro.core.training import EDTrainer, ErrorModel
from repro.exceptions import SelectionError, TrainingError
from repro.hiddenweb.database import RelevancyDefinition
from repro.summaries.estimators import TermIndependenceEstimator
from repro.types import Query


class TestDeriveRD:
    def _ed(self, samples):
        ed = ErrorDistribution()
        ed.observe_all(samples)
        return ed

    def test_paper_example3(self):
        # ED: -50 % w.p. 0.4, 0 % w.p. 0.5, +50 % w.p. 0.1; r̂ = 1000
        # -> RD: 500 w.p. 0.4, 1000 w.p. 0.5, 1500 w.p. 0.1.
        ed = self._ed([-0.5] * 4 + [0.0] * 5 + [0.5] * 1)
        rd = derive_rd(1000.0, ed)
        assert rd.prob_of(500.0) == pytest.approx(0.4)
        assert rd.prob_of(1000.0) == pytest.approx(0.5)
        assert rd.prob_of(1500.0) == pytest.approx(0.1)

    def test_document_frequency_rounds_to_integers(self):
        ed = self._ed([0.3])
        rd = derive_rd(10.0, ed)
        assert rd.prob_of(13.0) == pytest.approx(1.0)

    def test_values_never_negative(self):
        ed = self._ed([-1.0, -0.9])
        rd = derive_rd(10.0, ed)
        assert all(v >= 0.0 for v, _p in rd.atoms())

    def test_similarity_clamped_to_unit(self):
        ed = self._ed([5.0])
        rd = derive_rd(
            0.8, ed, definition=RelevancyDefinition.DOCUMENT_SIMILARITY
        )
        assert all(0.0 <= v <= 1.0 for v, _p in rd.atoms())

    def test_floor_used_for_tiny_estimates(self):
        ed = self._ed([19.0])  # err=+1900 %
        rd = derive_rd(0.0, ed, estimate_floor=0.05)
        # value = 0.05 * 20 = 1.0
        assert rd.prob_of(1.0) == pytest.approx(1.0)

    def test_colliding_values_merge(self):
        ed = self._ed([0.01, -0.01])  # both round to r̂ itself
        rd = derive_rd(100.0, ed)
        assert rd.support_size == 1

    def test_impulse_rd(self):
        rd = RelevancyDistribution.impulse(7.0)
        assert rd.is_impulse
        assert rd.mean() == 7.0


class TestErrorModel:
    def test_fallback_chain(self):
        model = ErrorModel(min_samples=3)
        qt_a = QueryType(2, 0)
        qt_b = QueryType(3, 0)   # same band, different term count
        qt_c = QueryType(2, 1)   # different band
        for _ in range(5):
            model.observe("db", qt_a, -0.5)
        # Exact hit.
        assert model.lookup("db", qt_a).sample_count == 5
        # Band-pooled fallback (same band 0, via qt_b).
        assert model.lookup("db", qt_b) is not None
        # Different band falls back to the db-pooled ED.
        assert model.lookup("db", qt_c) is not None
        # Unknown db falls back to the global pool.
        assert model.lookup("other", qt_a) is not None

    def test_lookup_none_when_untrained(self):
        model = ErrorModel(min_samples=3)
        assert model.lookup("db", QueryType(2, 0)) is None

    def test_min_samples_gate(self):
        model = ErrorModel(min_samples=10)
        for _ in range(5):
            model.observe("db", QueryType(2, 0), 0.0)
        # Exact slice below the gate; global pool also has only 5.
        assert model.lookup("db", QueryType(2, 0)) is None
        for _ in range(5):
            model.observe("db", QueryType(2, 0), 0.0)
        assert model.lookup("db", QueryType(2, 0)).sample_count == 10

    def test_types_for(self):
        model = ErrorModel()
        model.observe("db", QueryType(2, 0), 0.0)
        model.observe("db", QueryType(3, 1), 0.0)
        assert model.types_for("db") == [QueryType(2, 0), QueryType(3, 1)]

    def test_invalid_min_samples(self):
        with pytest.raises(TrainingError):
            ErrorModel(min_samples=0)


class TestEDTrainer:
    def test_training_produces_model(self, trained_pipeline):
        model = trained_pipeline["error_model"]
        mediator = trained_pipeline["mediator"]
        # Every database should have at least one trained slice.
        for db in mediator:
            assert model.types_for(db.name)

    def test_training_charges_probes(self, tiny_mediator, health_queries):
        from repro.summaries.builder import ExactSummaryBuilder

        tiny_mediator.reset_accounting()
        estimator = TermIndependenceEstimator()
        summaries = {
            db.name: ExactSummaryBuilder().build(db) for db in tiny_mediator
        }
        trainer = EDTrainer(
            tiny_mediator, summaries, estimator, samples_per_type=5
        )
        trainer.train(health_queries[:30])
        assert tiny_mediator.total_probes() > 0

    def test_samples_per_type_cap(self, tiny_mediator, health_queries):
        from repro.summaries.builder import ExactSummaryBuilder

        estimator = TermIndependenceEstimator()
        summaries = {
            db.name: ExactSummaryBuilder().build(db) for db in tiny_mediator
        }
        trainer = EDTrainer(
            tiny_mediator, summaries, estimator, samples_per_type=3
        )
        model = trainer.train(health_queries)
        classifier = QueryTypeClassifier()
        for db in tiny_mediator:
            for query_type in classifier.all_types():
                assert model.sample_count(db.name, query_type) <= 3

    def test_missing_summary_rejected(self, tiny_mediator):
        with pytest.raises(TrainingError):
            EDTrainer(tiny_mediator, {}, TermIndependenceEstimator())

    def test_certain_zero_skipped(self, tiny_mediator, health_queries):
        """Queries with a zero-df term on an exact summary cost nothing."""
        from repro.summaries.builder import ExactSummaryBuilder

        estimator = TermIndependenceEstimator()
        summaries = {
            db.name: ExactSummaryBuilder().build(db) for db in tiny_mediator
        }
        impossible = Query(("zzzzznotaword", "qqqqnotaword"))
        tiny_mediator.reset_accounting()
        trainer = EDTrainer(tiny_mediator, summaries, estimator)
        trainer.train([impossible])
        assert tiny_mediator.total_probes() == 0


class TestCorrectnessMetrics:
    def test_rank_by_relevancy_tie_break(self):
        assert rank_by_relevancy([5.0, 7.0, 5.0], 2) == (0, 1)

    def test_absolute(self):
        truth = frozenset({"a", "b"})
        assert absolute_correctness(["a", "b"], truth) == 1.0
        assert absolute_correctness(["a", "c"], truth) == 0.0

    def test_partial(self):
        truth = frozenset({"a", "b", "c"})
        assert partial_correctness(["a", "b", "x"], truth, 3) == pytest.approx(
            2 / 3
        )

    def test_tie_tolerant_exact(self):
        # relevancies: [9, 5, 5, 1]; k=2; tau=5, one mandatory (9), one
        # tie slot shared by the two 5s.
        all_r = [9.0, 5.0, 5.0, 1.0]
        assert tie_tolerant_scores([9.0, 5.0], all_r, 2) == (1.0, 1.0)
        cor_a, cor_p = tie_tolerant_scores([5.0, 5.0], all_r, 2)
        assert cor_a == 0.0  # missing the mandatory 9
        assert cor_p == pytest.approx(0.5)

    def test_tie_tolerant_all_tied(self):
        all_r = [3.0, 3.0, 3.0]
        assert tie_tolerant_scores([3.0, 3.0], all_r, 2) == (1.0, 1.0)

    def test_tie_tolerant_wrong_pick(self):
        all_r = [9.0, 5.0, 1.0]
        cor_a, cor_p = tie_tolerant_scores([9.0, 1.0], all_r, 2)
        assert cor_a == 0.0
        assert cor_p == pytest.approx(0.5)

    def test_tie_tolerant_validation(self):
        with pytest.raises(ValueError):
            tie_tolerant_scores([1.0], [1.0, 2.0], 2)
        with pytest.raises(ValueError):
            tie_tolerant_scores([1.0], [1.0], 0)

    def test_true_topk(self, tiny_mediator):
        query = Query(("cancer", "treatment"))
        topk = true_topk(tiny_mediator, query, 2)
        assert len(topk) == 2
        assert topk <= set(tiny_mediator.names)

    def test_golden_standard_cache_consistent(self, tiny_mediator):
        golden = GoldenStandard(tiny_mediator)
        query = Query(("heart", "diet"))
        first = golden.relevancies(query)
        second = golden.relevancies(query)
        assert first is second
        assert golden.topk(query, 1) == true_topk(tiny_mediator, query, 1)

    def test_golden_score_strict_vs_tolerant(self, tiny_mediator):
        golden = GoldenStandard(tiny_mediator)
        query = Query(("cancer",))
        truth = golden.topk(query, 2)
        strict = golden.score_strict(query, truth, 2)
        tolerant = golden.score(query, truth, 2)
        assert strict == (1.0, 1.0)
        assert tolerant == (1.0, 1.0)


class TestRDBasedSelector:
    def test_select_returns_k_names(self, trained_pipeline):
        selector = trained_pipeline["selector"]
        query = trained_pipeline["test_queries"][0]
        result = selector.select(query, 2)
        assert len(result.names) == 2
        assert 0.0 <= result.expected_correctness <= 1.0

    def test_certain_zero_shortcut(self, trained_pipeline):
        selector = trained_pipeline["selector"]
        rd = selector.build_rd(
            trained_pipeline["mediator"].names[0],
            Query(("zzzzznotaword", "cancer")),
        )
        assert rd.is_impulse
        assert rd.mean() == 0.0

    def test_rds_in_mediator_order(self, trained_pipeline):
        selector = trained_pipeline["selector"]
        query = trained_pipeline["test_queries"][1]
        rds = selector.build_rds(query)
        assert len(rds) == len(trained_pipeline["mediator"])

    def test_missing_summary_rejected(self, trained_pipeline):
        with pytest.raises(SelectionError):
            RDBasedSelector(
                trained_pipeline["mediator"],
                {},
                trained_pipeline["estimator"],
                trained_pipeline["error_model"],
            )

    def test_expected_correctness_claims_match_metric(self, trained_pipeline):
        selector = trained_pipeline["selector"]
        query = trained_pipeline["test_queries"][2]
        result = selector.select(query, 1, CorrectnessMetric.ABSOLUTE)
        recomputed = result.computer.expected_correctness(
            result.indices, CorrectnessMetric.ABSOLUTE
        )
        assert result.expected_correctness == pytest.approx(recomputed)

    def test_untrained_model_falls_back_to_estimate(self, trained_pipeline):
        empty_model = ErrorModel()
        selector = RDBasedSelector(
            trained_pipeline["mediator"],
            trained_pipeline["summaries"],
            trained_pipeline["estimator"],
            empty_model,
        )
        query = trained_pipeline["test_queries"][0]
        rds = selector.build_rds(query)
        assert all(rd.is_impulse for rd in rds)
