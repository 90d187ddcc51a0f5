"""Unit tests for content summaries, builders and estimators."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.exceptions import SummaryError
from repro.hiddenweb.database import HiddenWebDatabase
from repro.summaries.builder import ExactSummaryBuilder, SampledSummaryBuilder
from repro.summaries.estimators import (
    CoriEstimator,
    MaxSimilarityEstimator,
    TermIndependenceEstimator,
)
from repro.summaries.summary import ContentSummary
from repro.text.analyzer import Analyzer
from repro.types import Document, Query


class TestContentSummary:
    def test_basic_lookup(self):
        summary = ContentSummary("db", 100, {"cancer": 20, "heart": 5})
        assert summary.document_frequency("cancer") == 20
        assert summary.document_frequency("absent") == 0
        assert summary.contains("heart")
        assert not summary.contains("absent")

    def test_zero_df_dropped(self):
        summary = ContentSummary("db", 100, {"cancer": 20, "rare": 0})
        assert summary.vocabulary_size == 1
        assert not summary.contains("rare")

    def test_exact_vs_sampled(self):
        exact = ContentSummary("db", 100, {"a": 1})
        sampled = ContentSummary("db", 100, {"a": 1}, sampled_documents=30)
        assert exact.is_exact
        assert not sampled.is_exact

    def test_invalid_size(self):
        with pytest.raises(SummaryError):
            ContentSummary("db", 0, {})

    def test_df_above_size_rejected(self):
        with pytest.raises(SummaryError):
            ContentSummary("db", 10, {"a": 11})

    def test_negative_df_rejected(self):
        with pytest.raises(SummaryError):
            ContentSummary("db", 10, {"a": -1})

    def test_idf_properties(self):
        summary = ContentSummary("db", 100, {"common": 50, "rare": 2})
        assert summary.idf("rare") > summary.idf("common") > 0
        assert summary.idf("absent") == 0.0


class TestExactSummaryBuilder:
    def test_matches_index_statistics(self, tiny_mediator):
        database = tiny_mediator[0]
        summary = ExactSummaryBuilder().build(database)
        assert summary.size == database.size
        assert summary.is_exact
        for term in list(database.index.terms())[:20]:
            assert summary.document_frequency(term) == (
                database.index.document_frequency(term)
            )

    def test_costs_nothing(self, tiny_mediator):
        database = tiny_mediator[1]
        before = database.accounting.probes
        ExactSummaryBuilder().build(database)
        assert database.accounting.probes == before


class TestSampledSummaryBuilder:
    def _database(self):
        documents = [
            Document(i, f"cancer treatment study number{i % 7} research")
            for i in range(60)
        ]
        return HiddenWebDatabase("s", documents, Analyzer(stem=False))

    def test_builds_sampled_summary(self):
        database = self._database()
        builder = SampledSummaryBuilder(
            ["cancer"], target_documents=20, max_probes=40, seed=1,
            analyzer=Analyzer(stem=False),
        )
        summary = builder.build(database)
        assert not summary.is_exact
        assert summary.sampled_documents <= 20
        assert summary.size == database.size
        assert summary.contains("cancer")

    def test_charges_probes_and_downloads(self):
        database = self._database()
        builder = SampledSummaryBuilder(
            ["cancer"], target_documents=10, max_probes=20, seed=2,
            analyzer=Analyzer(stem=False),
        )
        builder.build(database)
        assert database.accounting.probes > 0
        assert database.accounting.documents_downloaded > 0

    def test_df_scaled_to_size(self):
        database = self._database()
        builder = SampledSummaryBuilder(
            ["cancer"], target_documents=30, max_probes=60, seed=3,
            analyzer=Analyzer(stem=False),
        )
        summary = builder.build(database)
        # "cancer" occurs in every document; the scaled estimate should
        # be near the database size.
        assert summary.document_frequency("cancer") >= database.size * 0.8

    def test_no_seed_terms_rejected(self):
        with pytest.raises(SummaryError):
            SampledSummaryBuilder([], target_documents=10)

    def test_miss_raises(self):
        database = self._database()
        builder = SampledSummaryBuilder(
            ["zebra"], target_documents=10, max_probes=5, seed=4,
            analyzer=Analyzer(stem=False),
        )
        with pytest.raises(SummaryError):
            builder.build(database)

    def test_independent_of_string_hash_seed(self):
        # The probe vocabulary grows from sampled documents in a fixed
        # order, so the seeded draws -- and the summary -- are the same
        # in every process, whatever PYTHONHASHSEED it runs under.
        code = textwrap.dedent(
            """
            import json
            from repro.hiddenweb.database import HiddenWebDatabase
            from repro.summaries.builder import SampledSummaryBuilder
            from repro.text.analyzer import Analyzer
            from repro.types import Document

            analyzer = Analyzer(stem=False)
            documents = [
                Document(
                    i,
                    " ".join(
                        f"term{(i * 7 + j * 13) % 41}" for j in range(6)
                    ),
                )
                for i in range(120)
            ]
            database = HiddenWebDatabase("s", documents, analyzer)
            builder = SampledSummaryBuilder(
                ["term0"], target_documents=30, max_probes=60, seed=5,
                analyzer=analyzer,
            )
            print(json.dumps(builder.build(database).to_dict()))
            """
        )
        summaries = []
        for hash_seed in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONPATH=str(Path(repro.__file__).parents[1]),
                PYTHONHASHSEED=hash_seed,
            )
            result = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            )
            summaries.append(result.stdout)
        assert summaries[0] == summaries[1]


class TestTermIndependenceEstimator:
    def test_single_term_equals_df(self):
        summary = ContentSummary("db", 1000, {"cancer": 120})
        estimator = TermIndependenceEstimator()
        assert estimator.estimate(summary, Query(("cancer",))) == 120.0

    def test_two_terms_product(self):
        summary = ContentSummary("db", 1000, {"a": 100, "b": 50})
        estimator = TermIndependenceEstimator()
        # 1000 * (100/1000) * (50/1000) = 5.0
        assert estimator.estimate(summary, Query(("a", "b"))) == pytest.approx(5.0)

    def test_absent_term_zeroes_estimate(self):
        summary = ContentSummary("db", 1000, {"a": 100})
        estimator = TermIndependenceEstimator()
        assert estimator.estimate(summary, Query(("a", "absent"))) == 0.0

    def test_paper_example(self):
        # Example 1 of the paper: 20,000 docs, breast=2,000, cancer=1,000
        # -> r̂ = 100 matching documents.
        summary = ContentSummary(
            "db1", 20_000, {"breast": 2_000, "cancer": 1_000}
        )
        estimator = TermIndependenceEstimator()
        assert estimator.estimate(
            summary, Query(("breast", "cancer"))
        ) == pytest.approx(100.0)

    def test_monotone_in_df(self):
        estimator = TermIndependenceEstimator()
        low = ContentSummary("db", 1000, {"a": 10, "b": 10})
        high = ContentSummary("db", 1000, {"a": 100, "b": 10})
        query = Query(("a", "b"))
        assert estimator.estimate(high, query) > estimator.estimate(low, query)


class TestCoriEstimator:
    def _summaries(self):
        return [
            ContentSummary("a", 100, {"cancer": 50, "heart": 5}),
            ContentSummary("b", 100, {"cancer": 2, "sports": 70}),
        ]

    def test_scores_in_unit_interval(self):
        summaries = self._summaries()
        estimator = CoriEstimator(summaries)
        for summary in summaries:
            score = estimator.estimate(summary, Query(("cancer", "heart")))
            assert 0.0 < score < 1.0

    def test_topical_db_scores_higher(self):
        summaries = self._summaries()
        estimator = CoriEstimator(summaries)
        query = Query(("cancer", "heart"))
        assert estimator.estimate(summaries[0], query) > estimator.estimate(
            summaries[1], query
        )

    def test_absent_terms_give_default_belief(self):
        summaries = self._summaries()
        estimator = CoriEstimator(summaries)
        score = estimator.estimate(summaries[0], Query(("zebra",)))
        assert score == pytest.approx(CoriEstimator.DEFAULT_BELIEF)

    def test_empty_summaries_rejected(self):
        with pytest.raises(Exception):
            CoriEstimator([])


class TestMaxSimilarityEstimator:
    def test_full_coverage_scores_one(self):
        summary = ContentSummary("db", 100, {"a": 10, "b": 20})
        estimator = MaxSimilarityEstimator()
        assert estimator.estimate(summary, Query(("a", "b"))) == pytest.approx(1.0)

    def test_no_coverage_scores_zero(self):
        summary = ContentSummary("db", 100, {"a": 10})
        estimator = MaxSimilarityEstimator()
        assert estimator.estimate(summary, Query(("x", "y"))) == 0.0

    def test_partial_coverage_in_between(self):
        summary = ContentSummary("db", 100, {"a": 10})
        estimator = MaxSimilarityEstimator()
        score = estimator.estimate(summary, Query(("a", "missing")))
        assert 0.0 < score < 1.0
