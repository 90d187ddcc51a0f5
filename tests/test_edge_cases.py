"""Edge-case and failure-injection tests across modules."""

import numpy as np
import pytest

from repro.core.probing import APro
from repro.core.topk import CorrectnessMetric, TopKComputer
from repro.engine.index import InvertedIndex
from repro.engine.searcher import Searcher
from repro.exceptions import ConfigurationError, ProbingError
from repro.experiments.setup import PaperSetupConfig, build_paper_context
from repro.stats.distribution import DiscreteDistribution
from repro.text.analyzer import Analyzer
from repro.types import Document, Query


class TestEmptyAndDegenerateEngines:
    def test_empty_index_searches_cleanly(self):
        index = InvertedIndex(Analyzer())
        index.freeze()
        searcher = Searcher(index)
        result = searcher.search(Query(("anything",)))
        assert result.num_matches == 0
        assert result.top_documents == ()

    def test_single_document_database(self):
        index = InvertedIndex(Analyzer(stem=False))
        index.add(Document(0, "lonely document text"))
        index.freeze()
        assert index.match_count(Query(("lonely",))) == 1
        assert index.idf("lonely") > 0

    def test_document_of_only_stopwords(self):
        index = InvertedIndex(Analyzer())
        index.add(Document(0, "the of and is"))
        index.freeze()
        assert index.num_documents == 1
        assert index.vocabulary_size == 0

    def test_freeze_idempotent(self):
        index = InvertedIndex(Analyzer(stem=False))
        index.add(Document(0, "alpha beta"))
        index.freeze()
        index.freeze()  # second call is a no-op
        assert index.num_documents == 1


class TestDistributionEdges:
    def test_sample_zero_count(self):
        dist = DiscreteDistribution.impulse(3.0)
        draws = dist.sample(np.random.default_rng(0), 0)
        assert len(draws) == 0

    def test_two_atom_extremes(self):
        dist = DiscreteDistribution.from_pairs([(0.0, 1e-9), (1.0, 1.0)])
        assert dist.prob_of(0.0) < 1e-6
        assert dist.mean() == pytest.approx(1.0, abs=1e-6)

    def test_large_values(self):
        dist = DiscreteDistribution.from_pairs([(1e12, 0.5), (2e12, 0.5)])
        assert dist.mean() == pytest.approx(1.5e12)


class TestTopKEdges:
    def test_single_database(self):
        computer = TopKComputer([DiscreteDistribution.impulse(5.0)], 1)
        best, score = computer.best_set(CorrectnessMetric.ABSOLUTE)
        assert best == (0,)
        assert score == 1.0

    def test_identical_rds_tie_chain(self):
        rd = DiscreteDistribution.from_pairs([(1.0, 0.5), (2.0, 0.5)])
        rds = [rd, rd, rd]
        computer = TopKComputer(rds, 2)
        marginals = computer.marginals()
        # Earlier databases win ties, so marginals must be non-increasing.
        assert marginals[0] >= marginals[1] >= marginals[2]
        assert marginals.sum() == pytest.approx(2.0)

    def test_zero_valued_relevancies(self):
        rds = [
            DiscreteDistribution.impulse(0.0),
            DiscreteDistribution.impulse(0.0),
        ]
        computer = TopKComputer(rds, 1)
        best, score = computer.best_set(CorrectnessMetric.ABSOLUTE)
        assert best == (0,)  # tie at zero goes to the first database
        assert score == pytest.approx(1.0)


class _MisbehavingPolicy:
    """A policy that returns a database outside the candidate list."""

    def choose(self, computer, candidates, metric, threshold, deadline=None):
        return -1


class TestProbingEdges:
    def test_misbehaving_policy_detected(self, trained_pipeline):
        apro = APro(trained_pipeline["selector"], _MisbehavingPolicy())
        query = trained_pipeline["test_queries"][0]
        session_needed = (
            trained_pipeline["selector"]
            .select(query, 1)
            .expected_correctness
            < 1.0
        )
        if not session_needed:
            pytest.skip("query already certain; no probe would be issued")
        with pytest.raises(ProbingError):
            apro.run(query, k=1, threshold=1.0)

    def test_force_probes_capped_by_max_probes(self, trained_pipeline):
        apro = APro(trained_pipeline["selector"])
        query = trained_pipeline["test_queries"][1]
        session = apro.run(
            query, k=1, threshold=0.0, force_probes=10, max_probes=2
        )
        assert session.num_probes <= 2

    def test_zero_max_probes(self, trained_pipeline):
        apro = APro(trained_pipeline["selector"])
        query = trained_pipeline["test_queries"][2]
        session = apro.run(query, k=1, threshold=1.0, max_probes=0)
        assert session.num_probes == 0

    def test_k_equals_n_needs_no_probes(self, trained_pipeline):
        apro = APro(trained_pipeline["selector"])
        query = trained_pipeline["test_queries"][3]
        n = len(trained_pipeline["mediator"])
        session = apro.run(query, k=n, threshold=1.0)
        assert session.num_probes == 0
        assert session.final.expected_correctness == 1.0


class TestSetupEdges:
    def test_impossible_filter_exhausts_budget(self):
        config = PaperSetupConfig(
            scale=0.02,
            n_train=3,
            n_test=2,
            min_matching_databases=21,  # more than the 20 databases
        )
        with pytest.raises(ConfigurationError):
            build_paper_context(config)
