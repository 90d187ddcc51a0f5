"""Pruning soundness, the prefilter tier, RRF fusion, and the scale benches.

The load-bearing property here is the exact-mode contract: bound-based
pruning must never change a selection, a probe order, or a certainty
(beyond the repo's 1e-9 float contract) — checked both at the bound
level (``prunable_mask`` vs brute force) and end-to-end through
``Metasearcher`` on randomized corpora.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import CostAwareGreedyPolicy
from repro.core.pruning import prunable_mask, support_bounds, survivor_indices
from repro.core.probing import APro
from repro.exceptions import ConfigurationError
from repro.corpus.generator import DatabaseSpec, DocumentGenerator
from repro.hiddenweb.database import RelevancyDefinition
from repro.hiddenweb.mediator import Mediator
from repro.metasearch.fusion import reciprocal_rank_fusion
from repro.metasearch.metasearcher import (
    PREFILTER_ENV,
    Metasearcher,
    MetasearcherConfig,
)
from repro.metasearch.prefilter import PrefilterTier
from repro.types import Query, ScoredDocument, SearchResult


def _brute_force_prunable(mins, maxs, k):
    """Reference: i prunable iff >= k databases certainly beat it."""
    n = len(mins)
    out = []
    for i in range(n):
        beats = sum(
            1
            for j in range(n)
            if (mins[j], -j) > (maxs[i], -i)
        )
        out.append(beats >= k)
    return np.array(out, dtype=bool)


@st.composite
def _bounds(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [
        sorted(
            (
                draw(st.floats(0, 10, allow_nan=False, width=32)),
                draw(st.floats(0, 10, allow_nan=False, width=32)),
            )
        )
        for _ in range(n)
    ]
    mins = np.array([p[0] for p in pairs], dtype=np.float64)
    maxs = np.array([p[1] for p in pairs], dtype=np.float64)
    k = draw(st.integers(min_value=1, max_value=n + 1))
    return mins, maxs, k


class TestBounds:
    @settings(max_examples=200, deadline=None)
    @given(_bounds())
    def test_mask_matches_brute_force(self, case):
        mins, maxs, k = case
        assert np.array_equal(
            prunable_mask(mins, maxs, k),
            _brute_force_prunable(mins, maxs, k),
        )

    @settings(max_examples=200, deadline=None)
    @given(_bounds())
    def test_survivor_floor(self, case):
        mins, maxs, k = case
        survivors = survivor_indices(mins, maxs, k)
        assert len(survivors) >= min(k, len(mins))
        assert survivors == sorted(set(survivors))

    def test_ties_respect_mediation_index(self):
        # Equal values: the earlier index wins, so db 0 can prune db 1
        # but never the other way around.
        mins = np.array([5.0, 5.0])
        maxs = np.array([5.0, 5.0])
        assert list(prunable_mask(mins, maxs, 1)) == [False, True]

    def test_support_bounds_reads_atom_extremes(self, trained_pipeline):
        selector = trained_pipeline["selector"]
        query = trained_pipeline["test_queries"][0]
        rds = selector.build_rds(query)
        mins, maxs = support_bounds(rds)
        for i, rd in enumerate(rds):
            assert mins[i] == pytest.approx(min(rd.values))
            assert maxs[i] == pytest.approx(max(rd.values))


def _random_testbed(rng, registry, background, analyzer, n_databases=8):
    topics = registry.names()
    generator = DocumentGenerator(registry, background)
    corpora = {}
    for i in range(n_databases):
        dominant = topics[int(rng.integers(len(topics)))]
        other = topics[int(rng.integers(len(topics)))]
        spec = DatabaseSpec(
            name=f"rnd{i}",
            size=int(rng.integers(30, 120)),
            topic_mixture={dominant: 6.0, other: 2.0},
            background_fraction=float(rng.uniform(0.3, 0.6)),
            seed=int(rng.integers(1, 10_000)),
        )
        corpora[spec.name] = generator.generate(spec)
    return Mediator.from_documents(corpora, analyzer=analyzer)


class TestExactModeIdentity:
    def _assert_identical(self, base, exact, queries, ks):
        pruned_total = 0
        for query in queries:
            for k in ks:
                a = base.select(query, k=k, certainty=0.9)
                b = exact.select(query, k=k, certainty=0.9)
                assert a.final.names == b.final.names
                assert [(r.index, r.observed) for r in a.records] == [
                    (r.index, r.observed) for r in b.records
                ]
                assert abs(
                    a.final.expected_correctness
                    - b.final.expected_correctness
                ) <= 1e-9
                assert a.pruned_databases == 0
                pruned_total += b.pruned_databases
        return pruned_total

    def test_tiny_testbed(self, trained_metasearcher, health_queries):
        # Clone an explicitly-off base: the session fixture inherits
        # whatever REPRO_PREFILTER resolves to, and this test must
        # compare exact against a genuinely unpruned path.
        base = Metasearcher.from_trained(
            trained_metasearcher,
            MetasearcherConfig(samples_per_type=10, prune_mode="off"),
        )
        exact = Metasearcher.from_trained(
            trained_metasearcher,
            MetasearcherConfig(samples_per_type=10, prune_mode="exact"),
        )
        self._assert_identical(
            base, exact, health_queries[40:46], (1, 2, 3)
        )

    def test_randomized_corpora(
        self, registry, background_vocab, analyzer, health_queries
    ):
        # The property the exact mode rests on: across random corpora
        # and every k, pruning never excludes a database the unpruned
        # run selects — selections are bit-identical.
        rng = np.random.default_rng(4242)
        pruned_total = 0
        for _ in range(2):
            mediator = _random_testbed(
                rng, registry, background_vocab, analyzer
            )
            base = Metasearcher(
                mediator,
                MetasearcherConfig(samples_per_type=6, prune_mode="off"),
                analyzer=analyzer,
            )
            base.train(health_queries[:20])
            exact = Metasearcher.from_trained(
                base,
                MetasearcherConfig(
                    samples_per_type=6, prune_mode="exact"
                ),
            )
            pruned_total += self._assert_identical(
                base, exact, health_queries[20:24], (1, 2, 3)
            )
        # The sweep must actually exercise the pruning path.
        assert pruned_total > 0

    def test_cost_aware_policy_charges_mediation_costs(
        self, registry, background_vocab, analyzer, health_queries
    ):
        # Under pruning the policy sees survivor rows, not mediation
        # indices; it must still charge each row its own database's
        # cost, or cost-aware probe orders drift from the unpruned run.
        rng = np.random.default_rng(4242)
        for _ in range(2):
            mediator = _random_testbed(
                rng, registry, background_vocab, analyzer
            )
            costs = [1.0 + i % 4 for i in range(len(mediator))]
            base = Metasearcher(
                mediator,
                MetasearcherConfig(samples_per_type=6, prune_mode="off"),
                policy=CostAwareGreedyPolicy(costs),
                analyzer=analyzer,
            )
            base.train(health_queries[:20])
            exact = Metasearcher.from_trained(
                base,
                MetasearcherConfig(
                    samples_per_type=6, prune_mode="exact"
                ),
            )
            self._assert_identical(
                base, exact, health_queries[20:40], (1, 2, 3)
            )

    def test_backends_agree_under_pruning(self, trained_pipeline):
        sessions = []
        for backend in ("numpy", "python"):
            apro = APro(
                trained_pipeline["selector"], backend=backend, prune=True
            )
            sessions.append(
                [
                    apro.run(query, k=2, threshold=0.9)
                    for query in trained_pipeline["test_queries"][:4]
                ]
            )
        for a, b in zip(*sessions):
            assert a.final.names == b.final.names
            assert [(r.index, r.observed) for r in a.records] == [
                (r.index, r.observed) for r in b.records
            ]
            assert abs(
                a.final.expected_correctness - b.final.expected_correctness
            ) <= 1e-9


class TestPrefilterTier:
    @pytest.fixture(scope="class")
    def tier(self, tiny_mediator, analyzer, registry):
        return PrefilterTier.train(
            tiny_mediator,
            RelevancyDefinition.DOCUMENT_FREQUENCY,
            analyzer=analyzer,
            registry=registry,
        )

    def test_keep_is_deterministic_and_ascending(self, tier, analyzer):
        query = Query(terms=tuple(analyzer.analyze("cancer chemotherapy")))
        kept = tier.keep(query, top_m=2)
        assert kept == tier.keep(query, top_m=2)
        assert list(kept) == sorted(set(kept))
        assert len(kept) == 2

    def test_keep_clamps_to_population(self, tier, analyzer):
        query = Query(terms=tuple(analyzer.analyze("cancer")))
        assert len(tier.keep(query, top_m=99)) == tier.num_databases

    def test_unmatched_query_degrades_to_first_m(self, tier):
        query = Query(terms=("zzzzunseen",))
        assert tier.keep(query, top_m=2) == (0, 1)

    def test_top_m_validation(self, tier):
        with pytest.raises(ConfigurationError):
            tier.keep(Query(terms=("cancer",)), top_m=0)

    def test_state_round_trip(self, tier, analyzer):
        clone = PrefilterTier.from_state(
            json.loads(json.dumps(tier.state()))
        )
        query = Query(terms=tuple(analyzer.analyze("heart cholesterol")))
        assert np.allclose(clone.scores(query), tier.scores(query))
        assert clone.keep(query, top_m=3) == tier.keep(query, top_m=3)


class TestPruneModeConfig:
    @pytest.mark.parametrize(
        ("raw", "resolved"),
        [
            ("", "off"),
            ("0", "off"),
            ("off", "off"),
            ("1", "exact"),
            ("exact", "exact"),
            ("topm", "topm"),
        ],
    )
    def test_env_aliases(self, monkeypatch, raw, resolved):
        monkeypatch.setenv(PREFILTER_ENV, raw)
        assert MetasearcherConfig().prune_mode == resolved

    def test_env_unset_means_off(self, monkeypatch):
        monkeypatch.delenv(PREFILTER_ENV, raising=False)
        assert MetasearcherConfig().prune_mode == "off"

    def test_env_unknown_raises(self, monkeypatch):
        monkeypatch.setenv(PREFILTER_ENV, "banana")
        with pytest.raises(ConfigurationError):
            MetasearcherConfig()

    def test_explicit_mode_beats_env(self, monkeypatch):
        monkeypatch.setenv(PREFILTER_ENV, "topm")
        assert MetasearcherConfig(prune_mode="off").prune_mode == "off"

    def test_invalid_explicit_mode_raises(self):
        with pytest.raises(ConfigurationError):
            MetasearcherConfig(prune_mode="fuzzy")

    def test_top_m_validated(self):
        with pytest.raises(ConfigurationError):
            MetasearcherConfig(prefilter_top_m=0)


class TestFromTrained:
    def test_clone_selects_identically(
        self, trained_metasearcher, health_queries
    ):
        clone = Metasearcher.from_trained(trained_metasearcher)
        for query in health_queries[50:53]:
            a = trained_metasearcher.select(query, k=2, certainty=0.9)
            b = clone.select(query, k=2, certainty=0.9)
            assert a.final.names == b.final.names

    def test_topm_clone_gets_a_prefilter(
        self, trained_metasearcher, health_queries
    ):
        clone = Metasearcher.from_trained(
            trained_metasearcher,
            MetasearcherConfig(
                samples_per_type=10,
                prune_mode="topm",
                prefilter_top_m=2,
            ),
        )
        assert clone.prefilter is not None
        assert trained_metasearcher.prefilter is None
        session = clone.select(health_queries[54], k=1, certainty=0.9)
        assert session.pruned_databases >= 2  # 4 dbs, keep 2 at most

    def test_untrained_source_rejected(self, tiny_mediator, analyzer):
        fresh = Metasearcher(
            tiny_mediator,
            MetasearcherConfig(samples_per_type=10),
            analyzer=analyzer,
        )
        with pytest.raises(Exception):
            Metasearcher.from_trained(fresh)


def _page(query, *hits):
    return SearchResult(
        query=query,
        num_matches=len(hits),
        top_documents=tuple(
            ScoredDocument(doc_id=d, score=s) for d, s in hits
        ),
    )


class TestReciprocalRankFusion:
    def test_rank_then_tiebreak_order(self):
        query = Query(terms=("q",))
        results = {
            "b": _page(query, (3, 0.2)),
            "a": _page(query, (1, 0.9), (2, 0.5)),
        }
        fused = reciprocal_rank_fusion(results, limit=10)
        assert [(h.database, h.doc_id) for h in fused] == [
            ("a", 1),
            ("b", 3),
            ("a", 2),
        ]
        assert fused[0].score == pytest.approx(1.0 / 61.0)
        assert fused[2].score == pytest.approx(1.0 / 62.0)

    def test_score_scale_is_ignored(self):
        query = Query(terms=("q",))
        small = {"a": _page(query, (1, 0.001), (2, 0.0001))}
        large = {"a": _page(query, (1, 900.0), (2, 5.0))}
        assert reciprocal_rank_fusion(small) == reciprocal_rank_fusion(
            large
        )

    def test_limit_and_empty(self):
        query = Query(terms=("q",))
        results = {"a": _page(query, (1, 0.9), (2, 0.5))}
        assert len(reciprocal_rank_fusion(results, limit=1)) == 1
        assert reciprocal_rank_fusion({}) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            reciprocal_rank_fusion({}, limit=-1)
        with pytest.raises(ValueError):
            reciprocal_rank_fusion({}, k0=0.0)
