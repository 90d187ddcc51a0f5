"""Pruning soundness, prune-mode configuration, and RRF fusion.

The load-bearing property here is the exact-mode contract: bound-based
pruning must never change a selection, a probe order, or a certainty
(beyond the repo's 1e-9 float contract) — checked both at the bound
level (``prunable_mask`` vs brute force) and end-to-end through
``Metasearcher`` on randomized corpora.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import knobs
from repro.core.policies import (
    CostAwareGreedyPolicy,
    GreedyUsefulnessPolicy,
    RandomPolicy,
)
from repro.core.pruning import prunable_mask, support_bounds
from repro.core.probing import APro, _pad_survivors
from repro.exceptions import ConfigurationError
from repro.corpus.generator import DatabaseSpec, DocumentGenerator
from repro.hiddenweb.database import RelevancyDefinition
from repro.hiddenweb.mediator import Mediator
from repro.metasearch.fusion import reciprocal_rank_fusion
from repro.metasearch.metasearcher import Metasearcher, MetasearcherConfig
from repro.stats.distribution import DiscreteDistribution as D
from repro.types import Query, ScoredDocument, SearchResult
from tests.test_backend_agreement import assert_agrees


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


@st.composite
def _tie_heavy_bounds(draw):
    """Small-integer bounds, mostly ``(0, 0)`` certain-zero impulses.

    The federation's shape: nearly every best case collides with some
    worst case, so the certificate's tie rule decides most databases.
    """
    n = draw(st.integers(min_value=1, max_value=64))
    mins = np.zeros(n)
    maxs = np.zeros(n)
    for i in range(n):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            low = draw(st.integers(min_value=0, max_value=4))
            mins[i] = low
            maxs[i] = low + draw(st.integers(min_value=0, max_value=3))
    k = draw(st.integers(min_value=1, max_value=n + 1))
    return mins, maxs, k


def _federation_bounds(n=1024, informative=57, seed=7):
    """A fixed federation-shaped case: ~967 of 1024 at ``(0, 0)``, k=1."""
    rng = np.random.default_rng(seed)
    mins = np.zeros(n)
    maxs = np.zeros(n)
    chosen = rng.choice(n, size=informative, replace=False)
    mins[chosen] = rng.integers(0, 20, informative)
    maxs[chosen] = mins[chosen] + rng.integers(0, 40, informative)
    return mins, maxs, 1


class TestBounds:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_bounds(), _tie_heavy_bounds()))
    @example(_federation_bounds())
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
        survivors = np.flatnonzero(~prunable_mask(mins, maxs, k)).tolist()
        assert len(survivors) >= min(k, len(mins))
        assert survivors == sorted(set(survivors))

    def test_ties_respect_mediation_index(self):
        # Equal values: the earlier index wins, so db 0 can prune db 1
        # but never the other way around.
        mins = np.array([5.0, 5.0])
        maxs = np.array([5.0, 5.0])
        assert list(prunable_mask(mins, maxs, 1)) == [False, True]

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_bounds(), _tie_heavy_bounds()), st.data())
    def test_in_support_observation_keeps_survivors(self, case, data):
        # The invariant APro's recheck skips the certificate on: an
        # observation inside a database's prior [min, max] narrows its
        # bounds, so every prunable database stays prunable.
        mins, maxs, k = case
        p = data.draw(st.integers(min_value=0, max_value=len(mins) - 1))
        observed = data.draw(
            st.floats(min_value=float(mins[p]), max_value=float(maxs[p]))
        )
        before = np.flatnonzero(~prunable_mask(mins, maxs, k)).tolist()
        sub = _pad_survivors(np.array(before, dtype=int), mins, k).tolist()
        # The recheck writes the observation into mins/maxs in place.
        assert APro._recheck_certificate(
            (mins, maxs), sub, k, p, observed
        ) == (sub, False)
        after = np.flatnonzero(~prunable_mask(mins, maxs, k))
        assert set(after.tolist()) <= set(before)

    def test_support_bounds_reads_atom_extremes(self, trained_pipeline):
        selector = trained_pipeline["selector"]
        query = trained_pipeline["test_queries"][0]
        rds = selector.build_rds(query)
        mins, maxs = support_bounds(rds)
        for i, rd in enumerate(rds):
            assert mins[i] == min(rd.values)
            assert maxs[i] == max(rd.values)
        empty = support_bounds([])
        assert [len(bound) for bound in empty] == [0, 0]


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
                assert_agrees([b], [a])
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


class _StubSelector:
    """Hand-built RDs behind the selector interface APro consumes."""

    def __init__(self, supports):
        self.rds = [
            D.from_pairs((value, 1.0) for value in support)
            for support in supports
        ]
        self.mediator = [
            SimpleNamespace(name=f"db{i}") for i in range(len(supports))
        ]
        self.definition = RelevancyDefinition.DOCUMENT_FREQUENCY

    def build_rds(self, query, backend=None):
        return list(self.rds)

    def nonzero(self, query):
        # No summaries, so nothing is provably zero.
        return np.arange(len(self.rds))


class _ScriptedProber:
    """Answers every probe from a fixed per-database truth."""

    def __init__(self, truth):
        self.truth = truth

    def probe_batch(self, query, indices):
        return [self.truth[i] for i in indices]


_POLICIES = {
    "greedy": GreedyUsefulnessPolicy,
    "cost-aware": lambda: CostAwareGreedyPolicy([1.0, 2.0, 3.0]),
    "random": lambda: RandomPolicy(seed=3),
}


class TestPrunedRunsMatchUnpruned:
    """Hand-built cases where pruning must re-expand or keep a row.

    Each compares ``prune=True`` against ``prune=False``: the same
    records, the same trajectory names, certainties within 1e-9.
    """

    QUERY = Query(terms=("q",))

    def _assert_same_session(
        self, selector, prober, backend, policy=GreedyUsefulnessPolicy, **run
    ):
        base, pruned = (
            APro(
                selector,
                policy=policy(),
                prober=prober,
                backend=backend,
                prune=prune,
            ).run(self.QUERY, **run)
            for prune in (False, True)
        )
        assert [(r.index, r.observed) for r in base.records] == [
            (r.index, r.observed) for r in pruned.records
        ]
        assert [point.names for point in base.trajectory] == [
            point.names for point in pruned.trajectory
        ]
        for a, b in zip(base.trajectory, pruned.trajectory):
            assert abs(a.expected_correctness - b.expected_correctness) <= (
                1e-9
            )
        return pruned

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_out_of_support_observation_unprunes(
        self, backend, monkeypatch
    ):
        # k=1: db2 is settled at 5, below db0's worst case (6) and
        # nobody else's, so it starts pruned. db0 is probed first and
        # reports 2, below its prior min: nothing certainly beats db2
        # any more, and it must come back.
        selector = _StubSelector([(6, 12), (3, 10), (5,)])
        prober = _ScriptedProber([2.0, 10.0, 5.0])
        start = APro(selector, prober=prober, prune=True).run(
            self.QUERY, k=1, threshold=0.9, max_probes=0
        )
        assert start.pruned_databases == 1
        expansions = []
        recheck = APro._recheck_certificate

        def spy(*args):
            result = recheck(*args)
            expansions.append(result[1])
            return result

        monkeypatch.setattr(APro, "_recheck_certificate", staticmethod(spy))
        pruned = self._assert_same_session(
            selector, prober, backend, k=1, threshold=0.9
        )
        assert expansions[0] is True
        assert pruned.records[0].index == 0
        assert pruned.pruned_databases == 0

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("policy", sorted(_POLICIES))
    @pytest.mark.parametrize(
        "run",
        [
            {"k": 1, "threshold": 1.0},
            {"k": 1, "threshold": 0.5, "force_probes": 3},
        ],
        ids=["threshold-1", "force-probes"],
    )
    def test_policies_see_the_unpruned_candidates(
        self, backend, policy, run
    ):
        # k=1: the certificate rules db0 (best case 4) out, but it is
        # still unsettled. No single probe raises the certainty, so the
        # greedy policies fall back on their tie rules — the earliest
        # candidate (greedy) or the cheapest (cost-aware), db0 both
        # times — and the random policy draws from the candidate list,
        # so a run that dropped db0 would probe differently.
        selector = _StubSelector([(1, 4), (5, 10), (6, 12)])
        prober = _ScriptedProber([4.0, 10.0, 12.0])
        assert np.flatnonzero(
            ~prunable_mask(*support_bounds(selector.rds), 1)
        ).tolist() == [1, 2]
        pruned = self._assert_same_session(
            selector, prober, backend, _POLICIES[policy], **run
        )
        assert pruned.pruned_databases == 0


class TestPruneModeConfig:
    @pytest.mark.parametrize(
        ("raw", "resolved"),
        [
            ("", "off"),
            ("0", "off"),
            ("off", "off"),
            ("1", "exact"),
            ("exact", "exact"),
        ],
    )
    def test_env_aliases(self, monkeypatch, raw, resolved):
        monkeypatch.setenv(knobs.PREFILTER, raw)
        assert MetasearcherConfig().prune_mode == resolved

    def test_env_unset_means_off(self, monkeypatch):
        monkeypatch.delenv(knobs.PREFILTER, raising=False)
        assert MetasearcherConfig().prune_mode == "off"

    def test_env_unknown_raises(self, monkeypatch):
        monkeypatch.setenv(knobs.PREFILTER, "banana")
        with pytest.raises(ConfigurationError):
            MetasearcherConfig()

    def test_explicit_mode_beats_env(self, monkeypatch):
        monkeypatch.setenv(knobs.PREFILTER, "exact")
        assert MetasearcherConfig(prune_mode="off").prune_mode == "off"

    def test_invalid_explicit_mode_raises(self):
        with pytest.raises(ConfigurationError):
            MetasearcherConfig(prune_mode="fuzzy")

    def test_removed_topm_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(knobs.PREFILTER, "topm")
        with pytest.raises(ConfigurationError, match="'topm'"):
            MetasearcherConfig()

    def test_removed_topm_mode_raises(self):
        with pytest.raises(ConfigurationError, match="'topm'"):
            MetasearcherConfig(prune_mode="topm")


class TestFromTrained:
    def test_clone_selects_identically(
        self, trained_metasearcher, health_queries
    ):
        clone = Metasearcher.from_trained(trained_metasearcher)
        for query in health_queries[50:53]:
            a = trained_metasearcher.select(query, k=2, certainty=0.9)
            b = clone.select(query, k=2, certainty=0.9)
            assert a.final.names == b.final.names

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
