"""Tests for the probabilistic top-k machinery.

Includes exact hand-computed cases (the paper's Example 4), Monte-Carlo
cross-validation, and hypothesis property tests.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.topk import CorrectnessMetric, TopKComputer
from repro.exceptions import SelectionError
from repro.stats.distribution import DiscreteDistribution as D

# Every test in this module runs under both numeric backends.
pytestmark = pytest.mark.usefixtures("numeric_backend")


def paper_example4_rds():
    """The RDs of the paper's Example 4 / Fig. 5(d).

    db1: 500 w.p. 0.4, 1000 w.p. 0.5, 1500 w.p. 0.1
    db2: 650 w.p. 0.1, 1300 w.p. 0.9
    The paper concludes P(db2 is top-1) = 0.85.
    """
    db1 = D.from_pairs([(500.0, 0.4), (1000.0, 0.5), (1500.0, 0.1)])
    db2 = D.from_pairs([(650.0, 0.1), (1300.0, 0.9)])
    return [db1, db2]


class TestPaperExamples:
    def test_example4_certainty(self):
        computer = TopKComputer(paper_example4_rds(), k=1)
        # P(db2 beats db1): db2=1300 (0.9) beats 500 and 1000 (0.9) ->
        # 0.81; db2=650 (0.1) beats 500 (0.4) -> 0.04. Total 0.85.
        assert computer.prob_set_is_topk([1]) == pytest.approx(0.85)
        best, score = computer.best_set(CorrectnessMetric.ABSOLUTE)
        assert best == (1,)
        assert score == pytest.approx(0.85)

    def test_example4_after_probe(self):
        # Fig. 5(e): probing db1 observes 500; db2 is now certainly ahead.
        rds = paper_example4_rds()
        rds[0] = D.impulse(500.0)
        computer = TopKComputer(rds, k=1)
        best, score = computer.best_set(CorrectnessMetric.ABSOLUTE)
        assert best == (1,)
        assert score == pytest.approx(1.0)

    def test_example4_override_matches_probe(self):
        computer = TopKComputer(paper_example4_rds(), k=1)
        atoms = computer.atoms_of(0)
        atom_500 = next(t for t, v, _p in atoms if v == 500.0)
        _best, score = computer.best_set(
            CorrectnessMetric.ABSOLUTE, override=(0, atom_500)
        )
        assert score == pytest.approx(1.0)


class TestBasicProperties:
    def test_all_impulses_certain(self):
        rds = [D.impulse(v) for v in (10.0, 5.0, 1.0)]
        computer = TopKComputer(rds, k=2)
        best, score = computer.best_set(CorrectnessMetric.ABSOLUTE)
        assert best == (0, 1)
        assert score == pytest.approx(1.0)

    def test_k_equals_n(self):
        rds = [D.impulse(1.0), D.impulse(2.0)]
        computer = TopKComputer(rds, k=2)
        best, score = computer.best_set(CorrectnessMetric.ABSOLUTE)
        assert best == (0, 1)
        assert score == 1.0

    def test_marginals_sum_to_k(self):
        rng = np.random.default_rng(0)
        rds = [
            D.from_pairs(
                (float(v), float(p))
                for v, p in zip(
                    rng.choice(20, size=4, replace=False), rng.random(4) + 0.1
                )
            )
            for _ in range(6)
        ]
        for k in (1, 2, 4):
            marginals = TopKComputer(rds, k).marginals()
            assert marginals.sum() == pytest.approx(k, abs=1e-9)

    def test_tie_break_lower_index_wins(self):
        rds = [D.impulse(5.0), D.impulse(5.0)]
        computer = TopKComputer(rds, k=1)
        best, score = computer.best_set(CorrectnessMetric.ABSOLUTE)
        assert best == (0,)
        assert score == pytest.approx(1.0)
        # And the marginals agree: db0 wins the tie with certainty.
        marginals = computer.marginals()
        assert marginals[0] == pytest.approx(1.0)
        assert marginals[1] == pytest.approx(0.0)

    def test_k1_tied_marginals_pick_lower_index(self):
        # db1 tops the set exactly when it reads 10, db2 exactly when
        # db1 reads 1: both marginals are 0.5, bit for bit.
        rds = [
            D.impulse(0.0),
            D.from_pairs([(1.0, 0.5), (10.0, 0.5)]),
            D.impulse(5.0),
        ]
        computer = TopKComputer(rds, k=1)
        marginals = computer.marginals()
        assert marginals[1] == marginals[2] == 0.5
        for metric in CorrectnessMetric:
            assert computer.best_set(metric) == ((1,), 0.5)

    def test_partial_expectation_is_mean_of_marginals(self):
        rds = paper_example4_rds() + [D.impulse(700.0)]
        computer = TopKComputer(rds, k=2)
        marginals = computer.marginals()
        value = computer.expected_correctness(
            [0, 2], CorrectnessMetric.PARTIAL
        )
        assert value == pytest.approx((marginals[0] + marginals[2]) / 2)

    def test_absolute_leq_partial(self):
        rds = paper_example4_rds() + [
            D.from_pairs([(100.0, 0.5), (900.0, 0.5)])
        ]
        computer = TopKComputer(rds, k=2)
        for subset in ([0, 1], [0, 2], [1, 2]):
            absolute = computer.expected_correctness(
                subset, CorrectnessMetric.ABSOLUTE
            )
            partial = computer.expected_correctness(
                subset, CorrectnessMetric.PARTIAL
            )
            assert absolute <= partial + 1e-12

    def test_set_probabilities_sum_to_one(self):
        rds = paper_example4_rds() + [
            D.from_pairs([(100.0, 0.5), (900.0, 0.5)])
        ]
        computer = TopKComputer(rds, k=2)
        from itertools import combinations

        total = sum(
            computer.prob_set_is_topk(list(subset))
            for subset in combinations(range(3), 2)
        )
        assert total == pytest.approx(1.0)

    def test_invalid_k(self):
        rds = [D.impulse(1.0)]
        with pytest.raises(SelectionError):
            TopKComputer(rds, k=0)
        with pytest.raises(SelectionError):
            TopKComputer(rds, k=2)

    def test_invalid_subset(self):
        computer = TopKComputer(paper_example4_rds(), k=1)
        with pytest.raises(SelectionError):
            computer.prob_set_is_topk([0, 1])
        with pytest.raises(SelectionError):
            computer.prob_set_is_topk([7])

    def test_invalid_override(self):
        computer = TopKComputer(paper_example4_rds(), k=1)
        atom_of_db1 = computer.atoms_of(1)[0][0]
        with pytest.raises(SelectionError):
            computer.prob_set_is_topk([0], override=(0, atom_of_db1))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_search_equals_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        k = int(rng.integers(2, min(4, n - 1) + 1))
        rds = tied_rds(rng, n)
        computer = TopKComputer(rds, k)
        # The prior, then an in-support and an out-of-support probe.
        database = int(rng.integers(n))
        observed = float(rng.choice(rds[database].values))
        in_support = computer.collapse(database, observed)
        other = (database + 1) % n
        outside = float(rds[other].values.max()) + 0.5
        states = (computer, in_support, in_support.collapse(other, outside))
        for state in states:
            overrides = [None] + [
                (i, t)
                for i in range(n)
                for t, _v, prob in state.atoms_of(i)
                if 0.0 < prob < 1.0
            ]
            for override in overrides:
                best, value = state.best_set(
                    CorrectnessMetric.ABSOLUTE, override=override
                )
                expected, expected_value = brute_force_answer(state, override)
                assert best == expected, (seed, override)
                assert abs(value - expected_value) <= 1e-12, (seed, override)

    def test_first_set_within_tie_window_wins(self):
        # {0, 3} and {1, 3} tie in exact arithmetic; in floats the later
        # set is one ulp higher. The answer is the first set, in row
        # order, within 1e-12 of the maximum.
        rds = [
            D.from_pairs([(3.0, 1.0), (5.0, 1.0)]),
            D.impulse(4.0),
            D.impulse(2.0),
            D.from_pairs([(0.0, 1.0), (5.0, 2.0)]),
            D.from_pairs([(1.0, 2.0), (2.0, 1.0), (4.0, 2.0)]),
        ]
        computer = TopKComputer(rds, k=2)
        first = computer.prob_set_is_topk([0, 3])
        later = computer.prob_set_is_topk([1, 3])
        assert first < later <= first + 1e-12
        best, _value = computer.best_set(CorrectnessMetric.ABSOLUTE)
        assert best == (0, 3)


def tied_rds(rng, n):
    """Random RDs on a small value grid, so values tie across databases;
    about one in five is an impulse."""
    rds = []
    for _ in range(n):
        size = 1 if rng.random() < 0.2 else int(rng.integers(2, 5))
        values = rng.choice(np.arange(8, dtype=np.float64), size, replace=False)
        weights = rng.random(size) + 0.05
        rds.append(D.from_pairs(zip(np.sort(values).tolist(), weights.tolist())))
    return rds


def brute_force_answer(computer, override=None):
    """The answer-set rule over all C(n, k) sets: the first, in row
    order, whose value is within 1e-12 of the largest."""
    scored = [
        (subset, computer.prob_set_is_topk(subset, override))
        for subset in combinations(range(computer.num_databases), computer.k)
    ]
    best = max(value for _subset, value in scored)
    return next((s, value) for s, value in scored if value >= best - 1e-12)


class TestMonteCarloAgreement:
    @staticmethod
    def _mc_topk(rds, k, n_samples, seed):
        rng = np.random.default_rng(seed)
        n = len(rds)
        samples = np.stack([rd.sample(rng, n_samples) for rd in rds])
        # Tie-break: lower index wins, encoded as a tiny index penalty.
        keys = samples - np.arange(n)[:, None] * 1e-9
        order = np.argsort(-keys, axis=0, kind="stable")
        return order[:k, :]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_marginals_match_simulation(self, seed, k):
        rng = np.random.default_rng(seed)
        n = 5
        rds = []
        for _ in range(n):
            size = int(rng.integers(1, 4))
            values = rng.choice(8, size=size, replace=False)
            probs = rng.random(size) + 0.1
            rds.append(
                D.from_pairs(
                    (float(v), float(p)) for v, p in zip(values, probs)
                )
            )
        computer = TopKComputer(rds, k)
        marginals = computer.marginals()
        topk = self._mc_topk(rds, k, 150_000, seed + 100)
        mc = np.array([(topk == i).any(axis=0).mean() for i in range(n)])
        assert np.abs(marginals - mc).max() < 0.01

    @pytest.mark.parametrize("seed", [4, 5])
    def test_set_probability_matches_simulation(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 5, 2
        rds = [
            D.from_pairs(
                (float(v), float(p))
                for v, p in zip(
                    rng.choice(8, size=3, replace=False), rng.random(3) + 0.1
                )
            )
            for _ in range(n)
        ]
        computer = TopKComputer(rds, k)
        best, claimed = computer.best_set(CorrectnessMetric.ABSOLUTE)
        topk = self._mc_topk(rds, k, 150_000, seed + 100)
        hit = np.isin(topk, list(best)).all(axis=0).mean()
        assert claimed == pytest.approx(hit, abs=0.01)


@st.composite
def random_rds(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    rds = []
    for _ in range(n):
        size = draw(st.integers(min_value=1, max_value=3))
        values = draw(
            st.lists(
                st.integers(min_value=0, max_value=10),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        weights = draw(
            st.lists(
                st.floats(min_value=0.05, max_value=1.0),
                min_size=size,
                max_size=size,
            )
        )
        rds.append(
            D.from_pairs(
                (float(v), float(w)) for v, w in zip(values, weights)
            )
        )
    return rds


class TestHypothesisProperties:
    @given(random_rds(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_marginals_are_probabilities_summing_to_k(self, rds, k):
        k = min(k, len(rds))
        marginals = TopKComputer(rds, k).marginals()
        assert np.all(marginals >= -1e-12)
        assert np.all(marginals <= 1 + 1e-12)
        assert marginals.sum() == pytest.approx(k, abs=1e-8)

    @given(random_rds())
    @settings(max_examples=40, deadline=None)
    def test_best_set_score_is_max_marginal_for_k1(self, rds):
        computer = TopKComputer(rds, k=1)
        marginals = computer.marginals()
        best, score = computer.best_set(CorrectnessMetric.ABSOLUTE)
        assert score == pytest.approx(float(marginals.max()), abs=1e-9)
        assert marginals[best[0]] == pytest.approx(score, abs=1e-9)

    @given(random_rds())
    @settings(max_examples=40, deadline=None)
    def test_usefulness_at_least_current_best(self, rds):
        """E[max after probe] >= max E (the greedy policy's soundness)."""
        from repro.core.policies import GreedyUsefulnessPolicy

        computer = TopKComputer(rds, k=1)
        _best, current = computer.best_set(CorrectnessMetric.ABSOLUTE)
        policy = GreedyUsefulnessPolicy()
        for database in range(len(rds)):
            usefulness = policy.usefulness(
                computer, database, CorrectnessMetric.ABSOLUTE
            )
            assert usefulness >= current - 1e-9

    @given(random_rds())
    @settings(max_examples=40, deadline=None)
    def test_probing_every_database_reaches_certainty(self, rds):
        impulses = [D.impulse(rd.mean()) for rd in rds]
        computer = TopKComputer(impulses, k=1)
        _best, score = computer.best_set(CorrectnessMetric.ABSOLUTE)
        assert score == pytest.approx(1.0)


class TestOverrideMemoInterleaving:
    """The override-row cache must survive A→B→A access patterns.

    The pre-batching implementation kept a single-slot override memo, so
    alternating overrides silently recomputed (and could never be
    cross-checked for staleness). The batched usefulness sweep
    interleaves overrides of different databases heavily; these tests
    pin the per-override cache's correctness under that pattern.
    """

    def _three_db_computer(self, k=1):
        rds = [
            D.from_pairs([(500.0, 0.4), (1000.0, 0.5), (1500.0, 0.1)]),
            D.from_pairs([(650.0, 0.1), (1300.0, 0.9)]),
            D.from_pairs([(800.0, 0.6), (1200.0, 0.4)]),
        ]
        return TopKComputer(rds, k)

    def test_interleaved_marginals_stable(self):
        computer = self._three_db_computer()
        atom_a = computer.atoms_of(0)[1][0]
        atom_b = computer.atoms_of(1)[1][0]
        first_a = computer.marginals(override=(0, atom_a))
        first_b = computer.marginals(override=(1, atom_b))
        again_a = computer.marginals(override=(0, atom_a))
        again_b = computer.marginals(override=(1, atom_b))
        np.testing.assert_array_equal(first_a, again_a)
        np.testing.assert_array_equal(first_b, again_b)
        # Cross-check against computers that never interleaved.
        solo = self._three_db_computer()
        np.testing.assert_allclose(
            solo.marginals(override=(0, atom_a)), first_a, atol=1e-12
        )
        solo = self._three_db_computer()
        np.testing.assert_allclose(
            solo.marginals(override=(1, atom_b)), first_b, atol=1e-12
        )

    def test_interleaved_best_set_stable(self):
        for k in (1, 2):
            computer = self._three_db_computer(k)
            atoms = [
                (db, triple[0])
                for db in range(3)
                for triple in computer.atoms_of(db)
            ]
            # Two interleaved passes over every override must agree with
            # a fresh computer evaluating each override once.
            first = [
                computer.best_set(CorrectnessMetric.ABSOLUTE, override=o)
                for o in atoms
            ]
            second = [
                computer.best_set(CorrectnessMetric.ABSOLUTE, override=o)
                for o in atoms
            ]
            assert first == second
            for override, (best, score) in zip(atoms, first):
                fresh = self._three_db_computer(k)
                fresh_best, fresh_score = fresh.best_set(
                    CorrectnessMetric.ABSOLUTE, override=override
                )
                assert best == fresh_best
                assert score == pytest.approx(fresh_score, abs=1e-12)

    def test_interleaved_prob_set_is_topk_stable(self):
        computer = self._three_db_computer(k=2)
        atom_a = computer.atoms_of(0)[0][0]
        atom_b = computer.atoms_of(2)[1][0]
        sequence = [(0, atom_a), (2, atom_b), (0, atom_a), (2, atom_b)]
        values = [
            computer.prob_set_is_topk([0, 2], override=o) for o in sequence
        ]
        assert values[0] == values[2]
        assert values[1] == values[3]
        for override, value in zip(sequence[:2], values[:2]):
            fresh = self._three_db_computer(k=2)
            assert fresh.prob_set_is_topk(
                [0, 2], override=override
            ) == pytest.approx(value, abs=1e-12)


class TestMarginalsKAtLeastN:
    def test_k_equals_n_returns_ones(self):
        computer = TopKComputer(paper_example4_rds(), k=2)
        np.testing.assert_array_equal(
            computer.marginals(), np.ones(2)
        )

    def test_defensive_copy_on_k_geq_n_path(self):
        """Mutating a returned marginals array must not corrupt the memo
        — the k >= n early return goes through the same contract as
        every other path."""
        computer = TopKComputer(paper_example4_rds(), k=2)
        first = computer.marginals()
        first[0] = -42.0
        second = computer.marginals()
        np.testing.assert_array_equal(second, np.ones(2))

    def test_defensive_copy_on_general_path(self):
        computer = TopKComputer(paper_example4_rds(), k=1)
        first = computer.marginals()
        expected = first.copy()
        first[:] = -1.0
        np.testing.assert_array_equal(computer.marginals(), expected)
