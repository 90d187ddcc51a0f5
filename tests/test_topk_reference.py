"""Cross-check TopKComputer against an exact brute-force reference.

The reference enumerates the full joint support (product of all atom
combinations) and computes every probability by summation — exponential
but exact, so agreement is to machine precision rather than Monte-Carlo
tolerance.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correctness import rank_by_relevancy
from repro.core.topk import CorrectnessMetric, TopKComputer
from repro.stats.distribution import DiscreteDistribution as D

# Every test in this module runs under both numeric backends.
pytestmark = pytest.mark.usefixtures("numeric_backend")


def brute_force_topk_stats(rds, k):
    """Exact marginals and set probabilities by joint enumeration."""
    n = len(rds)
    atom_lists = [list(rd.atoms()) for rd in rds]
    marginals = np.zeros(n)
    set_probs: dict[tuple[int, ...], float] = {}
    for combo in product(*atom_lists):
        prob = 1.0
        values = []
        for value, p in combo:
            prob *= p
            values.append(value)
        winners = rank_by_relevancy(values, k)
        for i in winners:
            marginals[i] += prob
        set_probs[winners] = set_probs.get(winners, 0.0) + prob
    return marginals, set_probs


def make_rds(spec):
    """spec: list of list of (value, weight) pairs."""
    return [D.from_pairs(pairs) for pairs in spec]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_instances(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        k = min(k, n)
        rds = []
        for _ in range(n):
            size = int(rng.integers(1, 4))
            values = rng.choice(6, size=size, replace=False)
            weights = rng.random(size) + 0.05
            rds.append(
                D.from_pairs(
                    (float(v), float(w)) for v, w in zip(values, weights)
                )
            )
        computer = TopKComputer(rds, k)
        ref_marginals, ref_sets = brute_force_topk_stats(rds, k)

        assert np.allclose(computer.marginals(), ref_marginals, atol=1e-12)
        from itertools import combinations

        for subset in combinations(range(n), k):
            expected = ref_sets.get(tuple(subset), 0.0)
            assert computer.prob_set_is_topk(list(subset)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_with_heavy_ties(self):
        # Everything collides at value 3 except one distinct atom.
        rds = make_rds(
            [
                [(3.0, 1.0)],
                [(3.0, 0.5), (5.0, 0.5)],
                [(3.0, 1.0)],
            ]
        )
        computer = TopKComputer(rds, 2)
        ref_marginals, ref_sets = brute_force_topk_stats(rds, 2)
        assert np.allclose(computer.marginals(), ref_marginals, atol=1e-12)
        for subset, expected in ref_sets.items():
            assert computer.prob_set_is_topk(list(subset)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_override_equals_conditioning(self):
        rds = make_rds(
            [
                [(1.0, 0.3), (4.0, 0.7)],
                [(2.0, 0.6), (3.0, 0.4)],
                [(0.0, 0.5), (5.0, 0.5)],
            ]
        )
        computer = TopKComputer(rds, 1)
        for database in range(3):
            for atom_index, value, _prob in computer.atoms_of(database):
                conditioned = list(rds)
                conditioned[database] = D.impulse(value)
                reference = TopKComputer(conditioned, 1)
                for target in range(3):
                    overridden = computer.prob_set_is_topk(
                        [target], override=(database, atom_index)
                    )
                    direct = reference.prob_set_is_topk([target])
                    assert overridden == pytest.approx(direct, abs=1e-12)

    def test_usefulness_equals_average_of_conditioned_best(self):
        """Greedy usefulness must equal the explicit conditioning average."""
        from repro.core.policies import GreedyUsefulnessPolicy

        rds = make_rds(
            [
                [(1.0, 0.25), (4.0, 0.75)],
                [(2.0, 0.5), (3.0, 0.5)],
            ]
        )
        computer = TopKComputer(rds, 1)
        policy = GreedyUsefulnessPolicy()
        for database in range(2):
            explicit = 0.0
            for value, prob in rds[database].atoms():
                conditioned = list(rds)
                conditioned[database] = D.impulse(value)
                _s, score = TopKComputer(conditioned, 1).best_set(
                    CorrectnessMetric.ABSOLUTE
                )
                explicit += prob * score
            assert policy.usefulness(
                computer, database, CorrectnessMetric.ABSOLUTE
            ) == pytest.approx(explicit, abs=1e-12)


@st.composite
def small_instances(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    rds = []
    for _ in range(n):
        size = draw(st.integers(min_value=1, max_value=3))
        values = draw(
            st.lists(
                st.integers(min_value=0, max_value=5),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        weights = draw(
            st.lists(
                st.floats(min_value=0.1, max_value=1.0),
                min_size=size,
                max_size=size,
            )
        )
        rds.append(
            D.from_pairs((float(v), float(w)) for v, w in zip(values, weights))
        )
    k = draw(st.integers(min_value=1, max_value=n))
    return rds, k


class TestHypothesisAgainstBruteForce:
    @given(small_instances())
    @settings(max_examples=80, deadline=None)
    def test_marginals_exact(self, instance):
        rds, k = instance
        computer = TopKComputer(rds, k)
        reference, _sets = brute_force_topk_stats(rds, k)
        assert np.allclose(computer.marginals(), reference, atol=1e-10)

    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_best_set_probability_exact(self, instance):
        rds, k = instance
        computer = TopKComputer(rds, k)
        _reference, sets = brute_force_topk_stats(rds, k)
        best, claimed = computer.best_set(CorrectnessMetric.ABSOLUTE)
        assert claimed == pytest.approx(
            max(sets.values()), abs=1e-10
        )
        assert sets.get(tuple(best), 0.0) == pytest.approx(claimed, abs=1e-10)
