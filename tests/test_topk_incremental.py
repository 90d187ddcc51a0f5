"""Property tests for incremental belief updates (``TopKComputer.collapse``).

The contract under test: a computer evolved through a chain of
``collapse(i, value)`` calls answers every query exactly like a fresh
:class:`TopKComputer` built from the post-probe RDs — for in-support
observations, out-of-support observations (midpoint rank insertion),
and observed values duplicating another database's support atom.
Also covers greedy usefulness against a brute-force reference built on
joint enumeration, memo migration across collapse, the batched
answer-set search's chunking contract, and the DP chains and rank masks
a collapsed computer reuses from its parent.
"""

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import GreedyUsefulnessPolicy
from repro.core.topk import CorrectnessMetric, TopKComputer
from repro.stats.distribution import DiscreteDistribution as D
from tests.test_topk_reference import brute_force_topk_stats

# Every test in this module runs under both numeric backends.
pytestmark = pytest.mark.usefixtures("numeric_backend")

ATOL = 1e-9


def random_rds(rng, n, max_support=5, impulse_prob=0.15):
    """Random RDs with small integer supports, duplicates across
    databases, and an occasional pre-collapsed impulse."""
    rds = []
    for _ in range(n):
        if rng.random() < impulse_prob:
            rds.append(D.impulse(float(rng.integers(0, 12))))
            continue
        size = int(rng.integers(1, max_support))
        values = rng.choice(12, size=size, replace=False)
        probs = rng.random(size) + 0.05
        rds.append(
            D.from_pairs(
                (float(v), float(p)) for v, p in zip(values, probs)
            )
        )
    return rds


def observed_value(rng, rds, i):
    """An observation that is in-support, out-of-support, or a
    duplicate of another database's support value."""
    roll = rng.random()
    if roll < 0.4:
        return float(rng.choice(rds[i].values))
    if roll < 0.7:
        return float(rng.integers(0, 15)) + 0.5  # never in any support
    j = int(rng.integers(len(rds)))
    return float(rng.choice(rds[j].values))


def assert_agrees(incremental, fresh, n, k):
    np.testing.assert_allclose(
        incremental.marginals(), fresh.marginals(), atol=ATOL
    )
    for metric in CorrectnessMetric:
        best_inc, score_inc = incremental.best_set(metric)
        best_fresh, score_fresh = fresh.best_set(metric)
        assert best_inc == best_fresh
        assert score_inc == pytest.approx(score_fresh, abs=ATOL)
    if k < n:
        for subset in list(combinations(range(n), k))[:6]:
            assert incremental.prob_set_is_topk(
                list(subset)
            ) == pytest.approx(
                fresh.prob_set_is_topk(list(subset)), abs=ATOL
            )


class TestCollapseAgreesWithRebuild:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_probe_chains(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        rds = random_rds(rng, n)
        incremental = TopKComputer(rds, k)
        current = list(rds)
        for i in rng.permutation(n):
            i = int(i)
            value = observed_value(rng, current, i)
            incremental = incremental.collapse(i, value)
            current[i] = D.impulse(value)
            assert_agrees(incremental, TopKComputer(current, k), n, k)

    def test_out_of_support_between_existing_ranks(self):
        rds = [
            D.from_pairs([(10.0, 0.5), (20.0, 0.5)]),
            D.from_pairs([(12.0, 0.3), (18.0, 0.7)]),
            D.from_pairs([(15.0, 1.0)]),
        ]
        incremental = TopKComputer(rds, 1).collapse(0, 16.0)
        fresh = TopKComputer(
            [D.impulse(16.0), rds[1], rds[2]], 1
        )
        assert_agrees(incremental, fresh, 3, 1)

    def test_duplicate_of_other_database_tie_break(self):
        # Observed value equals db1's support value: the tie must break
        # toward the earlier database exactly as in a fresh build.
        rds = [
            D.from_pairs([(5.0, 0.5), (9.0, 0.5)]),
            D.from_pairs([(7.0, 1.0)]),
        ]
        for db, value in ((0, 7.0), (1, 9.0)):
            incremental = TopKComputer(rds, 1).collapse(db, value)
            current = list(rds)
            current[db] = D.impulse(value)
            assert_agrees(incremental, TopKComputer(current, 1), 2, 1)

    def test_collapse_chain_usefulness_matches_fresh(self):
        rng = np.random.default_rng(99)
        rds = random_rds(rng, 5)
        k = 2
        incremental = TopKComputer(rds, k)
        current = list(rds)
        policy = GreedyUsefulnessPolicy()
        for i in (3, 0, 4):
            value = observed_value(rng, current, i)
            incremental = incremental.collapse(i, value)
            current[i] = D.impulse(value)
            fresh = TopKComputer(current, k)
            for database in range(5):
                for metric in CorrectnessMetric:
                    assert policy.usefulness(
                        incremental, database, metric
                    ) == pytest.approx(
                        policy.usefulness(fresh, database, metric),
                        abs=ATOL,
                    )

    def test_collapse_validates_database_index(self):
        computer = TopKComputer([D.impulse(1.0), D.impulse(2.0)], 1)
        from repro.exceptions import SelectionError

        with pytest.raises(SelectionError):
            computer.collapse(5, 1.0)


class TestMemoMigration:
    def test_best_set_memo_migrates_on_in_support_collapse(self):
        """The usefulness sweep's answer under override=(i, t0) becomes
        the post-collapse no-override answer when t0 is observed."""
        rds = [
            D.from_pairs([(500.0, 0.4), (1000.0, 0.5), (1500.0, 0.1)]),
            D.from_pairs([(650.0, 0.1), (1300.0, 0.9)]),
            D.from_pairs([(800.0, 0.6), (1200.0, 0.4)]),
        ]
        computer = TopKComputer(rds, 1)
        atom = next(
            t for t, v, _p in computer.atoms_of(0) if v == 1000.0
        )
        best_override, score_override = computer.best_set(
            CorrectnessMetric.ABSOLUTE, override=(0, atom)
        )
        collapsed = computer.collapse(0, 1000.0)
        best_after, score_after = collapsed.best_set(
            CorrectnessMetric.ABSOLUTE
        )
        assert best_after == best_override
        assert score_after == pytest.approx(score_override, abs=1e-12)
        # And it matches a fresh rebuild.
        fresh = TopKComputer(
            [D.impulse(1000.0), rds[1], rds[2]], 1
        )
        assert fresh.best_set(CorrectnessMetric.ABSOLUTE)[
            1
        ] == pytest.approx(score_after, abs=ATOL)

        # The same at k = 3 for every atom of two databases, where a
        # vectorized backend answers every override from one batched
        # search and migrates the observed lane's answer from its lane
        # arrays: the answer moves over as it was, float for float.
        rds = random_rds(np.random.default_rng(21), 9, impulse_prob=0.0)
        computer = TopKComputer(rds, 3)
        for database in (2, 6):
            for t0, value, _p in computer.atoms_of(database):
                answer = computer.best_set(
                    CorrectnessMetric.ABSOLUTE, override=(database, t0)
                )
                collapsed = computer.collapse(database, value)
                best_after, score_after = collapsed.best_set(
                    CorrectnessMetric.ABSOLUTE
                )
                assert (best_after, score_after) == answer
                current = list(rds)
                current[database] = D.impulse(value)
                best_fresh, score_fresh = TopKComputer(current, 3).best_set(
                    CorrectnessMetric.ABSOLUTE
                )
                assert best_fresh == best_after
                assert score_fresh == pytest.approx(score_after, abs=ATOL)

    def test_collapsed_computer_not_polluted_by_parent_overrides(self):
        """Memo entries for overrides of *other* databases must not leak
        into the collapsed computer's no-override answers."""
        rng = np.random.default_rng(5)
        rds = random_rds(rng, 4, impulse_prob=0.0)
        computer = TopKComputer(rds, 2)
        # Populate override memos for every database (a full sweep).
        policy = GreedyUsefulnessPolicy()
        for database in range(4):
            policy.usefulness(
                computer, database, CorrectnessMetric.ABSOLUTE
            )
        value = float(rds[1].values[0])
        collapsed = computer.collapse(1, value)
        current = list(rds)
        current[1] = D.impulse(value)
        assert_agrees(collapsed, TopKComputer(current, 2), 4, 2)

        # At k = 3 the sweep fills the memo for every override of every
        # database at once.
        rds = random_rds(rng, 9, impulse_prob=0.0)
        computer = TopKComputer(rds, 3)
        for database in range(9):
            policy.usefulness(
                computer, database, CorrectnessMetric.ABSOLUTE
            )
        for database, value in ((4, float(rds[4].values[-1])), (7, 99.5)):
            collapsed = computer.collapse(database, value)
            current = list(rds)
            current[database] = D.impulse(value)
            assert_agrees(collapsed, TopKComputer(current, 3), 9, 3)


def lane_overrides(computer):
    """Every override a greedy sweep can ask for: atoms with 0 < P < 1."""
    return [
        (database, atom)
        for database in range(computer.num_databases)
        for atom, _value, prob in computer.atoms_of(database)
        if 0.0 < prob < 1.0
    ]


class TestBatchedClimbChunks:
    """The batched answer-set search answers the same for any chunking."""

    def run(self, monkeypatch, rds, limit):
        calls = []
        original = TopKComputer._sweep_table

        def spy(self, xs, pools, lane_group, lane_t0, chunk):
            calls.append((pools.shape[1], len(pools), chunk))
            return original(self, xs, pools, lane_group, lane_t0, chunk)

        monkeypatch.setattr(TopKComputer, "_sweep_table", spy)
        monkeypatch.setattr(TopKComputer, "_SWEEP_BATCH_LIMIT", limit)
        computer = TopKComputer(rds, 3, backend="numpy")
        answers = {
            override: computer.best_set(
                CorrectnessMetric.ABSOLUTE, override=override
            )
            for override in lane_overrides(computer)
        }
        return answers, calls

    def test_chunk_sizes_do_not_change_answers(self, monkeypatch):
        # Seed 12 gives five pool sizes, one shared by more than 7 groups.
        rds = random_rds(np.random.default_rng(12), 14, impulse_prob=0.1)
        whole, calls = self.run(monkeypatch, rds, 10**12)
        # One call per pool size, every subset at once: the incumbent
        # pass (size 3), then the larger pools, the most crowded with
        # more than 7 groups.
        sizes = [size for size, _groups, _chunk in calls]
        assert sizes == sorted(set(sizes)) and len(sizes) >= 4
        assert all(chunk == comb(size, 3) for size, _g, chunk in calls)
        crowded, groups, count = max(calls[1:], key=lambda call: call[1])
        assert groups > 7
        fixed, per_subset = TopKComputer(rds, 3)._sweep_elements(crowded)
        per_group = fixed + count * per_subset
        for stack in (1, 7):
            answers, calls = self.run(monkeypatch, rds, stack * per_group)
            split = [g for size, g, _chunk in calls if size == crowded]
            assert split[:-1] == [stack] * (len(split) - 1)
            assert sum(split) == groups
            # Same sets and bitwise-same values.
            assert answers == whole
        # Under one group's share a group is scored alone, a slice of
        # its subsets at a time.
        for subsets in (1, 7):
            answers, calls = self.run(
                monkeypatch, rds, fixed + subsets * per_subset
            )
            split = [(g, c) for size, g, c in calls if size == crowded]
            assert split == [(1, subsets)] * groups
            assert answers == whole
        oracle = TopKComputer(rds, 3, backend="python")
        for override, (best, value) in whole.items():
            best_o, value_o = oracle.best_set(
                CorrectnessMetric.ABSOLUTE, override=override
            )
            assert best_o == best
            assert abs(value_o - value) <= 1e-12

    def test_non_lane_override_is_per_call(self):
        rds = random_rds(np.random.default_rng(3), 10, impulse_prob=0.3)
        impulse = next(i for i, rd in enumerate(rds) if rd.is_impulse)
        computer = TopKComputer(rds, 3)
        atom = computer.atoms_of(impulse)[0][0]
        oracle = TopKComputer(rds, 3, backend="python")
        override = (impulse, atom)
        best, _value = computer.best_set(
            CorrectnessMetric.ABSOLUTE, override=override
        )
        best_o, _value_o = oracle.best_set(
            CorrectnessMetric.ABSOLUTE, override=override
        )
        assert best == best_o


def brute_force_usefulness(rds, k, database, metric):
    """Σ_v P[r_i = v] · (best score with RD i collapsed to v).

    The best score is read off the exact joint enumeration: the largest
    set probability for the absolute metric, the mean of the k largest
    marginals for the partial metric.
    """
    total = 0.0
    for value, prob in rds[database].atoms():
        collapsed = list(rds)
        collapsed[database] = D.impulse(value)
        marginals, set_probs = brute_force_topk_stats(collapsed, k)
        if metric is CorrectnessMetric.ABSOLUTE:
            best = max(set_probs.values())
        else:
            best = float(np.mean(np.sort(marginals)[-k:]))
        total += prob * best
    return total


class TestBatchedUsefulnessMatchesLegacy:
    """Greedy usefulness against the brute-force reference above."""

    @pytest.mark.parametrize("seed", range(15))
    def test_randomized(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        rds = random_rds(rng, n)
        computer = TopKComputer(rds, k)
        policy = GreedyUsefulnessPolicy()
        for metric in CorrectnessMetric:
            for database in range(n):
                assert policy.usefulness(
                    computer, database, metric
                ) == pytest.approx(
                    brute_force_usefulness(rds, k, database, metric),
                    abs=ATOL,
                )

    def test_choose_agrees(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            rds = random_rds(rng, n, impulse_prob=0.0)
            computer = TopKComputer(rds, 1)
            reference = [
                brute_force_usefulness(
                    rds, 1, database, CorrectnessMetric.ABSOLUTE
                )
                for database in range(n)
            ]
            # First database within 1e-12 of the maximum: the policy's
            # tie rule.
            expected = next(
                database
                for database, value in enumerate(reference)
                if value >= max(reference) - 1e-12
            )
            assert GreedyUsefulnessPolicy().choose(
                computer, list(range(n)), CorrectnessMetric.ABSOLUTE, 0.9
            ) == expected


class TestSeededRounds:
    """What a greedy round reuses after a collapse equals a rebuild.

    An in-support collapse of database d changes only row d of G, so
    the collapsed computer resumes its parent's DP chains (prefix
    entries 0..d, suffix entries d+1..n) and shares its rank masks; an
    out-of-support collapse changes column t0 of every row and rebuilds
    both. Every reused table must be bitwise what a rebuild computes.
    """

    @staticmethod
    def fresh_tables(computer):
        """Prefix, suffix and leave-one-out tables over the computer's G."""
        backend, greater, k = computer._backend, computer._greater, computer.k
        prefix = backend.dp_chain(greater, k)
        suffix = backend.dp_chain(greater, k, reverse=True)
        return prefix, suffix, backend.loo_combine(prefix[:-1], suffix[1:], k)

    @staticmethod
    def per_database_batch(computer, database):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TopKComputer, "_BATCH_ALL_LIMIT", 0)
            return computer._override_marginals_all(database)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_reused_tables_match_a_rebuild(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(4, n) + 1))
        computer = TopKComputer(random_rds(rng, n, max_support=6), k)
        for _ in range(int(rng.integers(2, 7))):
            # A round builds both chains before the probe; sometimes
            # only one exists (or none), and only that one is resumed.
            if rng.random() < 0.8:
                computer._prefix_dps()
            if rng.random() < 0.8:
                computer._suffix_dps()
            database = int(rng.integers(n))
            in_support = rng.random() < 0.7
            if in_support:
                atoms = computer.atoms_of(database)
                value = atoms[int(rng.integers(len(atoms)))][1]
            else:
                value = float(rng.integers(0, 15)) + 0.5
            child = computer.collapse(database, value)
            assert (child._prefix_seed is not None) == (
                in_support and computer._prefix_dp is not None
            )
            assert (child._suffix_seed is not None) == (
                in_support and computer._suffix_dp is not None
            )
            prefix, suffix, loo = self.fresh_tables(child)
            assert child._prefix_dps().tobytes() == prefix.tobytes()
            assert child._suffix_dps().tobytes() == suffix.tobytes()
            assert child._loo_dps_all().tobytes() == loo.tobytes()
            assert child._prefix_seed is None and child._suffix_seed is None
            for row in range(n):
                batch = child._override_marginals_all(row)
                expected = self.per_database_batch(child, row)
                assert batch.tobytes() == expected.tobytes(), (seed, row)
            computer = child

    def test_k1_signed_zeros_match_per_database(self):
        # db1's masses sum to 1 + 2**-52 and db2's to exactly 1, both
        # wholly above db0's impulse, so at that atom 1 − G1 = −2**-52
        # and 1 − G2 = 0.0. db2's k = 1 leave-one-out entry there is
        # negative, and db3's is −2**-52 · 0.0: −0.0 on numpy, whose
        # combine is the bare product, +0.0 on the oracle, which adds it
        # to 0.0. Masked or outranked, such entries become signed
        # zeros, and the stacked override batch must give each one the
        # per-database path's sign (the oracle's fold sums it to +0.0).
        rds = [
            D.impulse(1.0),
            D.from_pairs([(5.0, 1.0), (6.0, 4.0), (7.0, 1.0)]),
            D.impulse(8.0),
            D.from_pairs([(0.5, 1.0), (3.0, 1.0)]),
        ]
        assert rds[1].probs.sum() > 1.0
        computer = TopKComputer(rds, k=1)
        computer._prefix_dps()
        computer._suffix_dps()
        # An in-support collapse of db3 below the impulse resumes both
        # chains and keeps both entries.
        for current in (computer, computer.collapse(3, 0.5)):
            loo = current._loo_dps_all()[:, int(current._db_atom_start[0]), 0]
            assert loo[2] < 0.0
            assert loo[3] == 0.0
            assert np.signbit(loo[3]) == current._backend.vectorized
            for row in range(len(rds)):
                batch = current._override_marginals_all(row)
                expected = self.per_database_batch(current, row)
                assert batch.tobytes() == expected.tobytes(), row
