"""Tests for the adaptive-probing loop (APro) and the probe policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    GreedyUsefulnessPolicy,
    LookaheadPolicy,
    MaxUncertaintyPolicy,
    RandomPolicy,
    expected_probes_to_threshold,
)
from repro.core.probing import APro
from repro.core.topk import CorrectnessMetric, TopKComputer
from repro.exceptions import ProbingError
from repro.stats.distribution import DiscreteDistribution as D


def example_rds():
    """The paper's Example 4 RDs plus a clearly irrelevant database."""
    return [
        D.from_pairs([(500.0, 0.4), (1000.0, 0.5), (1500.0, 0.1)]),
        D.from_pairs([(650.0, 0.1), (1300.0, 0.9)]),
        D.impulse(0.0),
    ]


class TestPolicies:
    def test_greedy_prefers_informative_probe(self):
        """Example 6 of the paper: greedy computes expected usefulness."""
        rds = [
            D.from_pairs([(500.0, 0.2), (1500.0, 0.2), (1000.0, 0.6)]),
            D.from_pairs([(700.0, 0.5), (1300.0, 0.5)]),
        ]
        computer = TopKComputer(rds, k=1)
        policy = GreedyUsefulnessPolicy()
        use_0 = policy.usefulness(computer, 0, CorrectnessMetric.ABSOLUTE)
        use_1 = policy.usefulness(computer, 1, CorrectnessMetric.ABSOLUTE)
        _best, current = computer.best_set(CorrectnessMetric.ABSOLUTE)
        assert use_0 >= current - 1e-12
        assert use_1 >= current - 1e-12
        chosen = policy.choose(
            computer, [0, 1], CorrectnessMetric.ABSOLUTE, threshold=0.9
        )
        assert chosen == (0 if use_0 >= use_1 else 1)

    def test_greedy_usefulness_of_impulse_is_current(self):
        rds = example_rds()
        computer = TopKComputer(rds, k=1)
        policy = GreedyUsefulnessPolicy()
        _best, current = computer.best_set(CorrectnessMetric.ABSOLUTE)
        assert policy.usefulness(
            computer, 2, CorrectnessMetric.ABSOLUTE
        ) == pytest.approx(current)

    def test_random_policy_stays_in_candidates(self):
        computer = TopKComputer(example_rds(), k=1)
        policy = RandomPolicy(seed=3)
        for _ in range(10):
            assert policy.choose(
                computer, [0, 1], CorrectnessMetric.ABSOLUTE, 0.9
            ) in (0, 1)

    def test_max_uncertainty_picks_highest_entropy(self):
        rds = [
            D.from_pairs([(1.0, 0.5), (2.0, 0.5)]),  # high entropy
            D.from_pairs([(1.0, 0.99), (2.0, 0.01)]),  # low entropy
        ]
        computer = TopKComputer(rds, k=1)
        policy = MaxUncertaintyPolicy()
        assert policy.choose(
            computer, [0, 1], CorrectnessMetric.ABSOLUTE, 0.9
        ) == 0

    def test_empty_candidates_rejected(self):
        computer = TopKComputer(example_rds(), k=1)
        for policy in (
            GreedyUsefulnessPolicy(),
            RandomPolicy(),
            MaxUncertaintyPolicy(),
        ):
            with pytest.raises(ProbingError):
                policy.choose(computer, [], CorrectnessMetric.ABSOLUTE, 0.9)


def _per_candidate_choice(policy, computer, candidates, metric):
    """The greedy rule, one ``usefulness`` call per candidate."""
    best_db, best = candidates[0], -1.0
    for database in candidates:
        usefulness = policy.usefulness(computer, database, metric)
        if usefulness > best + 1e-12:
            best_db, best = database, usefulness
            if best >= 1.0:
                break
    return best_db


class TestGreedySweepRead:
    """``choose`` reads a vectorized sweep once; same choice as the loop."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_matches_the_per_candidate_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        rds = []
        for _ in range(n):
            size = int(rng.integers(1, 5))
            values = np.sort(rng.choice(60, size, replace=False)).astype(float)
            rds.append(D.from_pairs(zip(values, rng.random(size) + 0.05)))
        # The sweep serves both metrics at every k.
        k = int(rng.integers(1, n + 1))
        metric = (
            CorrectnessMetric.ABSOLUTE
            if rng.random() < 0.5
            else CorrectnessMetric.PARTIAL
        )
        computer = TopKComputer(rds, k, backend="numpy")
        assert computer.usefulness_sweep(metric, 1e-9) is not None
        candidates = sorted(
            rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist()
        )
        policy = GreedyUsefulnessPolicy()
        assert policy.choose(
            computer, candidates, metric, 0.9
        ) == _per_candidate_choice(policy, computer, candidates, metric)

    def test_steps_below_the_margin_keep_the_first_improvement(self):
        # Usefulness rising by 4e-13 per candidate: only the third step
        # clears the 1e-12 margin over the first candidate, and the
        # fourth does not clear it over the third, so the
        # first-improvement rule and the argmax disagree.
        rds = example_rds() + [D.impulse(3.0), D.impulse(4.0)]
        computer = TopKComputer(rds, k=1, backend="numpy")
        sweep = 0.5 + np.arange(5) * 4e-13
        computer.usefulness_sweep = lambda metric, negligible=0.0: sweep
        metric = CorrectnessMetric.ABSOLUTE
        policy = GreedyUsefulnessPolicy()
        candidates = [0, 1, 2, 3, 4]
        chosen = policy.choose(computer, candidates, metric, 0.9)
        assert chosen == _per_candidate_choice(
            policy, computer, candidates, metric
        )
        assert (chosen, int(np.argmax(sweep))) == (3, 4)


class TestExpectedProbesToThreshold:
    def test_zero_when_already_satisfied(self):
        rds = [D.impulse(10.0), D.impulse(1.0)]
        assert expected_probes_to_threshold(rds, 1, 0.9) == 0.0

    def test_one_probe_resolves_two_db_case(self):
        # Two overlapping two-atom RDs; probing either one resolves the
        # top-1 question completely here.
        rds = [
            D.from_pairs([(1.0, 0.5), (4.0, 0.5)]),
            D.from_pairs([(2.0, 0.5), (3.0, 0.5)]),
        ]
        cost = expected_probes_to_threshold(rds, 1, 1.0)
        assert 1.0 <= cost <= 2.0

    def test_budget_guard(self):
        rds = [
            D.from_pairs([(float(v), 0.25) for v in range(i, i + 4)])
            for i in range(8)
        ]
        with pytest.raises(ProbingError):
            expected_probes_to_threshold(rds, 2, 0.99, max_states=50)

    def test_lookahead_policy_chooses_valid(self):
        rds = [
            D.from_pairs([(1.0, 0.5), (4.0, 0.5)]),
            D.from_pairs([(2.0, 0.5), (3.0, 0.5)]),
        ]
        computer = TopKComputer(rds, k=1)
        policy = LookaheadPolicy()
        choice = policy.choose(
            computer, [0, 1], CorrectnessMetric.ABSOLUTE, 0.95
        )
        assert choice in (0, 1)


class TestAProOnTinyTestbed:
    def _selector(self, trained_pipeline):
        return trained_pipeline["selector"]

    def test_zero_threshold_means_no_probes(self, trained_pipeline):
        apro = APro(self._selector(trained_pipeline))
        query = trained_pipeline["test_queries"][0]
        session = apro.run(query, k=1, threshold=0.0)
        assert session.num_probes == 0
        assert session.satisfied

    def test_threshold_one_reaches_certainty(self, trained_pipeline):
        apro = APro(self._selector(trained_pipeline))
        query = trained_pipeline["test_queries"][1]
        session = apro.run(query, k=1, threshold=1.0)
        assert session.final.expected_correctness == pytest.approx(1.0)
        assert session.satisfied

    def test_monotone_trajectory_of_certainty_on_completion(
        self, trained_pipeline
    ):
        apro = APro(self._selector(trained_pipeline))
        query = trained_pipeline["test_queries"][2]
        session = apro.run(query, k=1, threshold=0.99)
        assert (
            session.trajectory[-1].expected_correctness
            >= session.trajectory[0].expected_correctness - 1e-9
        )

    def test_max_probes_budget_respected(self, trained_pipeline):
        apro = APro(self._selector(trained_pipeline))
        query = trained_pipeline["test_queries"][3]
        session = apro.run(query, k=1, threshold=1.0, max_probes=1)
        assert session.num_probes <= 1

    def test_force_probes_continues_past_threshold(self, trained_pipeline):
        apro = APro(self._selector(trained_pipeline))
        query = trained_pipeline["test_queries"][4]
        free = apro.run(query, k=1, threshold=0.0)
        forced = apro.run(query, k=1, threshold=0.0, force_probes=2)
        assert free.num_probes == 0
        # Forced probing continues until the budget or until nothing
        # uncertain remains to probe.
        assert forced.num_probes == 2 or all(
            rd_point.expected_correctness == pytest.approx(1.0)
            for rd_point in forced.trajectory[-1:]
        )

    def test_final_answer_correct_after_full_probing(self, trained_pipeline):
        from repro.core.correctness import GoldenStandard

        mediator = trained_pipeline["mediator"]
        golden = GoldenStandard(mediator)
        apro = APro(self._selector(trained_pipeline))
        for query in trained_pipeline["test_queries"][:10]:
            session = apro.run(query, k=1, threshold=1.0)
            cor_a, _cor_p = golden.score(query, session.final.names, 1)
            assert cor_a == 1.0

    def test_probes_never_repeat_a_database(self, trained_pipeline):
        apro = APro(self._selector(trained_pipeline))
        query = trained_pipeline["test_queries"][5]
        session = apro.run(query, k=2, threshold=1.0)
        probed = [record.index for record in session.records]
        assert len(probed) == len(set(probed))

    def test_trajectory_has_probes_plus_one_points(self, trained_pipeline):
        apro = APro(self._selector(trained_pipeline))
        query = trained_pipeline["test_queries"][6]
        session = apro.run(query, k=1, threshold=0.9)
        assert len(session.trajectory) == session.num_probes + 1

    def test_names_after_clamps(self, trained_pipeline):
        apro = APro(self._selector(trained_pipeline))
        query = trained_pipeline["test_queries"][7]
        session = apro.run(query, k=1, threshold=0.8)
        assert session.names_after(999) == session.final.names

    def test_invalid_threshold(self, trained_pipeline):
        apro = APro(self._selector(trained_pipeline))
        query = trained_pipeline["test_queries"][0]
        with pytest.raises(ProbingError):
            apro.run(query, k=1, threshold=1.5)
        with pytest.raises(ProbingError):
            apro.run(query, k=1, threshold=-0.1)

    def test_higher_threshold_needs_no_fewer_probes(self, trained_pipeline):
        apro = APro(self._selector(trained_pipeline))
        for query in trained_pipeline["test_queries"][:6]:
            low = apro.run(query, k=1, threshold=0.6)
            high = apro.run(query, k=1, threshold=0.95)
            assert high.num_probes >= low.num_probes

    def test_policy_comparison_greedy_not_worse_than_random(
        self, trained_pipeline
    ):
        """Greedy should on average use no more probes than random."""
        greedy = APro(
            self._selector(trained_pipeline), GreedyUsefulnessPolicy()
        )
        random = APro(self._selector(trained_pipeline), RandomPolicy(seed=9))
        queries = trained_pipeline["test_queries"][:12]
        greedy_total = sum(
            greedy.run(q, k=1, threshold=0.9).num_probes for q in queries
        )
        random_total = sum(
            random.run(q, k=1, threshold=0.9).num_probes for q in queries
        )
        assert greedy_total <= random_total + 2


class TestReplayMatchesFreshComputer:
    """APro's collapsed belief against a from-scratch rebuild.

    After every probe, a fresh unpruned :class:`TopKComputer` over the
    RDs with the session's observations applied must pick the same
    answer set, with certainty within 1e-9 — on both backends, with and
    without bound pruning.
    """

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("prune", [False, True], ids=["off", "exact"])
    def test_trajectory_replays(self, trained_pipeline, backend, prune):
        selector = trained_pipeline["selector"]
        names = [db.name for db in selector.mediator]
        apro = APro(selector, backend=backend, prune=prune)
        probes = pruned = 0
        for query in trained_pipeline["test_queries"][:12]:
            for k in (1, 2, 3):
                session = apro.run(query, k=k, threshold=1.0)
                rds = selector.build_rds(query, backend=backend)
                applied = 0
                for point in session.trajectory:
                    for record in session.records[applied : point.probes]:
                        rds[record.index] = D.impulse(record.observed)
                    applied = point.probes
                    best, score = TopKComputer(
                        rds, k, backend=backend
                    ).best_set(CorrectnessMetric.ABSOLUTE)
                    assert tuple(names[i] for i in best) == point.names
                    assert abs(score - point.expected_correctness) <= 1e-9
                probes += session.num_probes
                pruned += session.pruned_databases
        assert probes > 0
        assert (pruned > 0) == prune
