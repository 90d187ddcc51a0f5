"""Tests for wall-clock deadlines: the primitive, APro, and serve()."""

import pytest

from repro.core.deadline import Deadline
from repro.core.probing import APro
from repro.core.topk import CorrectnessMetric
from repro.exceptions import ConfigurationError
from repro.service.resilience import RetryPolicy
from repro.service.server import MetasearchService, ServiceConfig


class FakeClock:
    """A hand-advanced monotonic clock."""

    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_service(trained_metasearcher, pool_workers=0, **kwargs):
    config = kwargs.pop("config", None) or ServiceConfig(
        max_workers=4,
        batch_size=2,
        retry=RetryPolicy(backoff_base_s=0.0),
        pool_workers=pool_workers,
    )
    kwargs.setdefault("sleeper", lambda s: None)
    return MetasearchService(trained_metasearcher, config=config, **kwargs)


class TestDeadlinePrimitive:
    def test_counts_down_on_the_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert not deadline.expired
        assert deadline.remaining_s() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining_s() == pytest.approx(0.5)
        assert deadline.remaining_ms() == pytest.approx(500.0)
        clock.advance(0.5)
        assert deadline.expired
        assert deadline.remaining_s() == 0.0

    def test_after_ms(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(250.0, clock=clock)
        assert deadline.remaining_ms() == pytest.approx(250.0)
        clock.advance(0.25)
        assert deadline.expired

    def test_zero_budget_is_born_expired(self):
        assert Deadline.after(0.0, clock=FakeClock()).expired

    def test_nan_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            Deadline.after(float("nan"))

    def test_real_clock_expires(self):
        assert Deadline.after(-1.0).expired
        assert not Deadline.after(60.0).expired


class TestAProDeadline:
    @pytest.fixture()
    def apro(self, trained_pipeline):
        return APro(trained_pipeline["selector"])

    @pytest.fixture()
    def query(self, trained_pipeline):
        return trained_pipeline["test_queries"][0]

    def test_no_deadline_is_unchanged(self, apro, query):
        session = apro.run(query, k=2, threshold=1.0)
        assert not session.deadline_expired
        assert session.satisfied

    def test_expired_deadline_returns_no_probe_selection(
        self, apro, query, trained_pipeline
    ):
        clock = FakeClock()
        deadline = Deadline.after(0.0, clock=clock)
        session = apro.run(query, k=2, threshold=1.0, deadline=deadline)
        assert session.deadline_expired
        assert session.num_probes == 0
        # The ``max_probes=0`` contract: identical answer to the pure
        # RD-based selection from the prior.
        no_probe = apro.run(query, k=2, threshold=1.0, max_probes=0)
        assert session.final.names == no_probe.final.names
        assert session.final.expected_correctness == pytest.approx(
            no_probe.final.expected_correctness
        )
        direct = trained_pipeline["selector"].select(
            query, 2, CorrectnessMetric.ABSOLUTE
        )
        assert session.final.names == direct.names

    def test_deadline_mid_run_stops_probing_early(
        self, apro, trained_pipeline
    ):
        query, unbounded = None, None
        for candidate in trained_pipeline["test_queries"]:
            run = apro.run(candidate, k=2, threshold=1.0)
            if run.num_probes >= 2:
                query, unbounded = candidate, run
                break
        if query is None:
            pytest.skip("no query needs two probes on this testbed")
        # Each probe round costs 2.0 fake seconds against a 1.5-second
        # budget, so the deadline dies right after the first round and
        # the run must stop early with the belief it has.
        clock = FakeClock()
        deadline = Deadline.after(1.5, clock=clock)
        original = apro._prober.probe_batch

        def ticking_probe(q, indices):
            clock.advance(2.0)
            return original(q, indices)

        apro._prober.probe_batch = ticking_probe
        try:
            session = apro.run(query, k=2, threshold=1.0, deadline=deadline)
        finally:
            apro._prober.probe_batch = original
        assert session.deadline_expired
        assert 0 < session.num_probes < unbounded.num_probes
        # The reported certainty is what was actually reached at expiry.
        assert (
            session.final.expected_correctness
            == session.trajectory[-1].expected_correctness
        )
        assert not session.satisfied

    def test_probes_already_in_flight_are_applied(
        self, apro, trained_pipeline
    ):
        # Expiry granularity is one probe round: observations paid for
        # are recorded even when the deadline dies mid-round.
        query = next(
            (
                q
                for q in trained_pipeline["test_queries"]
                if apro.run(q, k=2, threshold=1.0).num_probes >= 2
            ),
            None,
        )
        if query is None:
            pytest.skip("no query needs two probes on this testbed")
        clock = FakeClock()
        deadline = Deadline.after(0.5, clock=clock)
        original = apro._prober.probe_batch

        def ticking_probe(q, indices):
            clock.advance(10.0)  # expires during the first round
            return original(q, indices)

        apro._prober.probe_batch = ticking_probe
        try:
            session = apro.run(query, k=2, threshold=1.0, deadline=deadline)
        finally:
            apro._prober.probe_batch = original
        assert session.deadline_expired
        assert session.num_probes >= 1
        assert session.trajectory[-1].probes == session.num_probes


class TestPolicySweepCutoff:
    def test_greedy_sweep_stops_but_returns_a_candidate(
        self, trained_pipeline
    ):
        from repro.core.policies import GreedyUsefulnessPolicy

        selector = trained_pipeline["selector"]
        query = trained_pipeline["test_queries"][1]
        computer = selector.select(
            query, 2, CorrectnessMetric.ABSOLUTE
        ).computer
        candidates = [
            i
            for i in range(computer.num_databases)
            if not computer.rd(i).is_impulse
        ]
        if not candidates:
            pytest.skip("no uncertain databases for this query")
        policy = GreedyUsefulnessPolicy()
        expired = Deadline.after(0.0, clock=FakeClock())
        choice = policy.choose(
            computer,
            candidates,
            CorrectnessMetric.ABSOLUTE,
            1.0,
            deadline=expired,
        )
        # At least one candidate is always evaluated, so the choice is
        # valid even under an already-expired deadline.
        assert choice in candidates


def _uncertain_queries(metasearcher, queries, k=2):
    """Queries whose no-probe prior does not already reach certainty 1."""
    return [
        q
        for q in queries
        if metasearcher.select_without_probing(q, k=k).expected_correctness
        < 0.999
    ]


@pytest.mark.parametrize("pool_workers", [0, 2])
class TestServeDeadline:
    # Parametrized over the selection pool: deadline semantics — honest
    # degraded answers, never cached — must be identical whether the
    # APro loop runs in-process or inside a worker process.
    def test_expired_deadline_serves_degraded_answer(
        self, trained_metasearcher, health_queries, pool_workers
    ):
        candidates = _uncertain_queries(
            trained_metasearcher, health_queries[40:]
        )
        assert candidates, "testbed has no uncertain queries"
        query = candidates[0]
        clock = FakeClock()
        with make_service(
            trained_metasearcher, pool_workers=pool_workers
        ) as service:
            answer = service.serve(
                query,
                k=2,
                certainty=1.0,
                deadline=Deadline.after(0.0, clock=clock),
            )
        assert answer.degraded == "deadline"
        assert answer.probes == 0
        assert len(answer.selected) == 2
        # Honest certainty: what the prior alone achieved.
        direct = trained_metasearcher.select_without_probing(query, k=2)
        assert answer.selected == direct.names
        assert answer.certainty == pytest.approx(
            direct.expected_correctness
        )

    def test_degraded_answers_are_not_cached(
        self, trained_metasearcher, health_queries, pool_workers
    ):
        candidates = _uncertain_queries(
            trained_metasearcher, health_queries[40:]
        )
        assert len(candidates) >= 2, "testbed has no uncertain queries"
        query = candidates[1]
        clock = FakeClock()
        with make_service(
            trained_metasearcher, pool_workers=pool_workers
        ) as service:
            degraded = service.serve(
                query,
                k=2,
                certainty=1.0,
                deadline=Deadline.after(0.0, clock=clock),
            )
            full = service.serve(query, k=2, certainty=1.0)
        assert degraded.degraded == "deadline"
        # The unhurried repeat recomputed at full quality instead of
        # inheriting the cut-short answer from the cache.
        assert not full.cache_hit
        assert full.degraded is None
        assert full.certainty >= 1.0

    def test_full_quality_answers_still_cached_under_deadline(
        self, trained_metasearcher, health_queries, pool_workers
    ):
        query = health_queries[62]
        with make_service(
            trained_metasearcher, pool_workers=pool_workers
        ) as service:
            first = service.serve(
                query, k=2, certainty=0.9, deadline=Deadline.after(60.0)
            )
            second = service.serve(query, k=2, certainty=0.9)
        assert first.degraded is None
        assert second.cache_hit
