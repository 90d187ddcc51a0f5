"""Tests for the concurrent probe executor."""

import threading
import time

import pytest

from repro.core.probing import MediatorProber
from repro.exceptions import ConfigurationError
from repro.hiddenweb.database import RelevancyDefinition
from repro.service.executor import ProbeExecutor
from repro.service.faults import FaultInjector
from repro.service.metrics import MetricsRegistry
from repro.service.resilience import ProbeFailedError, RetryPolicy


@pytest.fixture()
def query(analyzer):
    return analyzer.query("cancer treatment")


@pytest.fixture()
def probe_log(tiny_mediator, monkeypatch):
    """``(database name, thread ident)`` of every probe, as each starts."""
    log = []
    for database in tiny_mediator:

        def recording(query, definition, _database=database):
            log.append((_database.name, threading.get_ident()))
            return type(_database).probe_relevancy(
                _database, query, definition
            )

        monkeypatch.setattr(database, "probe_relevancy", recording)
    return log


def probe_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("probe")]


class TestProbeBatch:
    def test_matches_sequential_prober(self, tiny_mediator, query):
        indices = list(range(len(tiny_mediator)))
        sequential = MediatorProber(
            tiny_mediator, RelevancyDefinition.DOCUMENT_FREQUENCY
        ).probe_batch(query, indices)
        with ProbeExecutor(tiny_mediator, max_workers=4) as executor:
            concurrent = executor.probe_batch(query, indices)
        assert concurrent == sequential

    def test_observation_order_follows_choice_order(
        self, tiny_mediator, query
    ):
        indices = [2, 0, 3, 1]
        with ProbeExecutor(tiny_mediator, max_workers=4) as executor:
            observed = executor.probe_batch(query, indices)
        expected = [
            tiny_mediator[i].relevancy(query) for i in indices
        ]
        assert observed == expected

    def test_empty_batch(self, tiny_mediator, query):
        with ProbeExecutor(tiny_mediator) as executor:
            assert executor.probe_batch(query, []) == []

    def test_probes_overlap_in_wall_clock(self, tiny_mediator, query):
        injector = FaultInjector(
            seed=1, mean_latency_s=0.05, latency_jitter=0.2
        )
        with ProbeExecutor(
            tiny_mediator,
            max_workers=4,
            injector=injector,
            policy=RetryPolicy(timeout_s=1.0),
            sleeper=time.sleep,
        ) as executor:
            started = time.perf_counter()
            executor.probe_batch(query, [0, 1, 2, 3])
            elapsed = time.perf_counter() - started
        # Serial would cost the sum (~0.2 s); concurrent costs ~max.
        assert elapsed < 0.15

    def test_invalid_worker_count(self, tiny_mediator):
        with pytest.raises(ConfigurationError):
            ProbeExecutor(tiny_mediator, max_workers=0)


class TestDispatch:
    def test_one_probe_round_runs_on_the_caller(
        self, tiny_mediator, query, probe_log
    ):
        before = set(probe_threads())
        with ProbeExecutor(tiny_mediator, max_workers=4) as executor:
            observed = executor.probe_batch(query, [2])
            assert set(probe_threads()) <= before
        assert observed == [tiny_mediator[2].relevancy(query)]
        assert probe_log == [(tiny_mediator[2].name, threading.get_ident())]

    @pytest.mark.parametrize("width", [1, 3])
    def test_shut_down_executor_refuses_every_round(
        self, tiny_mediator, query, probe_log, width
    ):
        executor = ProbeExecutor(tiny_mediator)
        executor.shutdown()
        with pytest.raises(RuntimeError, match="after shutdown"):
            executor.probe_batch(query, list(range(width)))
        assert probe_log == []


class TestDegradation:
    def test_fallback_substitutes_estimate(self, tiny_mediator, query):
        metrics = MetricsRegistry()
        name = tiny_mediator[0].name
        injector = FaultInjector(seed=1, blackouts={name: (0, 999)})
        with ProbeExecutor(
            tiny_mediator,
            injector=injector,
            policy=RetryPolicy(max_retries=1, backoff_base_s=0.0),
            fallback=lambda db, q: 42.0,
            metrics=metrics,
            sleeper=lambda s: None,
        ) as executor:
            observed = executor.probe_batch(query, [0, 1])
        assert observed[0] == 42.0
        assert observed[1] == tiny_mediator[1].relevancy(query)
        assert metrics.snapshot()["counters"]["probe_fallbacks"] == 1

    def test_without_fallback_failure_propagates(
        self, tiny_mediator, query
    ):
        name = tiny_mediator[0].name
        injector = FaultInjector(seed=1, blackouts={name: (0, 999)})
        with ProbeExecutor(
            tiny_mediator,
            injector=injector,
            policy=RetryPolicy(max_retries=0, backoff_base_s=0.0),
            sleeper=lambda s: None,
        ) as executor:
            with pytest.raises(ProbeFailedError):
                executor.probe_batch(query, [0])

    def test_round_joins_every_probe_before_raising(
        self, tiny_mediator, query, monkeypatch
    ):
        # The first probe fails at once, yet its failure must reach the
        # caller only after the second, sleeping probe has finished:
        # the round joins everything it started.
        finished = []

        def fail(query, definition):
            raise ConnectionError("unreachable")

        def slow(query, definition):
            time.sleep(0.2)
            finished.append(tiny_mediator[1].name)
            return 1.0

        monkeypatch.setattr(tiny_mediator[0], "probe_relevancy", fail)
        monkeypatch.setattr(tiny_mediator[1], "probe_relevancy", slow)
        with ProbeExecutor(
            tiny_mediator,
            max_workers=4,
            policy=RetryPolicy(max_retries=0),
            sleeper=lambda s: None,
        ) as executor:
            with pytest.raises(ProbeFailedError) as raised:
                executor.probe_batch(query, [0, 1])
            assert finished == [tiny_mediator[1].name]
        assert repr(tiny_mediator[0].name) in str(raised.value)

    def test_first_failure_in_choice_order_propagates(
        self, tiny_mediator, query, monkeypatch
    ):
        # The later failure in choice order fails first in wall-clock.
        def fail_after(delay):
            def probe(query, definition):
                time.sleep(delay)
                raise ConnectionError("unreachable")

            return probe

        monkeypatch.setattr(
            tiny_mediator[1], "probe_relevancy", fail_after(0.1)
        )
        monkeypatch.setattr(
            tiny_mediator[2], "probe_relevancy", fail_after(0.0)
        )
        with ProbeExecutor(
            tiny_mediator,
            max_workers=4,
            policy=RetryPolicy(max_retries=0),
            sleeper=lambda s: None,
        ) as executor:
            with pytest.raises(ProbeFailedError) as raised:
                executor.probe_batch(query, [0, 1, 2])
        assert repr(tiny_mediator[1].name) in str(raised.value)

    def test_accounting_stays_exact_under_concurrency(
        self, tiny_mediator, query
    ):
        before = tiny_mediator.total_probes()
        with ProbeExecutor(tiny_mediator, max_workers=8) as executor:
            for _ in range(10):
                executor.probe_batch(query, [0, 1, 2, 3])
        assert tiny_mediator.total_probes() == before + 40
