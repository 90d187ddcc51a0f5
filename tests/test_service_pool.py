"""Tests for the multiprocess selection tier (SelectionPool / worker).

Covers the PR's acceptance criteria:

* bit-identity — same answer sets, same probe orders, certainties
  within 1e-9 — across pool sizes 1/2/8 and vs in-process execution;
* state shipped once at pool start (per-request payloads carry terms
  and scalars only, never summaries or ED state) with a fingerprint
  that makes stale workers refuse mismatched work;
* worker lifecycle: deterministic mid-request crash, SIGKILL mid-burst,
  idle-corpse detection, recycling, unhealthy-pool degradation — no
  request lost or answered twice, everything metrics-visible;
* pool instruments pre-registered whether or not the pool is enabled.
"""

import os
import pickle
import signal
import threading
import time

import pytest

from repro.core.probing import MediatorProber
from repro.core.deadline import Deadline
from repro.service.metrics import MetricsRegistry
from repro.service.pool import (
    PoolExecutionError,
    PoolRequest,
    PoolUnavailableError,
    SelectionPool,
    WorkerCrashedError,
)
from repro.service.resilience import RetryPolicy
from repro.service.server import MetasearchService, ServiceConfig
from repro.service.worker import CRASH_TERM_ENV, build_worker_blob

POOL_SIZES = (1, 2, 8)


def make_service(trained_metasearcher, pool_workers=0, **kwargs):
    config = kwargs.pop("config", None) or ServiceConfig(
        max_workers=4,
        batch_size=2,
        retry=RetryPolicy(backoff_base_s=0.0),
        cache_enabled=False,
        pool_workers=pool_workers,
    )
    kwargs.setdefault("sleeper", lambda s: None)
    return MetasearchService(trained_metasearcher, config=config, **kwargs)


def answers_for(service, queries, k=2, certainty=1.0):
    return [service.serve(q, k=k, certainty=certainty) for q in queries]


def make_pool(trained_metasearcher, **kwargs):
    """A bare SelectionPool probing in-process (no service around it)."""
    selector = trained_metasearcher.selector
    prober = MediatorProber(selector.mediator, selector.definition)
    kwargs.setdefault("metrics", MetricsRegistry())
    return SelectionPool(
        build_worker_blob(trained_metasearcher),
        prober=prober.probe_batch,
        workers=kwargs.pop("workers", 1),
        **kwargs,
    )


def probing_query(metasearcher, queries, k=2):
    """First query whose no-probe prior leaves room for probing."""
    return next(
        q
        for q in queries[40:]
        if metasearcher.select_without_probing(q, k=k).expected_correctness
        < 0.999
    )


def make_request(trained_metasearcher, pool, query, **overrides):
    analyzed = trained_metasearcher.analyze(query)
    fields = {
        "query": analyzed,
        "k": 2,
        "threshold": 1.0,
        "metric_name": trained_metasearcher.config.metric.name,
        "fingerprint": pool.fingerprint,
        "max_probes": trained_metasearcher.config.max_probes,
        "batch_size": 2,
    }
    fields.update(overrides)
    return PoolRequest(**fields)


class TestPoolIdentity:
    @pytest.mark.parametrize("pool_workers", POOL_SIZES)
    def test_bit_identical_to_in_process(
        self, trained_metasearcher, health_queries, pool_workers
    ):
        queries = health_queries[40:52]
        with make_service(trained_metasearcher) as reference_service:
            reference = answers_for(reference_service, queries)
        with make_service(
            trained_metasearcher, pool_workers=pool_workers
        ) as pooled_service:
            pooled = answers_for(pooled_service, queries)
            counters = pooled_service.metrics.snapshot()["counters"]
        assert counters["pool_dispatch"] == len(queries)
        assert counters["pool_fallback_total"] == 0
        for expected, actual in zip(reference, pooled):
            assert actual.selected == expected.selected
            assert actual.probe_order == expected.probe_order
            assert actual.probes == expected.probes
            assert abs(actual.certainty - expected.certainty) <= 1e-9

    def test_identical_across_pool_sizes(
        self, trained_metasearcher, health_queries
    ):
        queries = health_queries[52:58]
        by_size = {}
        for pool_workers in POOL_SIZES:
            with make_service(
                trained_metasearcher, pool_workers=pool_workers
            ) as service:
                by_size[pool_workers] = [
                    (a.selected, a.probe_order, round(a.certainty, 12))
                    for a in answers_for(service, queries)
                ]
        first = by_size[POOL_SIZES[0]]
        for pool_workers in POOL_SIZES[1:]:
            assert by_size[pool_workers] == first

    def test_test_interposers_still_see_pool_probes(
        self, trained_metasearcher, health_queries
    ):
        # The pool's probe callback must read the APro's *current*
        # prober, so interposers patched after construction (the
        # gateway tests' slow_down) keep working in pool mode.
        query = probing_query(trained_metasearcher, health_queries)
        calls = []
        with make_service(
            trained_metasearcher, pool_workers=1
        ) as service:
            original = service._apro._prober

            class Recorder:
                def probe_batch(self, q, indices):
                    calls.append(tuple(indices))
                    return original.probe_batch(q, indices)

            service._apro._prober = Recorder()
            answer = service.serve(query, k=2, certainty=1.0)
        assert answer.probes > 0
        assert sum(len(batch) for batch in calls) == answer.probes


class TestStateShipping:
    def test_per_request_payload_has_no_model_state(
        self, trained_metasearcher, health_queries
    ):
        pool = make_pool(trained_metasearcher)
        try:
            request = make_request(
                trained_metasearcher, pool, health_queries[40]
            )
            wire = request.wire()
            assert set(wire) == {
                "terms",
                "k",
                "threshold",
                "metric",
                "fingerprint",
                "max_probes",
                "batch_size",
                "deadline_s",
            }
            # The whole request is a few hundred bytes; the model blob
            # (summaries + ED state) is orders of magnitude bigger and
            # travels exactly once, at spawn.
            assert len(pickle.dumps(wire)) < 1_000
            assert len(pickle.dumps(pool._blob)) > 10_000
        finally:
            pool.shutdown()

    def test_stale_fingerprint_is_refused(
        self, trained_metasearcher, health_queries
    ):
        pool = make_pool(trained_metasearcher)
        try:
            good = make_request(
                trained_metasearcher, pool, health_queries[40]
            )
            assert pool.execute(good).probes >= 0
            stale = make_request(
                trained_metasearcher,
                pool,
                health_queries[40],
                fingerprint="0123456789abcdef",
            )
            with pytest.raises(PoolExecutionError, match="stale-state"):
                pool.execute(stale)
            # The worker survives a refused request.
            assert pool.execute(good).probes >= 0
        finally:
            pool.shutdown()

    def test_ping_round_trips_the_fingerprint(self, trained_metasearcher):
        pool = make_pool(trained_metasearcher, workers=2)
        try:
            assert pool.ping() == 2
        finally:
            pool.shutdown()


class TestWorkerCrash:
    def test_mid_request_crash_falls_back_in_process(
        self, trained_metasearcher, health_queries, monkeypatch
    ):
        query = health_queries[42]
        crash_term = trained_metasearcher.analyze(query).terms[0]
        monkeypatch.setenv(CRASH_TERM_ENV, crash_term)
        with make_service(trained_metasearcher) as reference_service:
            expected = reference_service.serve(query, k=2, certainty=1.0)
        with make_service(
            trained_metasearcher, pool_workers=1
        ) as service:
            answer = service.serve(query, k=2, certainty=1.0)
            counters = service.metrics.snapshot()["counters"]
        # The worker died mid-request (os._exit inside _run_request);
        # the request was answered exactly once, in-process, correctly.
        assert answer.selected == expected.selected
        assert answer.probe_order == expected.probe_order
        assert abs(answer.certainty - expected.certainty) <= 1e-9
        assert counters["pool_worker_restarts"] == 1
        assert counters["pool_fallback_total"] == 1
        assert counters["pool_dispatch"] == 0
        assert counters["queries_served"] == 1

    def test_sigkill_of_busy_worker_is_detected_and_replaced(
        self, trained_metasearcher, health_queries
    ):
        query = probing_query(trained_metasearcher, health_queries)
        with make_service(trained_metasearcher) as reference_service:
            expected = reference_service.serve(query, k=2, certainty=1.0)
        assert expected.probes > 0, "need a probing query for this test"
        with make_service(
            trained_metasearcher, pool_workers=1
        ) as service:
            original = service._apro._prober
            probing = threading.Event()
            killed = threading.Event()

            class HoldUntilKilled:
                """Blocks the first probe round until the worker that
                requested it has been SIGKILLed — the worker is then
                guaranteed to die while leased, mid-request."""

                def probe_batch(self, q, indices):
                    probing.set()
                    assert killed.wait(timeout=30.0)
                    return original.probe_batch(q, indices)

            service._apro._prober = HoldUntilKilled()
            results = []
            thread = threading.Thread(
                target=lambda: results.append(
                    service.serve(query, k=2, certainty=1.0)
                )
            )
            thread.start()
            assert probing.wait(timeout=30.0)
            [pid] = service.pool.worker_pids()
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if not service.pool.worker_pids():
                    break
                time.sleep(0.01)
            killed.set()
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            service._apro._prober = original
            counters = service.metrics.snapshot()["counters"]
        [answer] = results  # exactly one answer, never lost or doubled
        assert answer.selected == expected.selected
        assert answer.probe_order == expected.probe_order
        assert abs(answer.certainty - expected.certainty) <= 1e-9
        assert counters["pool_worker_restarts"] == 1
        assert counters["pool_fallback_total"] == 1
        assert counters["queries_served"] == 1

    def test_sigkill_mid_burst_loses_no_request(
        self, trained_metasearcher, health_queries
    ):
        queries = health_queries[44:52]
        with make_service(trained_metasearcher) as reference_service:
            expected = answers_for(reference_service, queries)
        with make_service(
            trained_metasearcher, pool_workers=2
        ) as service:
            service.pool.ping()  # spawn before the burst
            victim = service.pool.worker_pids()[0]
            answers = [None] * len(queries)
            started = threading.Barrier(3)

            def client(offset):
                started.wait(timeout=30.0)
                for i in range(offset, len(queries), 2):
                    answers[i] = service.serve(
                        queries[i], k=2, certainty=1.0
                    )

            threads = [
                threading.Thread(target=client, args=(offset,))
                for offset in range(2)
            ]
            for thread in threads:
                thread.start()
            started.wait(timeout=30.0)  # kill lands inside the burst
            os.kill(victim, signal.SIGKILL)
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
            counters = service.metrics.snapshot()["counters"]
        assert all(answer is not None for answer in answers)
        for reference, answer in zip(expected, answers):
            assert answer.selected == reference.selected
            assert answer.probe_order == reference.probe_order
            assert abs(answer.certainty - reference.certainty) <= 1e-9
        # Whether the victim died busy (crashed lease) or idle (corpse
        # found at the next lease), it was replaced and counted.
        assert counters["pool_worker_restarts"] >= 1
        assert counters["queries_served"] == len(queries)
        assert (
            counters["pool_dispatch"] + counters["pool_fallback_total"]
            == len(queries)
        )


class TestLifecycle:
    def test_recycling_after_max_tasks(
        self, trained_metasearcher, health_queries
    ):
        metrics = MetricsRegistry()
        pool = make_pool(
            trained_metasearcher,
            workers=1,
            max_tasks_per_worker=1,
            metrics=metrics,
        )
        try:
            first = make_request(
                trained_metasearcher, pool, health_queries[40]
            )
            pool.execute(first)
            pid_before = pool.worker_pids()
            second = make_request(
                trained_metasearcher, pool, health_queries[41]
            )
            pool.execute(second)
            pid_after = pool.worker_pids()
        finally:
            pool.shutdown()
        assert metrics.counter("pool_worker_recycles").value == 2
        # Planned recycling is not a crash.
        assert metrics.counter("pool_worker_restarts").value == 0
        assert pid_before != pid_after

    def test_idle_corpse_is_replaced_at_lease_time(
        self, trained_metasearcher, health_queries
    ):
        metrics = MetricsRegistry()
        pool = make_pool(trained_metasearcher, workers=1, metrics=metrics)
        try:
            request = make_request(
                trained_metasearcher, pool, health_queries[40]
            )
            pool.execute(request)
            [pid] = pool.worker_pids()
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and pool.worker_pids():
                time.sleep(0.01)
            result = pool.execute(request)  # must transparently recover
            assert result.selected
        finally:
            pool.shutdown()
        assert metrics.counter("pool_worker_restarts").value == 1

    def test_unhealthy_pool_refuses_dispatch(
        self, trained_metasearcher, health_queries, monkeypatch
    ):
        query = health_queries[42]
        crash_term = trained_metasearcher.analyze(query).terms[0]
        monkeypatch.setenv(CRASH_TERM_ENV, crash_term)
        pool = make_pool(
            trained_metasearcher, workers=1, unhealthy_after=2
        )
        try:
            request = make_request(trained_metasearcher, pool, query)
            for _ in range(2):
                with pytest.raises(WorkerCrashedError):
                    pool.execute(request)
            assert not pool.healthy
            with pytest.raises(PoolUnavailableError):
                pool.execute(request)
        finally:
            pool.shutdown()

    def test_unhealthy_pool_degrades_service_not_outage(
        self, trained_metasearcher, health_queries
    ):
        with make_service(
            trained_metasearcher, pool_workers=1
        ) as service:
            service.pool._unhealthy = True  # simulate repeated crashes
            answer = service.serve(health_queries[45], k=2, certainty=1.0)
            counters = service.metrics.snapshot()["counters"]
        assert answer.selected  # served in-process, no exception
        assert counters["pool_fallback_total"] == 1
        assert counters["pool_dispatch"] == 0

    def test_shutdown_stops_workers_and_refuses_work(
        self, trained_metasearcher, health_queries
    ):
        pool = make_pool(trained_metasearcher, workers=2)
        request = make_request(
            trained_metasearcher, pool, health_queries[40]
        )
        pool.execute(request)
        pids = pool.worker_pids()
        pool.shutdown()
        assert not pool.worker_pids()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        with pytest.raises(PoolUnavailableError):
            pool.execute(request)


class TestDeadlineInPool:
    def test_deadline_expires_mid_query_inside_worker(
        self, trained_metasearcher, health_queries
    ):
        # A live deadline crosses the process boundary as a remaining
        # budget; slow parent-side probes burn it down, so expiry
        # happens *inside* the worker between probe rounds.
        reference_config = ServiceConfig(
            max_workers=4,
            batch_size=1,
            retry=RetryPolicy(backoff_base_s=0.0),
            cache_enabled=False,
        )
        query = unbounded = None
        with make_service(
            trained_metasearcher, config=reference_config
        ) as reference_service:
            for candidate in health_queries[40:]:
                answer = reference_service.serve(
                    candidate, k=2, certainty=1.0
                )
                if answer.probes >= 2:
                    query, unbounded = candidate, answer
                    break
        if query is None:
            pytest.skip("no query needs two probe rounds on this testbed")
        config = ServiceConfig(
            max_workers=4,
            batch_size=1,
            retry=RetryPolicy(backoff_base_s=0.0),
            cache_enabled=True,
            cache_ttl_s=None,
            pool_workers=1,
        )
        with make_service(
            trained_metasearcher, config=config
        ) as service:
            original = service._apro._prober

            class SlowProber:
                def probe_batch(self, q, indices):
                    time.sleep(0.25)
                    return original.probe_batch(q, indices)

            service._apro._prober = SlowProber()
            degraded = service.serve(
                query, k=2, certainty=1.0, deadline=Deadline.after(0.2)
            )
            service._apro._prober = original
            full = service.serve(query, k=2, certainty=1.0)
            counters = service.metrics.snapshot()["counters"]
        assert degraded.degraded == "deadline"
        assert 0 < degraded.probes < unbounded.probes
        assert degraded.certainty < 1.0
        # The degraded answer was not cached: the unhurried repeat
        # recomputed at full quality (and both ran on the pool).
        assert not full.cache_hit
        assert full.degraded is None
        assert full.certainty >= 1.0
        assert counters["pool_dispatch"] == 2
        assert counters["pool_fallback_total"] == 0


class TestPoolMetricKeySet:
    POOL_INSTRUMENTS = (
        "pool_dispatch",
        "pool_worker_restarts",
        "pool_worker_recycles",
        "pool_fallback_total",
    )

    def test_pool_instruments_preregistered_without_pool(
        self, trained_metasearcher
    ):
        with make_service(trained_metasearcher) as service:
            snapshot = service.snapshot()
        for name in self.POOL_INSTRUMENTS:
            assert snapshot["counters"][name] == 0
        assert "pool_queue_depth" in snapshot["gauges"]
        assert "stage_pool_ms" in snapshot["histograms"]

    def test_prefilter_instruments_preregistered(
        self, trained_metasearcher
    ):
        # Key-set regression: the pruning histogram exists even with
        # pruning off, so dashboards never see the key set change when
        # exact pruning is enabled.
        with make_service(trained_metasearcher) as service:
            snapshot = service.snapshot()
        assert "pruned_databases" in snapshot["histograms"]

    def test_key_set_identical_with_and_without_pool(
        self, trained_metasearcher, health_queries
    ):
        with make_service(trained_metasearcher) as service:
            service.serve(health_queries[46], k=1, certainty=0.9)
            without_pool = service.metrics.snapshot()
        with make_service(
            trained_metasearcher, pool_workers=1
        ) as service:
            service.serve(health_queries[46], k=1, certainty=0.9)
            with_pool = service.metrics.snapshot()
        assert set(without_pool["counters"]) == set(with_pool["counters"])
        assert set(without_pool["gauges"]) == set(with_pool["gauges"])
        assert set(without_pool["histograms"]) == set(
            with_pool["histograms"]
        )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pool_workers": -1},
            {"pool_mode": "rounds"},
            {"pool_tasks_per_worker": 0},
            {"pool_lease_timeout_s": 0.0},
            {"pool_max_pending": 0},
        ],
    )
    def test_rejects_bad_pool_values(self, kwargs):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            ServiceConfig(**kwargs)

    def test_env_knob_resolves_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_WORKERS", "3")
        assert ServiceConfig().pool_workers == 3
        monkeypatch.delenv("REPRO_POOL_WORKERS")
        assert ServiceConfig().pool_workers == 0
        # An explicit value always beats the env knob.
        monkeypatch.setenv("REPRO_POOL_WORKERS", "3")
        assert ServiceConfig(pool_workers=1).pool_workers == 1
