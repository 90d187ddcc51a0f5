"""Tests for the online-adaptation subsystem (``repro.adapt``).

Covers the PR's acceptance criteria:

* observation capture on both execution paths, sliding-window
  semantics, drift detection with sample floors and degenerate inputs;
* the coordinator's cadence, auto-swap policy and post-swap
  re-baselining;
* zero-downtime hot swap: no-op swaps are fingerprint-identical and
  bit-identical to the in-process path, changed-model swaps propagate
  to live pool workers, in-flight requests finish under the old model,
  lazily-reloaded workers refuse-and-redispatch transparently, and a
  swap-under-load stress (including a SIGKILL across the swap
  boundary) loses zero requests and double-answers none;
* the selection cache keys entries by model fingerprint (satellite
  regression) and the adapt instruments are always pre-registered;
* the ``bench-drift`` corpus machinery and its gates.
"""

import threading

import pytest

from repro.adapt import (
    AdaptationConfig,
    DriftDetector,
    EDAccumulator,
    ModelSwapCoordinator,
    Observation,
    ObservationSink,
)
from repro.core.training import ErrorModel
from repro.exceptions import ConfigurationError
from repro.service.metrics import MetricsRegistry
from repro.service.pool import StaleRequestError
from repro.service.server import MetasearchService, ServiceConfig
from repro.service.resilience import RetryPolicy

from tests.test_service_pool import (
    make_pool,
    make_request,
    make_service,
)


def observation(database, error, query_type=None, estimate=1.0):
    from repro.core.query_types import QueryType

    return Observation(
        database=database,
        query_type=query_type or QueryType(num_terms=2, estimate_band=1),
        estimate=estimate,
        actual=estimate * (1.0 + error),
        error=error,
    )


def adapt_service(trained_metasearcher, auto_swap=False, **adapt_kwargs):
    config = ServiceConfig(
        max_workers=2,
        batch_size=2,
        retry=RetryPolicy(backoff_base_s=0.0),
        cache_enabled=False,
        pool_workers=0,
        adapt=True,
        adapt_auto_swap=auto_swap,
        **adapt_kwargs,
    )
    return MetasearchService(trained_metasearcher, config=config)


def shifted_model(error_model, databases, error=-1.0, samples=64):
    """A copy of *error_model* with extra mass at *error* for *databases*."""
    from repro.core.query_types import QueryType

    model = ErrorModel.from_state_dict(error_model.state_dict())
    for database in databases:
        for i in range(samples):
            model.observe(
                database, QueryType(2, i % 3), error + (i % 5) * 1e-3
            )
    return model


class TestObservationSink:
    def test_window_evicts_oldest(self):
        sink = ObservationSink(window=3)
        for i in range(5):
            sink.record(observation("db", float(i)))
        assert sink.count("db") == 3
        assert [o.error for o in sink.observations("db")] == [2.0, 3.0, 4.0]
        assert sink.total == 5  # lifetime, not windowed

    def test_clear_keeps_lifetime_total(self):
        sink = ObservationSink(window=8)
        sink.record(observation("a", 0.1))
        sink.record(observation("b", 0.2))
        sink.clear()
        assert sink.databases() == []
        assert sink.count("a") == 0
        assert sink.total == 2

    def test_records_increment_metric(self):
        metrics = MetricsRegistry()
        sink = ObservationSink(window=4, metrics=metrics)
        sink.record(observation("a", 0.0))
        sink.record(observation("a", 0.0))
        assert (
            metrics.snapshot()["counters"]["adapt_observations_total"] == 2
        )

    def test_rejects_degenerate_window(self):
        with pytest.raises(ConfigurationError):
            ObservationSink(window=0)


class TestEDAccumulator:
    def test_recent_ed_holds_windowed_samples_only(
        self, trained_pipeline
    ):
        sink = ObservationSink(window=16)
        accumulator = EDAccumulator(trained_pipeline["error_model"], sink)
        for _ in range(5):
            sink.record(observation("onco", -0.5))
        recent = accumulator.recent_ed("onco")
        assert recent.sample_count == 5
        assert accumulator.recent_ed("cardio").sample_count == 0

    def test_empty_window_refresh_is_bit_identical(self, trained_pipeline):
        baseline = trained_pipeline["error_model"]
        accumulator = EDAccumulator(baseline, ObservationSink(window=16))
        assert accumulator.refreshed_state() == baseline.state_dict()

    def test_refresh_layers_window_onto_baseline(self, trained_pipeline):
        baseline = trained_pipeline["error_model"]
        sink = ObservationSink(window=32)
        accumulator = EDAccumulator(baseline, sink)
        before = baseline.database_ed("onco").sample_count
        for _ in range(7):
            sink.record(observation("onco", -1.0))
        refreshed = accumulator.refreshed_model()
        assert refreshed.database_ed("onco").sample_count == before + 7
        # The live baseline object is untouched.
        assert baseline.database_ed("onco").sample_count == before

    def test_later_baseline_mutations_do_not_leak(self, trained_pipeline):
        from repro.core.query_types import QueryType

        baseline = ErrorModel.from_state_dict(
            trained_pipeline["error_model"].state_dict()
        )
        accumulator = EDAccumulator(baseline, ObservationSink(window=8))
        baseline.observe("onco", QueryType(2, 1), 5.0)
        assert accumulator.refreshed_state() != baseline.state_dict()


class TestDriftDetector:
    def make(self, baseline, sink, **kwargs):
        accumulator = EDAccumulator(baseline, sink)
        kwargs.setdefault("min_samples", 8)
        kwargs.setdefault("significance", 0.01)
        return DriftDetector(baseline, accumulator, **kwargs)

    def test_below_sample_floor_never_flags(self, trained_pipeline):
        sink = ObservationSink(window=64)
        detector = self.make(trained_pipeline["error_model"], sink)
        for _ in range(7):  # one below the floor of 8
            sink.record(observation("onco", 50.0))
        status = detector.check_database("onco")
        assert not status.drifted
        assert status.p_value == 1.0

    def test_unknown_database_never_flags(self, trained_pipeline):
        sink = ObservationSink(window=64)
        detector = self.make(trained_pipeline["error_model"], sink)
        for _ in range(30):
            sink.record(observation("never-trained", 50.0))
        status = detector.check_database("never-trained")
        assert not status.drifted

    def test_shifted_errors_flag_matching_errors_do_not(
        self, trained_pipeline
    ):
        baseline = trained_pipeline["error_model"]
        sink = ObservationSink(window=128)
        detector = self.make(baseline, sink)
        # Drifted: all the mass far outside the trained distribution.
        for _ in range(60):
            sink.record(observation("onco", 120.0))
        assert detector.check_database("onco").drifted
        # Stationary: replay errors drawn from the trained ED itself.
        reference = baseline.database_ed("cardio").histogram
        for bin_index, count in enumerate(reference.counts):
            midpoint = (
                reference.edges[bin_index] + reference.edges[bin_index + 1]
            ) / 2.0
            for _ in range(int(count)):
                sink.record(observation("cardio", midpoint))
        status = detector.check_database("cardio")
        assert not status.drifted
        assert "cardio" in [
            name for name, s in detector.check().items()
        ]

    def test_validates_parameters(self, trained_pipeline):
        accumulator = EDAccumulator(
            trained_pipeline["error_model"], ObservationSink()
        )
        with pytest.raises(ConfigurationError):
            DriftDetector(
                trained_pipeline["error_model"],
                accumulator,
                significance=1.5,
            )
        with pytest.raises(ConfigurationError):
            DriftDetector(
                trained_pipeline["error_model"],
                accumulator,
                min_samples=0,
            )


class TestCoordinator:
    def make(self, baseline, auto_swap=False, swap=None, **kwargs):
        metrics = MetricsRegistry()
        sink = ObservationSink(window=64, metrics=metrics)
        swaps = []

        def default_swap(model):
            swaps.append(model)
            return f"fp-{len(swaps)}"

        kwargs.setdefault("check_every", 10)
        kwargs.setdefault("min_samples", 8)
        kwargs.setdefault("significance", 0.01)
        coordinator = ModelSwapCoordinator(
            baseline,
            sink,
            AdaptationConfig(auto_swap=auto_swap, **kwargs),
            swap=swap or default_swap,
            metrics=metrics,
        )
        return coordinator, sink, swaps, metrics

    def test_checks_run_on_observation_cadence(self, trained_pipeline):
        coordinator, sink, _, metrics = self.make(
            trained_pipeline["error_model"]
        )
        for i in range(9):
            sink.record(observation("onco", 0.0))
            assert coordinator.maybe_step() is None, i
        sink.record(observation("onco", 0.0))
        assert coordinator.maybe_step() is not None
        assert coordinator.checks == 1
        assert metrics.snapshot()["counters"]["adapt_drift_checks"] == 1
        # The cadence resets: the very next observation does not check.
        sink.record(observation("onco", 0.0))
        assert coordinator.maybe_step() is None

    def test_auto_swap_fires_and_rebaselines(self, trained_pipeline):
        coordinator, sink, swaps, metrics = self.make(
            trained_pipeline["error_model"], auto_swap=True
        )
        for _ in range(10):
            sink.record(observation("onco", 120.0))
        coordinator.maybe_step()
        assert len(swaps) == 1
        assert coordinator.swaps[0].fingerprint == "fp-1"
        assert "onco" in coordinator.swaps[0].drifted
        # Post-swap: windows cleared, status cleared, and the swapped
        # evidence no longer counts as drift against the new baseline.
        assert sink.databases() == []
        assert coordinator.drifted == ()
        assert coordinator.check_now() is None
        assert (
            metrics.snapshot()["counters"]["adapt_drift_flagged"] >= 1
        )

    def test_observe_and_flag_without_auto_swap(self, trained_pipeline):
        coordinator, sink, swaps, _ = self.make(
            trained_pipeline["error_model"], auto_swap=False
        )
        for _ in range(10):
            sink.record(observation("onco", 120.0))
        coordinator.maybe_step()
        assert coordinator.drifted == ("onco",)
        assert swaps == []
        report = coordinator.swap_now()  # the operator's manual path
        assert len(swaps) == 1
        assert report.drifted == ("onco",)
        assert report.observations_used == 10

    def test_snapshot_is_jsonable(self, trained_pipeline):
        import json

        coordinator, sink, _, _ = self.make(
            trained_pipeline["error_model"]
        )
        for _ in range(10):
            sink.record(observation("onco", 120.0))
        coordinator.maybe_step()
        snapshot = coordinator.snapshot()
        json.dumps(snapshot)
        assert snapshot["checks"] == 1
        assert snapshot["drifted"] == ["onco"]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptationConfig(window=0)
        with pytest.raises(ConfigurationError):
            AdaptationConfig(check_every=0)
        with pytest.raises(ConfigurationError):
            AdaptationConfig(significance=0.0)
        with pytest.raises(ConfigurationError):
            AdaptationConfig(min_samples=0)


class TestServiceObservation:
    def test_serving_fills_the_sink(
        self, trained_metasearcher, health_queries
    ):
        with adapt_service(trained_metasearcher) as service:
            for query in health_queries[40:46]:
                service.serve(query, k=2, certainty=1.0)
            sink = service.observations
            counters = service.metrics.snapshot()["counters"]
            assert sink is not None
            assert sink.total > 0
            assert counters["adapt_observations_total"] == sink.total
            assert set(sink.databases()) <= {
                db.name for db in trained_metasearcher.mediator
            }
            snapshot = service.snapshot()
            assert "adaptation" in snapshot
            assert (
                snapshot["adaptation"]["observations_total"] == sink.total
            )

    def test_pool_path_observes_through_parent(
        self, trained_metasearcher, health_queries
    ):
        config = ServiceConfig(
            max_workers=2,
            batch_size=2,
            retry=RetryPolicy(backoff_base_s=0.0),
            cache_enabled=False,
            pool_workers=1,
            adapt=True,
        )
        with MetasearchService(
            trained_metasearcher, config=config
        ) as service:
            for query in health_queries[40:44]:
                service.serve(query, k=2, certainty=1.0)
            counters = service.metrics.snapshot()["counters"]
            assert counters["pool_dispatch"] == 4
            assert service.observations.total > 0

    def test_adapt_off_has_no_loop(self, trained_metasearcher):
        # Pin adapt off explicitly so the REPRO_ADAPT CI knob cannot
        # flip this service's behaviour out from under the test.
        config = ServiceConfig(
            max_workers=4,
            batch_size=2,
            retry=RetryPolicy(backoff_base_s=0.0),
            cache_enabled=False,
            pool_workers=0,
            adapt=False,
        )
        with make_service(trained_metasearcher, config=config) as service:
            assert service.observations is None
            assert service.adaptation is None
            assert "adaptation" not in service.snapshot()

    def test_env_knob_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADAPT", "1")
        assert ServiceConfig().adapt is True
        monkeypatch.setenv("REPRO_ADAPT", "0")
        assert ServiceConfig().adapt is False
        monkeypatch.delenv("REPRO_ADAPT")
        assert ServiceConfig().adapt is False
        assert ServiceConfig(adapt=True).adapt is True
        monkeypatch.setenv("REPRO_ADAPT", "maybe")
        with pytest.raises(ConfigurationError):
            ServiceConfig()


class TestHotSwap:
    def test_noop_swap_keeps_fingerprint_and_answers(
        self, trained_metasearcher, health_queries
    ):
        queries = health_queries[40:46]
        with make_service(trained_metasearcher) as reference_service:
            reference = [
                reference_service.serve(q, k=2, certainty=1.0)
                for q in queries
            ]
        with adapt_service(trained_metasearcher) as service:
            before = service.state_fingerprint
            first = [
                service.serve(q, k=2, certainty=1.0) for q in queries[:3]
            ]
            same_model = ErrorModel.from_state_dict(
                trained_metasearcher.selector.error_model.state_dict()
            )
            assert service.swap_model(same_model) == before
            assert service.state_fingerprint == before
            second = [
                service.serve(q, k=2, certainty=1.0) for q in queries[3:]
            ]
            counters = service.metrics.snapshot()["counters"]
        for expected, actual in zip(reference, first + second):
            assert actual.selected == expected.selected
            assert actual.probe_order == expected.probe_order
            assert abs(actual.certainty - expected.certainty) <= 1e-9
        assert counters["adapt_swaps_total"] == 1

    def test_changed_model_swap_changes_fingerprint(
        self, trained_metasearcher, health_queries
    ):
        with adapt_service(trained_metasearcher) as service:
            before = service.state_fingerprint
            changed = shifted_model(
                trained_metasearcher.selector.error_model, ["onco"]
            )
            after = service.swap_model(changed)
            assert after != before
            assert service.state_fingerprint == after
            answer = service.serve(health_queries[40], k=2, certainty=1.0)
            assert len(answer.selected) == 2
            histograms = service.metrics.snapshot()["histograms"]
            assert histograms["adapt_swap_ms"]["count"] == 1

    def test_pool_update_state_reloads_idle_workers(
        self, trained_metasearcher, health_queries
    ):
        pool = make_pool(trained_metasearcher, workers=2)
        try:
            query = health_queries[40]
            assert pool.execute(
                make_request(trained_metasearcher, pool, query)
            ).probes >= 0
            old_request = make_request(trained_metasearcher, pool, query)
            from repro.service.worker import refresh_worker_blob

            changed = shifted_model(
                trained_metasearcher.selector.error_model, ["onco"]
            )
            new_blob = refresh_worker_blob(
                pool.blob, changed.state_dict()
            )
            assert pool.update_state(new_blob) == 2
            assert pool.fingerprint == new_blob.fingerprint
            # Requests built against the new state run fine.
            assert pool.execute(
                make_request(trained_metasearcher, pool, query)
            ).probes >= 0
            # A request still carrying the old fingerprint is refused
            # with the retryable stale error, and the worker survives.
            with pytest.raises(StaleRequestError):
                pool.execute(old_request)
            assert pool.execute(
                make_request(trained_metasearcher, pool, query)
            ).probes >= 0
        finally:
            pool.shutdown()

    def test_noop_update_state_reloads_nothing(self, trained_metasearcher):
        pool = make_pool(trained_metasearcher, workers=1)
        try:
            assert pool.update_state(pool.blob) == 0
        finally:
            pool.shutdown()

    def test_busy_worker_reloads_lazily(
        self, trained_metasearcher, health_queries
    ):
        """A worker that misses a swap (busy) is reloaded on its next
        dispatch — refusal, reload, re-dispatch, all invisible to the
        caller — and the refusal is metrics-visible."""
        from repro.core.probing import MediatorProber
        from repro.service.pool import SelectionPool
        from repro.service.worker import build_worker_blob, refresh_worker_blob

        metrics = MetricsRegistry()
        gate = threading.Event()
        release = threading.Event()
        selector = trained_metasearcher.selector
        inner = MediatorProber(selector.mediator, selector.definition)

        def gated_probe(query, indices):
            gate.set()
            release.wait(timeout=10.0)
            return inner.probe_batch(query, indices)

        pool = SelectionPool(
            build_worker_blob(trained_metasearcher),
            prober=gated_probe,
            workers=2,
            metrics=metrics,
        )
        try:
            query = next(
                q
                for q in health_queries[40:]
                if trained_metasearcher.select_without_probing(
                    q, k=2
                ).expected_correctness
                < 0.999
            )
            results = []

            def run_busy():
                results.append(
                    pool.execute(
                        make_request(trained_metasearcher, pool, query)
                    )
                )

            busy = threading.Thread(target=run_busy)
            busy.start()
            assert gate.wait(timeout=10.0)  # worker A is now mid-request
            changed = shifted_model(
                trained_metasearcher.selector.error_model, ["onco"]
            )
            new_blob = refresh_worker_blob(pool.blob, changed.state_dict())
            # Only the idle worker B reloads; A is out with the old blob.
            assert pool.update_state(new_blob) == 1
            release.set()
            busy.join(timeout=10.0)
            assert results and results[0].probes >= 0  # finished on old model
            # Serve through both workers: whichever still holds the old
            # blob refuses once, reloads, and re-serves transparently.
            for _ in range(4):
                result = pool.execute(
                    make_request(trained_metasearcher, pool, query)
                )
                assert result.probes >= 0
            counters = metrics.snapshot()["counters"]
            assert counters["pool_stale_refusals"] == 1
            assert metrics.counter("pool_worker_restarts").value == 0
        finally:
            release.set()
            pool.shutdown()

    def test_service_swap_with_pool_under_load_loses_nothing(
        self, trained_metasearcher, health_queries
    ):
        """Hot swap + SIGKILL across the swap boundary: every request
        answered exactly once, through the pool or the fallback."""
        import os
        import signal
        import time

        config = ServiceConfig(
            max_workers=4,
            batch_size=2,
            retry=RetryPolicy(backoff_base_s=0.0),
            cache_enabled=False,
            pool_workers=2,
            adapt=True,
        )
        queries = [health_queries[40 + i % 16] for i in range(48)]
        answers = {}
        errors = []
        base_model = trained_metasearcher.selector.error_model
        with MetasearchService(
            trained_metasearcher, config=config
        ) as service:
            variant = shifted_model(base_model, ["onco", "cardio"])
            same = ErrorModel.from_state_dict(base_model.state_dict())
            swap_targets = [variant, same, variant]
            started = threading.Barrier(4)

            def client(offset):
                started.wait(timeout=10.0)
                for i in range(offset, len(queries), 3):
                    try:
                        answers[i] = service.serve(
                            queries[i], k=2, certainty=1.0
                        )
                    except Exception as error:  # pragma: no cover
                        errors.append((i, error))

            threads = [
                threading.Thread(target=client, args=(o,)) for o in range(3)
            ]
            for thread in threads:
                thread.start()
            started.wait(timeout=10.0)
            for index, model in enumerate(swap_targets):
                service.swap_model(model)
                if index == 0:
                    # worker_pids() is transiently empty while a busy
                    # worker is mid-replacement; wait for a live one.
                    deadline = time.monotonic() + 10.0
                    while not (pids := service.pool.worker_pids()):
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    os.kill(pids[0], signal.SIGKILL)
            for thread in threads:
                thread.join(timeout=60.0)
            counters = service.metrics.snapshot()["counters"]
        assert errors == []
        assert sorted(answers) == list(range(len(queries)))  # exactly once
        assert all(len(a.selected) == 2 for a in answers.values())
        assert counters["adapt_swaps_total"] == 3
        # The killed worker was replaced, not silently lost.
        assert counters["pool_worker_restarts"] >= 1


class TestCacheFingerprinting:
    def test_cache_entries_do_not_survive_model_swaps(
        self, trained_metasearcher, health_queries
    ):
        """Satellite regression: a cached selection made under the old
        model must not be served after a swap installs a new one."""
        config = ServiceConfig(
            max_workers=2,
            batch_size=2,
            retry=RetryPolicy(backoff_base_s=0.0),
            cache_enabled=True,
            cache_ttl_s=3600.0,
            pool_workers=0,
            adapt=True,
        )
        query = health_queries[40]
        with MetasearchService(
            trained_metasearcher, config=config
        ) as service:
            miss = service.serve(query, k=2, certainty=1.0)
            hit = service.serve(query, k=2, certainty=1.0)
            assert not miss.cache_hit and hit.cache_hit
            service.swap_model(
                shifted_model(
                    trained_metasearcher.selector.error_model,
                    ["onco", "cardio", "broad", "news"],
                )
            )
            after = service.serve(query, k=2, certainty=1.0)
            # Fingerprint-keyed cache: the old entry is unreachable.
            assert not after.cache_hit
            again = service.serve(query, k=2, certainty=1.0)
            assert again.cache_hit
            assert again.selected == after.selected


class TestInstrumentRegistration:
    ADAPT_COUNTERS = (
        "adapt_observations_total",
        "adapt_drift_checks",
        "adapt_drift_flagged",
        "adapt_swaps_total",
        "pool_stale_refusals",
    )

    @pytest.mark.parametrize("adapt", [False, True])
    def test_adapt_instruments_always_registered(
        self, trained_metasearcher, adapt
    ):
        config = ServiceConfig(
            max_workers=1,
            cache_enabled=False,
            pool_workers=0,
            adapt=adapt,
        )
        with MetasearchService(
            trained_metasearcher, config=config
        ) as service:
            snapshot = service.metrics.snapshot()
        for name in self.ADAPT_COUNTERS:
            assert name in snapshot["counters"], name
            assert snapshot["counters"][name] == 0
        assert "adapt_swap_ms" in snapshot["histograms"]


class TestBenchDrift:
    def test_drifted_specs_rotate_a_fraction(self):
        from repro.adapt.bench import BenchDriftConfig, _drifted_specs
        from repro.corpus.collections import testbed_specs
        from repro.experiments.setup import PaperSetupConfig

        setup = PaperSetupConfig(scale=0.05, n_train=10, n_test=10)
        config = BenchDriftConfig(drift_fraction=0.5)
        original = testbed_specs(setup.scale)
        drifted = _drifted_specs(config, setup)
        assert [s.name for s in drifted] == [s.name for s in original]
        assert [s.size for s in drifted] == [s.size for s in original]
        changed = [
            (before, after)
            for before, after in zip(original, drifted)
            if after.seed != before.seed
        ]
        assert len(changed) == round(len(original) * 0.5)
        for before, after in changed:
            assert after.topic_mixture != before.topic_mixture
        # Deterministic: the same config drifts the same databases.
        assert [s.seed for s in _drifted_specs(config, setup)] == [
            s.seed for s in drifted
        ]

    def test_phase_streams_are_permutations(self):
        from repro.adapt.bench import BenchDriftConfig, _phase_stream

        config = BenchDriftConfig()
        queries = [("q", str(i)) for i in range(20)]
        streams = [_phase_stream(queries, i, config) for i in range(3)]
        for stream in streams:
            assert sorted(stream) == sorted(queries)
        assert streams[0] != streams[1] != streams[2]

    def test_validate_flags_broken_documents(self):
        from repro.adapt.bench import drift_gates

        def failures(results):
            return [
                entry["name"]
                for entry in drift_gates(results)
                if entry["meets_target"] is False
            ]

        assert failures({}) != []

        def leg(lost=0, swaps=1, fp_final="b", flagged=1):
            return {
                "phases": {
                    p: {"queries": 1, "answered": 1 - lost}
                    for p in ("pre", "post_early", "post_late")
                },
                "fingerprints": {"initial": "a", "final": fp_final},
                "drift": {"swaps": swaps, "flagged": flagged},
                "lost_requests": lost,
            }

        good = {
            "phases": ["pre", "post_early", "post_late"],
            "runs": {
                "adapted": leg(),
                "frozen": leg(swaps=0, fp_final="a", flagged=0),
            },
            "post_late": {"quality_delta": 0.1, "calibration_delta": 0.05},
        }
        assert failures(good) == []
        lossy = {**good, "runs": {**good["runs"], "adapted": leg(lost=1)}}
        assert any("lost" in f for f in failures(lossy))
        frozen_swapped = {
            **good,
            "runs": {**good["runs"], "frozen": leg(swaps=2, fp_final="c")},
        }
        assert len(failures(frozen_swapped)) >= 2
        no_recovery = {
            **good,
            "post_late": {"quality_delta": 0.1, "calibration_delta": -0.01},
        }
        assert any("recovery" in f for f in failures(no_recovery))

    def test_config_validation(self):
        from repro.adapt.bench import BenchDriftConfig

        with pytest.raises(ConfigurationError):
            BenchDriftConfig(queries_per_phase=0)
        with pytest.raises(ConfigurationError):
            BenchDriftConfig(drift_fraction=0.0)
        with pytest.raises(ConfigurationError):
            BenchDriftConfig(drift_fraction=1.5)
