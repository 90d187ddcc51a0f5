"""Numeric-backend plumbing through the serving layer.

The backend knob must be resolved and validated at config construction,
reach every APro the service builds (in-process and pool workers),
never perturb answers or fingerprints, and stay visible in snapshots
and traces — with the snapshot key-set identical whichever backend is
active (the serving layer's stable-key-set convention). Served answers
are held to the oracle in ``tests/test_backend_agreement.py``.
"""

import pytest

from repro import knobs
from repro.exceptions import ConfigurationError
from repro.service.resilience import RetryPolicy
from repro.service.server import MetasearchService, ServiceConfig
from repro.service.worker import build_worker_blob


def make_service(trained_metasearcher, **config_kwargs):
    config = ServiceConfig(
        max_workers=4,
        batch_size=2,
        retry=RetryPolicy(backoff_base_s=0.0),
        **config_kwargs,
    )
    return MetasearchService(
        trained_metasearcher, config=config, sleeper=lambda s: None
    )


class TestConfigResolution:
    def test_default_resolves_registry_default(self, monkeypatch):
        monkeypatch.delenv(knobs.BACKEND, raising=False)
        assert ServiceConfig().backend == "numpy"

    def test_env_knob_resolves(self, monkeypatch):
        monkeypatch.setenv(knobs.BACKEND, "python")
        assert ServiceConfig().backend == "python"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(knobs.BACKEND, "python")
        assert ServiceConfig(backend="numpy").backend == "numpy"

    def test_name_is_canonicalized(self):
        assert ServiceConfig(backend="  PYTHON ").backend == "python"

    def test_unknown_name_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            ServiceConfig(backend="no-such-backend")

    def test_unknown_env_name_fails_at_construction(self, monkeypatch):
        monkeypatch.setenv(knobs.BACKEND, "no-such-backend")
        with pytest.raises(ConfigurationError, match="unknown backend"):
            ServiceConfig()


class TestSnapshotAndBlob:
    def test_snapshot_reports_backend_and_stable_keyset(
        self, trained_metasearcher, health_queries
    ):
        snapshots = {}
        for backend in ("python", "numpy"):
            with make_service(
                trained_metasearcher, backend=backend
            ) as service:
                service.serve(health_queries[50], k=1, certainty=0.8)
                snapshots[backend] = service.snapshot()
        assert snapshots["python"]["backend"] == "python"
        assert snapshots["numpy"]["backend"] == "numpy"
        # Key-set regression: switching backends must not add or drop
        # top-level keys or counters.
        assert set(snapshots["python"]) == set(snapshots["numpy"])
        assert set(snapshots["python"]["counters"]) == set(
            snapshots["numpy"]["counters"]
        )

    def test_blob_carries_backend_outside_fingerprint(
        self, trained_metasearcher
    ):
        default = build_worker_blob(trained_metasearcher)
        python = build_worker_blob(trained_metasearcher, backend="python")
        numpy_blob = build_worker_blob(trained_metasearcher, backend="numpy")
        assert default.backend is None
        assert python.backend == "python"
        assert numpy_blob.backend == "numpy"
        # Backends are answer-invariant, so they must not retire cache
        # entries or mark worker state stale: same fingerprint.
        assert python.fingerprint == numpy_blob.fingerprint
        assert default.fingerprint == python.fingerprint

    def test_analyze_span_is_backend_annotated(
        self, trained_metasearcher, health_queries
    ):
        with make_service(
            trained_metasearcher, backend="numpy", trace=True
        ) as service:
            service.serve(health_queries[50], k=1, certainty=0.8)
            spans = service.trace_spans()
        analyze = [s for s in spans if s["name"] == "service.analyze"]
        assert analyze
        assert all(
            s.get("attrs", {}).get("backend") == "numpy" for s in analyze
        )
