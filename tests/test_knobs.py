"""A malformed ``REPRO_*`` knob fails the config that reads it, with one
fixed message per knob (the table is in ``repro.knobs``)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.metasearch.metasearcher import MetasearcherConfig
from repro.service.server import ServiceConfig


@pytest.mark.parametrize(
    ("variable", "raw", "config", "message"),
    [
        (
            "REPRO_POOL_WORKERS",
            "x",
            ServiceConfig,
            "REPRO_POOL_WORKERS must be an integer, got 'x'",
        ),
        (
            "REPRO_POOL_WORKERS",
            "-1",
            ServiceConfig,
            "pool_workers must be >= 0, got -1",
        ),
        (
            "REPRO_ADAPT",
            "maybe",
            ServiceConfig,
            "REPRO_ADAPT must be an integer, got 'maybe'",
        ),
        (
            "REPRO_TRACE",
            "yes",
            ServiceConfig,
            "REPRO_TRACE must be an integer or 'stderr', got 'yes'",
        ),
        (
            "REPRO_CACHE_TIER",
            "nohost",
            ServiceConfig,
            "cache tier address must be 'host:port', got 'nohost'",
        ),
        (
            "REPRO_BACKEND",
            "cuda",
            ServiceConfig,
            "REPRO_BACKEND='cuda' names an unknown backend; "
            "available: numpy, python",
        ),
        (
            "REPRO_PREFILTER",
            "banana",
            MetasearcherConfig,
            "REPRO_PREFILTER='banana' is not a valid prune mode; "
            "use one of ['exact', 'off']",
        ),
    ],
)
def test_malformed_value_message(monkeypatch, variable, raw, config, message):
    monkeypatch.setenv(variable, raw)
    with pytest.raises(ConfigurationError) as caught:
        config()
    assert str(caught.value) == message
