"""Environment knobs: the one module that reads ``REPRO_*`` variables.

A knob fills a config field left unset (``None``); an explicit value
wins. Knobs are read when a config is built, not cached at import, and
a malformed one raises :class:`~repro.exceptions.ConfigurationError`
from the config that reads it alone. An empty value is the default.

======================  ==================  =======  =============================
variable                accepted values     default  fills
======================  ==================  =======  =============================
REPRO_BACKEND           numpy, python       numpy    ServiceConfig.backend, and
                                                     every core ``backend=None``
REPRO_POOL_WORKERS      integer >= 0        0        ServiceConfig.pool_workers
REPRO_ADAPT             integer, 0 = off    off      ServiceConfig.adapt
REPRO_TRACE             integer, stderr     off      ServiceConfig.trace (and
                                                     trace_stderr for stderr)
REPRO_CACHE_TIER        host:port           none     ServiceConfig.cache_tier
REPRO_PREFILTER         off, 0, exact, 1    off      MetasearcherConfig.prune_mode
REPRO_CLUSTER_REPLICAS  integer >= 1        2        ``cluster --replicas``
REPRO_POOL_CRASH_TERM   a query term        unset    a pool worker exits on it
======================  ==================  =======  =============================

A spawned cluster replica builds both configs itself, but its
``ReplicaSpec`` pins ``pool_workers=0`` and fills ``trace`` and
``cache_tier`` when set. A pool worker reads only the crash hook (a
fault-test aid): the backend and the prune mode travel in its state
blob. Only the ``cluster`` command and its example read
``REPRO_CLUSTER_REPLICAS``.
"""

from __future__ import annotations

import os

from repro.exceptions import ConfigurationError

__all__ = [
    "BACKEND",
    "POOL_WORKERS",
    "ADAPT",
    "TRACE",
    "CACHE_TIER",
    "PREFILTER",
    "CLUSTER_REPLICAS",
    "POOL_CRASH_TERM",
    "backend",
    "pool_workers",
    "adapt",
    "trace",
    "cache_tier",
    "prune_mode",
    "cluster_replicas",
    "pool_crash_term",
    "resolved",
]

BACKEND = "REPRO_BACKEND"
POOL_WORKERS = "REPRO_POOL_WORKERS"
ADAPT = "REPRO_ADAPT"
TRACE = "REPRO_TRACE"
CACHE_TIER = "REPRO_CACHE_TIER"
PREFILTER = "REPRO_PREFILTER"
CLUSTER_REPLICAS = "REPRO_CLUSTER_REPLICAS"
POOL_CRASH_TERM = "REPRO_POOL_CRASH_TERM"

_PRUNE_MODES = {"": "off", "0": "off", "off": "off", "1": "exact", "exact": "exact"}


def _read(name: str) -> str:
    return os.environ.get(name, "").strip()


def _integer(name: str, default: int) -> int:
    raw = _read(name)
    try:
        return int(raw) if raw else default
    except ValueError:
        raise ConfigurationError(f"{name} must be an integer, got {raw!r}") from None


def backend() -> str:
    """``REPRO_BACKEND``: a name in the backend table; ``numpy`` if unset."""
    # Imported here: the backend table imports this module.
    from repro.core.backend.registry import available_backends

    raw = os.environ.get(BACKEND, "")
    name = raw.strip().lower() or "numpy"
    if name not in available_backends():
        raise ConfigurationError(
            f"{BACKEND}={raw!r} names an unknown backend; "
            f"available: {', '.join(available_backends())}"
        )
    return name


def pool_workers() -> int:
    """``REPRO_POOL_WORKERS``: selection-pool width; ``0`` if unset."""
    return _integer(POOL_WORKERS, 0)


def adapt() -> bool:
    """``REPRO_ADAPT``: online adaptation; off if unset."""
    return bool(_integer(ADAPT, 0))


def trace() -> str:
    """``REPRO_TRACE``: ``"off"`` (if unset), ``"on"`` or ``"stderr"``."""
    raw = _read(TRACE).lower()
    if raw == "stderr":
        return raw
    try:
        return "on" if raw and int(raw) else "off"
    except ValueError:
        raise ConfigurationError(
            f"{TRACE} must be an integer or 'stderr', got {raw!r}"
        ) from None


def cache_tier() -> str | None:
    """``REPRO_CACHE_TIER``: a tier address, validated by the config."""
    return _read(CACHE_TIER) or None


def prune_mode() -> str:
    """``REPRO_PREFILTER``: ``"off"`` (if unset) or ``"exact"``."""
    raw = _read(PREFILTER).lower()
    if raw not in _PRUNE_MODES:
        raise ConfigurationError(
            f"{PREFILTER}={raw!r} is not a valid prune mode; "
            f"use one of {sorted(set(_PRUNE_MODES.values()))}"
        )
    return _PRUNE_MODES[raw]


def cluster_replicas() -> int:
    """``REPRO_CLUSTER_REPLICAS``: the ``cluster`` replica count; 2 if unset."""
    return _integer(CLUSTER_REPLICAS, 2)


def pool_crash_term() -> str | None:
    """``REPRO_POOL_CRASH_TERM``: the term that kills a pool worker."""
    return os.environ.get(POOL_CRASH_TERM) or None


def resolved() -> dict[str, object]:
    """Every knob but the crash hook, by variable name (bench envelopes).

    A malformed knob is recorded as its error message, not raised: only
    a config that reads it fails.
    """
    values: dict[str, object] = {}
    for name, parse in zip(
        (BACKEND, POOL_WORKERS, ADAPT, TRACE, CACHE_TIER, PREFILTER, CLUSTER_REPLICAS),
        (backend, pool_workers, adapt, trace, cache_tier, prune_mode, cluster_replicas),
    ):
        try:
            values[name] = parse()
        except ConfigurationError as error:
            values[name] = f"invalid: {error}"
    return values
