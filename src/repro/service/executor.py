"""Concurrent probe dispatch: the serving layer's `BatchProber`.

APro's batch hook (``batch_size`` in :meth:`repro.core.probing.APro.run`)
picks up to *b* databases per decision round; the paper executes those
probes one after another. :class:`ProbeExecutor` executes each round
through a :class:`concurrent.futures.ThreadPoolExecutor` instead, so a
round's wall-clock cost is the *slowest* probe rather than the *sum* —
the difference between 400 ms and 60 ms per round against real remote
backends. A one-probe round (the paper's strictly sequential APro)
has nothing to overlap, so it runs on the calling thread.

Observations are always applied in the policy's choice order (not
completion order), so selections are bit-identical to the sequential
path for any worker count. A probe that fails even after its database's
retry budget degrades gracefully: the executor substitutes the caller
supplied fallback (the RD point estimate) instead of aborting the
query.
"""

from __future__ import annotations

import contextvars
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor, wait

from repro.exceptions import ConfigurationError
from repro.hiddenweb.database import RelevancyDefinition
from repro.hiddenweb.mediator import Mediator
from repro.obs import span
from repro.service.faults import FaultInjector
from repro.service.metrics import MetricsRegistry
from repro.service.resilience import (
    ProbeFailedError,
    ResilientDatabase,
    RetryPolicy,
)
from repro.types import Query

__all__ = ["ProbeExecutor"]

#: Fallback signature: (database name, query) -> substitute relevancy.
FallbackFn = Callable[[str, Query], float]


class ProbeExecutor:
    """Thread-pooled, fault-tolerant probe execution over a mediator.

    Implements the :class:`~repro.core.probing.BatchProber` protocol:
    hand an instance to :class:`~repro.core.probing.APro` (or let
    :class:`~repro.service.server.MetasearchService` do it) and every
    probe round runs concurrently.

    Parameters
    ----------
    mediator:
        The databases to probe. Each is wrapped in a
        :class:`ResilientDatabase` sharing *policy*, *injector* and
        *metrics*.
    definition:
        Relevancy definition probes are reduced under.
    max_workers:
        Thread-pool width. ``1`` reproduces the serial path exactly
        (useful as a benchmark baseline).
    policy:
        Timeout/retry policy applied to every database.
    injector:
        Optional deterministic fault schedule shared by all databases.
    fallback:
        Called when a database exhausts its retries; returns the value
        to use instead (the serving layer passes the selector's point
        estimate, the paper's r̂). Without a fallback the failure
        propagates as :class:`ProbeFailedError`.
    metrics:
        Registry receiving executor and per-probe instruments.
    sleeper:
        Forwarded to the resilient wrappers (tests inject a recorder).
    """

    def __init__(
        self,
        mediator: Mediator,
        definition: RelevancyDefinition = RelevancyDefinition.DOCUMENT_FREQUENCY,
        max_workers: int = 8,
        policy: RetryPolicy | None = None,
        injector: FaultInjector | None = None,
        fallback: FallbackFn | None = None,
        metrics: MetricsRegistry | None = None,
        sleeper=None,
    ) -> None:
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self._mediator = mediator
        self._definition = definition
        self._fallback = fallback
        self._metrics = metrics or MetricsRegistry()
        kwargs = {} if sleeper is None else {"sleeper": sleeper}
        self._databases = [
            ResilientDatabase(
                db,
                policy=policy,
                injector=injector,
                metrics=self._metrics,
                **kwargs,
            )
            for db in mediator
        ]
        # Pre-registered so clean and degraded runs export the same
        # metric key-set.
        self._metrics.counter("probe_fallbacks")
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="probe"
        )
        self._closed = False
        self.max_workers = max_workers

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry all instruments report to."""
        return self._metrics

    @property
    def databases(self) -> list[ResilientDatabase]:
        """The resilient wrappers, in mediation order."""
        return list(self._databases)

    def probe_batch(
        self, query: Query, indices: Sequence[int]
    ) -> list[float]:
        """Probe *indices* concurrently; observations in choice order.

        A one-probe round runs on the calling thread, sparing the
        hand-off to a pool thread. Every probe a round started has
        finished before it returns or raises; without a fallback, the
        first failure in choice order propagates.

        Raises
        ------
        RuntimeError
            After :meth:`shutdown`, for a round of any width.
        ProbeFailedError
            A probe exhausted its retries and there is no fallback.
        """
        if self._closed:
            raise RuntimeError("cannot run a probe round after shutdown")
        if not indices:
            return []
        if len(indices) == 1:
            return [self._probe_one(indices[0], query)]
        # Each submit copies the caller's contextvars so a probe thread
        # sees the request's active trace (a Context can only be
        # entered once at a time, hence one copy per future).
        futures = [
            self._pool.submit(
                contextvars.copy_context().run,
                self._probe_one,
                index,
                query,
            )
            for index in indices
        ]
        # Join the round before anything propagates: a probe left
        # running would overlap the next round's attempt on its
        # database (see ResilientDatabase._next_attempt).
        wait(futures)
        return [future.result() for future in futures]

    def _probe_one(self, index: int, query: Query) -> float:
        database = self._databases[index]
        with span(f"probe.{database.name}") as probe_span:
            try:
                return database.probe_relevancy(query, self._definition)
            except ProbeFailedError:
                if self._fallback is None:
                    raise
                probe_span.set_outcome("fallback")
                self._metrics.counter("probe_fallbacks").inc()
                return self._fallback(database.name, query)

    def shutdown(self) -> None:
        """Refuse further rounds and release the worker threads."""
        self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ProbeExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"ProbeExecutor(databases={len(self._databases)}, "
            f"workers={self.max_workers})"
        )
