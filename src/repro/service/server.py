"""`MetasearchService`: the serving facade.

Ties the serving subsystem together around a trained
:class:`~repro.metasearch.metasearcher.Metasearcher`:

* probe rounds run through a :class:`ProbeExecutor` (concurrent,
  fault-tolerant, metered);
* a failed database degrades to its RD point estimate r̂ instead of
  failing the query;
* repeated ``(query, k, certainty)`` requests are answered from a
  TTL-keyed :class:`SelectionCache`;
* every request feeds the :class:`MetricsRegistry` (probes, retries,
  timeouts, fallbacks, cache hits, per-query latency and probe counts);
* with ``adapt`` on, every served probe also feeds the online
  adaptation loop (:mod:`repro.adapt`), and :meth:`swap_model`
  hot-swaps a refreshed error model into both execution paths with
  zero dropped requests.

The service serves *selections* — which databases to route a query to
and with what certainty — which is the expensive, probe-consuming part
of metasearch. Result fusion stays on the caller's side.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace

from repro import knobs
from repro.core.backend import get_backend
from repro.core.deadline import Deadline
from repro.core.probing import APro
from repro.exceptions import ConfigurationError, ReproError
from repro.metasearch.metasearcher import Metasearcher
from repro.obs import (
    MultiTraceSink,
    RingBufferTraceSink,
    StderrTraceSink,
    Tracer,
    replay_spans,
    span,
    wire_context,
)
from repro.service.cache import SelectionCache
from repro.service.executor import ProbeExecutor
from repro.service.faults import FaultInjector
from repro.service.metrics import MetricsRegistry
from repro.service.pool import (
    PoolExecutionError,
    PoolRequest,
    PoolResult,
    PoolUnavailableError,
    SelectionPool,
    StaleRequestError,
    WorkerCrashedError,
)
from repro.service.resilience import RetryPolicy
from repro.service.worker import build_worker_blob, refresh_worker_blob
from repro.types import Query

__all__ = ["ServiceConfig", "ServedAnswer", "MetasearchService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the serving layer.

    ``cache_tier``, ``pool_workers``, ``adapt``, ``trace`` and
    ``backend`` default to ``None``, which construction fills from the
    field's ``REPRO_*`` knob (:mod:`repro.knobs`).

    Parameters
    ----------
    max_workers:
        Probe thread-pool width (1 = serial execution).
    batch_size:
        Probes issued per APro decision round. ``None`` inherits the
        metasearcher's ``probe_batch_size``. Widths above 1 are what
        give the executor probes to overlap.
    retry:
        Timeout/retry policy applied to every database.
    cache_ttl_s:
        Selection-cache TTL; ``None`` disables expiry.
    cache_entries:
        Selection-cache capacity (LRU beyond it).
    cache_enabled:
        Turn the selection cache off entirely (benchmarking the raw
        probe path).
    cache_tier:
        ``host:port`` of a shared cross-replica selection-cache tier
        (:class:`repro.cluster.cachetier.CacheTierServer`); the local
        cache becomes the L1 in front of it; no tier by default. The
        tier is an optimization, never a dependency: every failure
        degrades to a miss and is counted in ``cache_tier_errors``.
    cache_tier_timeout_s:
        Socket timeout on tier round trips (kept short so a sick tier
        cannot stall the serve path).
    pool_workers:
        Selection-pool width: number of worker *processes* running the
        CPU-bound selection stages (``0`` = in-process selection, the
        default).
    pool_mode:
        Dispatch protocol. Only ``"query"`` (whole-query dispatch with
        a probe callback over the worker pipe) is implemented — the
        field exists so the alternative parent-driven-rounds protocol
        has a configuration seam if it is ever needed; see
        ``docs/PERFORMANCE.md`` for why whole-query won.
    pool_tasks_per_worker:
        Recycle a pool worker after this many requests (``None`` =
        never). The standard hedge against slow leaks in long-lived
        workers.
    pool_lease_timeout_s:
        How long a request may wait for a free pool worker before
        falling back to in-process selection.
    pool_max_pending:
        Bound on requests waiting for a pool lease at once; beyond it
        requests fall back in-process immediately.
    adapt:
        Enable the online-adaptation loop (:mod:`repro.adapt`): every
        served probe is recorded as a labeled sample, drift checks run
        on a cadence, and — with ``adapt_auto_swap`` — a refreshed
        model is hot-swapped into the live service. Off by default.
    adapt_window:
        Serve-time samples retained per database.
    adapt_check_every:
        Observations between drift checks.
    adapt_significance:
        χ² p-value at or below which a database counts as drifted.
    adapt_min_samples:
        Window floor below which a database is never flagged.
    adapt_auto_swap:
        Swap automatically when a check flags drift (off = observe and
        flag only; operators or the bench call ``swap_model``).
    trace:
        Enable request tracing (:mod:`repro.obs`): every request grows
        a span tree recorded in an in-memory ring buffer, readable via
        :meth:`MetasearchService.trace_spans` and the gateway's
        ``trace`` op. Off by default.
    trace_stderr:
        Additionally log every span record to stderr as NDJSON.
    trace_buffer:
        Ring-buffer capacity in span records (oldest evicted beyond
        it; evictions count in ``trace_spans_dropped``).
    backend:
        Numeric backend name for the probabilistic core (see
        :mod:`repro.core.backend`); ``numpy`` by default. Validated at
        construction: an unknown name fails here, not on the first
        request. The resolved name reaches every APro the service
        builds, including pool workers, and is reported in
        :meth:`MetasearchService.snapshot`. Backends are
        answer-invariant (the equality contract pins them to the
        ``python`` oracle), so this knob trades speed, never results.
    """

    max_workers: int = 8
    batch_size: int | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    cache_ttl_s: float | None = 300.0
    cache_entries: int = 4096
    cache_enabled: bool = True
    cache_tier: str | None = None
    cache_tier_timeout_s: float = 1.0
    pool_workers: int | None = None
    pool_mode: str = "query"
    pool_tasks_per_worker: int | None = None
    pool_lease_timeout_s: float = 5.0
    pool_max_pending: int = 64
    adapt: bool | None = None
    adapt_window: int = 256
    adapt_check_every: int = 64
    adapt_significance: float = 0.01
    adapt_min_samples: int = 48
    adapt_auto_swap: bool = False
    trace: bool | None = None
    trace_stderr: bool = False
    trace_buffer: int = 2048
    backend: str | None = None

    def __post_init__(self) -> None:
        # Validate everything here, at construction, so a bad value
        # fails with a clear message instead of deep inside the pool or
        # cache on the first request.
        if self.max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if not isinstance(self.retry, RetryPolicy):
            raise ConfigurationError(
                f"retry must be a RetryPolicy, got {type(self.retry).__name__}"
            )
        if self.cache_ttl_s is not None and self.cache_ttl_s <= 0:
            raise ConfigurationError(
                f"cache_ttl_s must be > 0 (or None for no expiry), "
                f"got {self.cache_ttl_s}"
            )
        if self.cache_entries < 1:
            raise ConfigurationError(
                f"cache_entries must be >= 1, got {self.cache_entries}"
            )
        if self.cache_tier is None:
            object.__setattr__(self, "cache_tier", knobs.cache_tier())
        if self.cache_tier is not None:
            # Validate the address shape here, at construction; the
            # lazy import keeps repro.service free of a module-level
            # dependency on repro.cluster (which imports the gateway,
            # which imports this module).
            from repro.cluster.cachetier import parse_address

            parse_address(self.cache_tier)
        if self.cache_tier_timeout_s <= 0:
            raise ConfigurationError(
                f"cache_tier_timeout_s must be > 0, "
                f"got {self.cache_tier_timeout_s}"
            )
        if self.pool_workers is None:
            object.__setattr__(self, "pool_workers", knobs.pool_workers())
        if self.pool_workers < 0:
            raise ConfigurationError(
                f"pool_workers must be >= 0, got {self.pool_workers}"
            )
        if self.pool_mode != "query":
            raise ConfigurationError(
                f"pool_mode must be 'query' (whole-query dispatch with "
                f"probe callback), got {self.pool_mode!r}"
            )
        if (
            self.pool_tasks_per_worker is not None
            and self.pool_tasks_per_worker < 1
        ):
            raise ConfigurationError(
                f"pool_tasks_per_worker must be >= 1, "
                f"got {self.pool_tasks_per_worker}"
            )
        if self.pool_lease_timeout_s <= 0:
            raise ConfigurationError(
                f"pool_lease_timeout_s must be > 0, "
                f"got {self.pool_lease_timeout_s}"
            )
        if self.pool_max_pending < 1:
            raise ConfigurationError(
                f"pool_max_pending must be >= 1, got {self.pool_max_pending}"
            )
        if self.adapt is None:
            object.__setattr__(self, "adapt", knobs.adapt())
        if self.adapt_window < 1:
            raise ConfigurationError(
                f"adapt_window must be >= 1, got {self.adapt_window}"
            )
        if self.adapt_check_every < 1:
            raise ConfigurationError(
                f"adapt_check_every must be >= 1, "
                f"got {self.adapt_check_every}"
            )
        if not 0.0 < self.adapt_significance < 1.0:
            raise ConfigurationError(
                f"adapt_significance must be in (0, 1), "
                f"got {self.adapt_significance}"
            )
        if self.adapt_min_samples < 1:
            raise ConfigurationError(
                f"adapt_min_samples must be >= 1, "
                f"got {self.adapt_min_samples}"
            )
        if self.trace is None:
            mode = knobs.trace()
            object.__setattr__(self, "trace", mode != "off")
            if mode == "stderr":
                object.__setattr__(self, "trace_stderr", True)
        if self.trace_buffer < 1:
            raise ConfigurationError(
                f"trace_buffer must be >= 1, got {self.trace_buffer}"
            )
        if self.backend is None:
            object.__setattr__(self, "backend", knobs.backend())
        else:
            # Resolve through the registry so an unknown name fails at
            # construction; store the canonical (lowercased) name.
            object.__setattr__(self, "backend", get_backend(self.backend).name)


@dataclass(frozen=True)
class ServedAnswer:
    """One served selection.

    ``degraded`` is ``None`` for a full-quality answer; the value
    ``"deadline"`` marks an answer whose probing loop was cut short by
    an expiring wall-clock :class:`~repro.core.deadline.Deadline` —
    ``certainty`` then reports what was actually reached, which may be
    below ``certainty_required``. Degraded answers are never cached.

    ``probe_order`` lists the probed databases in execution order — the
    pool-identity tests compare it exactly between in-process and
    multiprocess execution.
    """

    query: Query
    k: int
    certainty_required: float
    selected: tuple[str, ...]
    certainty: float
    probes: int
    cache_hit: bool
    wall_ms: float
    degraded: str | None = None
    probe_order: tuple[str, ...] = ()


class MetasearchService:
    """Concurrent, fault-tolerant selection serving.

    Parameters
    ----------
    metasearcher:
        A *trained* metasearcher (raises otherwise).
    config:
        Serving tunables.
    injector:
        Optional deterministic fault schedule (benchmarks and tests).
    metrics:
        Registry to report into (created if omitted).
    clock:
        Monotonic clock for cache expiry (injectable for tests).
    sleeper:
        Forwarded to the resilient wrappers (tests inject a recorder).
    """

    def __init__(
        self,
        metasearcher: Metasearcher,
        config: ServiceConfig | None = None,
        injector: FaultInjector | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleeper: Callable[[float], None] | None = None,
    ) -> None:
        if not metasearcher.is_trained:
            raise ReproError(
                "MetasearchService requires a trained Metasearcher"
            )
        self._metasearcher = metasearcher
        self._config = config or ServiceConfig()
        self._metrics = metrics or MetricsRegistry()
        selector = metasearcher.selector
        self._executor = ProbeExecutor(
            selector.mediator,
            definition=selector.definition,
            max_workers=self._config.max_workers,
            policy=self._config.retry,
            injector=injector,
            fallback=selector.estimate,
            metrics=self._metrics,
            sleeper=sleeper,
        )
        self._apro = APro(
            selector,
            policy=metasearcher.policy,
            prober=self._executor,
            backend=self._config.backend,
            prune=metasearcher.config.prune_mode == "exact",
        )
        # The fingerprinted state blob is built whether or not the pool
        # is enabled: it names the model version in cache keys and is
        # what a hot swap refreshes.
        self._blob = build_worker_blob(
            metasearcher, backend=self._config.backend
        )
        self._pool: SelectionPool | None = None
        if self._config.pool_workers > 0:
            self._pool = SelectionPool(
                self._blob,
                prober=self._pool_probe,
                workers=self._config.pool_workers,
                metrics=self._metrics,
                max_tasks_per_worker=self._config.pool_tasks_per_worker,
                lease_timeout_s=self._config.pool_lease_timeout_s,
                max_pending=self._config.pool_max_pending,
            )
        self._cache: SelectionCache | None = None
        if self._config.cache_enabled:
            self._cache = SelectionCache(
                ttl_s=self._config.cache_ttl_s,
                max_entries=self._config.cache_entries,
                clock=clock,
            )
        self._cache_tier = None
        if self._config.cache_tier is not None:
            # Lazy import for the same layering reason as in
            # ServiceConfig: repro.cluster imports this module.
            from repro.cluster.cachetier import CacheTierClient

            self._cache_tier = CacheTierClient(
                self._config.cache_tier,
                timeout_s=self._config.cache_tier_timeout_s,
            )
        # Pre-register every service-level instrument so the exported
        # key-set is identical across clean, faulty and cache-disabled
        # runs — snapshot diffing relies on stable keys.
        for counter in (
            "queries_served",
            "cache_hits",
            "cache_misses",
            # Cache-tier instruments are registered whether or not a
            # tier is configured, so pointing a replica at one never
            # changes the snapshot key-set.
            "cache_tier_hits",
            "cache_tier_misses",
            "cache_tier_puts",
            "cache_tier_errors",
            # Pool instruments are registered whether or not the pool is
            # enabled, so enabling it never changes the snapshot key-set.
            "pool_dispatch",
            "pool_worker_restarts",
            "pool_worker_recycles",
            "pool_fallback_total",
            "pool_stale_refusals",
            # Adaptation instruments, likewise always registered.
            "adapt_observations_total",
            "adapt_drift_checks",
            "adapt_drift_flagged",
            "adapt_swaps_total",
            # Tracing instruments, likewise always registered.
            "trace_spans_total",
            "trace_spans_dropped",
        ):
            self._metrics.counter(counter)
        self._metrics.gauge("pool_queue_depth")
        # Per-request count of databases excluded from the belief
        # machinery by bound pruning; all zeros with pruning off.
        self._metrics.histogram("pruned_databases")
        self._metrics.histogram("adapt_swap_ms", deterministic=False)
        self._metrics.histogram("query_probes")
        self._metrics.histogram("query_probes_uncached")
        self._metrics.histogram("query_latency_wall_ms", deterministic=False)
        # Per-stage wall clocks of the uncached path: query analysis vs
        # the APro probing loop (the hot path docs/PERFORMANCE.md
        # profiles; stage_apro_ms is where the incremental-belief-update
        # speedups land; stage_pool_ms isolates the pool's
        # lease+dispatch+conversation wall inside stage_apro_ms).
        self._metrics.histogram("stage_analyze_ms", deterministic=False)
        self._metrics.histogram("stage_apro_ms", deterministic=False)
        self._metrics.histogram("stage_pool_ms", deterministic=False)
        self._tracer: Tracer | None = None
        self._trace_ring: RingBufferTraceSink | None = None
        if self._config.trace:
            self._trace_ring = RingBufferTraceSink(
                self._config.trace_buffer,
                on_drop=self._metrics.counter("trace_spans_dropped").inc,
            )
            sink = self._trace_ring
            if self._config.trace_stderr:
                sink = MultiTraceSink(sink, StderrTraceSink())
            self._tracer = Tracer(
                sink, on_emit=self._metrics.counter("trace_spans_total").inc
            )
        self._observations = None
        self._adaptation = None
        if self._config.adapt:
            # Imported lazily: repro.adapt itself imports service
            # modules, and this module is imported by the package init.
            from repro.adapt import (
                AdaptationConfig,
                ModelSwapCoordinator,
                ObservationSink,
                ObservingProber,
            )

            self._observations = ObservationSink(
                window=self._config.adapt_window, metrics=self._metrics
            )
            # The tap wraps whatever prober the APro holds; both the
            # in-process loop and pool workers' parent-side probe
            # rounds flow through this attribute.
            self._apro._prober = ObservingProber(
                self._apro.prober,
                selector=selector,
                sink=self._observations,
            )
            self._adaptation = ModelSwapCoordinator(
                baseline=metasearcher.error_model,
                sink=self._observations,
                config=AdaptationConfig(
                    window=self._config.adapt_window,
                    check_every=self._config.adapt_check_every,
                    significance=self._config.adapt_significance,
                    min_samples=self._config.adapt_min_samples,
                    auto_swap=self._config.adapt_auto_swap,
                ),
                swap=self.swap_model,
                metrics=self._metrics,
            )

    @property
    def metrics(self) -> MetricsRegistry:
        """The service's metrics registry."""
        return self._metrics

    @property
    def cache(self) -> SelectionCache | None:
        """The selection cache (``None`` when disabled)."""
        return self._cache

    @property
    def executor(self) -> ProbeExecutor:
        """The probe executor."""
        return self._executor

    @property
    def pool(self) -> SelectionPool | None:
        """The selection pool (``None`` when ``pool_workers == 0``)."""
        return self._pool

    @property
    def state_fingerprint(self) -> str:
        """Content fingerprint of the model state currently serving."""
        return self._blob.fingerprint

    @property
    def adaptation(self):
        """The :class:`~repro.adapt.ModelSwapCoordinator`, or ``None``."""
        return self._adaptation

    @property
    def tracer(self) -> Tracer | None:
        """The request tracer (``None`` when tracing is disabled)."""
        return self._tracer

    def trace_spans(self, limit: int | None = None) -> list[dict]:
        """Recent span records from the ring buffer, oldest first.

        Empty when tracing is disabled — callers need no enabled
        check before asking.
        """
        if self._trace_ring is None:
            return []
        return self._trace_ring.recent(limit)

    @property
    def observations(self):
        """The :class:`~repro.adapt.ObservationSink`, or ``None``."""
        return self._observations

    def swap_model(self, error_model) -> str:
        """Hot-swap a refreshed error model into the live service.

        Zero-downtime across both execution paths: the in-process
        selector/APro are rebuilt (keeping the current prober, so probe
        taps and test interposers survive), the fingerprinted state
        blob is refreshed, and a running pool is updated in place —
        idle workers reload immediately, busy ones finish their
        in-flight request under the old state and reload lazily (see
        :meth:`SelectionPool.update_state`). Requests that began before
        the swap answer under the model their fingerprint names;
        requests that begin after it answer under the new one. Returns
        the new fingerprint.

        Fingerprints are content hashes: swapping in a bit-identical
        model state yields the same fingerprint, every cache key stays
        valid, and the pool reload short-circuits — a no-op swap is
        free and answer-invariant.
        """
        with span("adapt.swap") as swap_span:
            fingerprint = self._swap_model(error_model)
            swap_span.set_fingerprint(fingerprint)
            return fingerprint

    def _swap_model(self, error_model) -> str:
        started = time.perf_counter()
        # The trained selector's non-model state (mediator, summaries,
        # certain-zero index, estimator, classifier, definition) is
        # swap-invariant; only the error model moves.
        new_selector = self._metasearcher.selector.with_error_model(
            error_model
        )
        prober = self._apro.prober
        self._apro = APro(
            new_selector,
            policy=self._metasearcher.policy,
            prober=prober,
            backend=self._config.backend,
            prune=self._metasearcher.config.prune_mode == "exact",
        )
        if self._observations is not None and hasattr(prober, "retarget"):
            prober.retarget(new_selector)
        self._blob = refresh_worker_blob(
            self._blob, error_model.state_dict()
        )
        if self._pool is not None:
            self._pool.update_state(self._blob)
        self._metrics.counter("adapt_swaps_total").inc()
        self._metrics.histogram(
            "adapt_swap_ms", deterministic=False
        ).observe((time.perf_counter() - started) * 1000.0)
        return self._blob.fingerprint

    def _pool_probe(
        self, query: Query, indices: Sequence[int]
    ) -> Sequence[float]:
        """Parent-side probe callback for pool workers.

        Reads ``self._apro.prober`` at call time — not at pool
        construction — so whatever prober the in-process path would use
        right now (including test interposers patched onto the APro)
        also executes the pool's probe rounds.
        """
        return self._apro.prober.probe_batch(query, indices)

    def _batch_size(self) -> int:
        if self._config.batch_size is not None:
            return self._config.batch_size
        return self._metasearcher.config.probe_batch_size

    def serve(
        self,
        query: Query | str,
        k: int,
        certainty: float = 0.0,
        deadline: Deadline | None = None,
    ) -> ServedAnswer:
        """Answer one selection request (cache → probe → record).

        With a *deadline*, probing stops once it expires and the answer
        comes back marked ``degraded="deadline"`` with the certainty
        actually reached — never an exception. An already-expired
        deadline yields the pure no-probe RD-based selection (the
        ``max_probes=0`` contract). Cache hits are free and are served
        whatever the deadline; degraded answers are never cached, so a
        later unhurried request recomputes at full quality.

        With tracing on, the request runs under a ``service.serve``
        span — a child of the caller's active trace (the gateway's
        ``gateway.request``) when there is one, else a new root for
        direct callers.
        """
        with span(
            "service.serve",
            fingerprint=self._blob.fingerprint,
            tracer=self._tracer,
        ) as serve_span:
            answer = self._serve(query, k, certainty, deadline)
            if answer.degraded is not None:
                serve_span.set_outcome("degraded")
            return answer

    def _serve(
        self,
        query: Query | str,
        k: int,
        certainty: float,
        deadline: Deadline | None,
    ) -> ServedAnswer:
        started = time.perf_counter()
        with span("service.analyze", backend=self._config.backend):
            analyzed = self._metasearcher.analyze(query)
        analyze_ms = (time.perf_counter() - started) * 1000.0
        searcher_config = self._metasearcher.config
        # The state fingerprint keys the cache entry to the model that
        # computed it: a hot swap retires old entries wholesale (they
        # age out unreferenced) instead of serving selections a retired
        # model chose. Read once — a request that raced a swap lands
        # fully under one fingerprint or the other, never a mixture.
        key = (
            self._blob.fingerprint,
            analyzed,
            k,
            certainty,
            searcher_config.metric.name,
        )
        if self._cache is not None:
            with span("service.cache") as cache_span:
                cached = self._cache.get(key)
                cache_span.set_outcome("hit" if cached else "miss")
            if cached is not None:
                self._metrics.counter("cache_hits").inc()
                wall_ms = (time.perf_counter() - started) * 1000.0
                # A hit issues no probes: record 0 so `query_probes`
                # keeps measuring actual probe traffic, not what the
                # cached answer once cost.
                self._observe_query(0, wall_ms, hit=True)
                return replace(cached, cache_hit=True, wall_ms=wall_ms)
            self._metrics.counter("cache_misses").inc()
        if self._cache_tier is not None:
            # L2: another replica may have computed this exact answer
            # already. The round trip is bounded by the tier timeout and
            # absorbs every failure as a miss, so a sick tier costs
            # latency on misses, never correctness or availability.
            tier_answer = self._tier_get(key)
            if tier_answer is not None:
                if self._cache is not None:
                    # Promote to L1 so repeats stay local.
                    self._cache.put(key, tier_answer)
                wall_ms = (time.perf_counter() - started) * 1000.0
                self._observe_query(0, wall_ms, hit=True)
                return replace(tier_answer, wall_ms=wall_ms)
        apro_started = time.perf_counter()
        selection = self._select(analyzed, k, certainty, deadline)
        ended = time.perf_counter()
        self._metrics.histogram(
            "stage_analyze_ms", deterministic=False
        ).observe(analyze_ms)
        self._metrics.histogram(
            "stage_apro_ms", deterministic=False
        ).observe((ended - apro_started) * 1000.0)
        wall_ms = (ended - started) * 1000.0
        degraded = "deadline" if selection.deadline_expired else None
        answer = ServedAnswer(
            query=analyzed,
            k=k,
            certainty_required=certainty,
            selected=selection.selected,
            certainty=selection.certainty,
            probes=selection.probes,
            cache_hit=False,
            wall_ms=wall_ms,
            degraded=degraded,
            probe_order=selection.probe_order,
        )
        if degraded is None:
            # A deadline-degraded answer would poison the cache: an
            # unhurried repeat of the same request must probe to full
            # certainty, not inherit the cut-short one. The same rule
            # guards the shared tier, where a poisoned entry would
            # spread to every replica.
            if self._cache is not None:
                self._cache.put(key, answer)
            if self._cache_tier is not None:
                self._tier_put(key, answer)
        self._observe_query(answer.probes, wall_ms, hit=False)
        if self._adaptation is not None:
            self._adaptation.maybe_step()
        return answer

    def _select(
        self,
        analyzed: Query,
        k: int,
        threshold: float,
        deadline: Deadline | None,
    ) -> PoolResult:
        """Run the CPU-bound selection stages for one uncached request.

        Pool-first: with a healthy pool the request runs on a worker
        process (probe rounds still execute parent-side through
        :meth:`_pool_probe`). Any pool-side problem — no free worker,
        dispatch queue full, a crashed worker, an unhealthy pool —
        degrades to in-process execution and increments
        ``pool_fallback_total``: slower, never an outage. Both paths
        return the same :class:`~repro.service.pool.PoolResult` shape
        and, by construction, the same answer (see the pool-identity
        tests).
        """
        searcher_config = self._metasearcher.config
        if self._pool is not None and not self._pool.healthy:
            # Configured for the pool but it gave up (too many
            # consecutive crashes): every request degrades in-process,
            # visibly.
            self._metrics.counter("pool_fallback_total").inc()
        elif self._pool is not None:
            # Deadlines cross the process boundary as a remaining-time
            # budget: the worker re-anchors it on its own monotonic
            # clock, so an expired deadline (0 remaining) stays expired
            # and a live one keeps counting down while the worker runs.
            pool_started = time.perf_counter()
            result: PoolResult | None = None
            # Two attempts: a request built just before a hot swap
            # lands carries the retired fingerprint; the pool refuses
            # it with StaleRequestError and the request is rebuilt
            # against the new state — the answer a not-yet-started
            # request is entitled to. A second refusal (a swap storm)
            # degrades in-process like any other pool problem.
            for _ in range(2):
                # The dispatch span opens before the wire context is
                # captured, so the worker-side ``pool.worker`` span
                # (and the parent-side ``probe.*`` spans the worker's
                # callback rounds run) nest under ``pool.dispatch``.
                with span("pool.dispatch") as dispatch_span:
                    request = PoolRequest(
                        query=analyzed,
                        k=k,
                        threshold=threshold,
                        metric_name=searcher_config.metric.name,
                        fingerprint=self._pool.fingerprint,
                        max_probes=searcher_config.max_probes,
                        batch_size=self._batch_size(),
                        deadline_s=(
                            None
                            if deadline is None
                            else deadline.remaining_s()
                        ),
                        trace=wire_context(),
                    )
                    try:
                        result = self._pool.execute(request)
                    except StaleRequestError:
                        dispatch_span.set_outcome("stale_retry")
                        continue
                    except (
                        PoolUnavailableError,
                        WorkerCrashedError,
                        PoolExecutionError,
                    ):
                        dispatch_span.set_outcome("fallback")
                        break
                    else:
                        replay_spans(result.spans)
                        break
            if result is None:
                self._metrics.counter("pool_fallback_total").inc()
            else:
                self._metrics.histogram(
                    "stage_pool_ms", deterministic=False
                ).observe((time.perf_counter() - pool_started) * 1000.0)
                return self._observe_pruning(result)
        session = self._apro.run(
            analyzed,
            k=k,
            threshold=threshold,
            metric=searcher_config.metric,
            max_probes=searcher_config.max_probes,
            batch_size=self._batch_size(),
            deadline=deadline,
        )
        return self._observe_pruning(
            PoolResult(
                selected=session.final.names,
                certainty=session.final.expected_correctness,
                probes=session.num_probes,
                probe_order=tuple(
                    record.database for record in session.records
                ),
                deadline_expired=session.deadline_expired,
                pruned=session.pruned_databases,
            )
        )

    def _observe_pruning(self, result: PoolResult) -> PoolResult:
        """Record the pruning histogram for one selection (both paths)."""
        self._metrics.histogram("pruned_databases").observe(
            float(result.pruned)
        )
        return result

    def serve_stream(
        self,
        queries: Iterable[Query | str],
        k: int,
        certainty: float = 0.0,
    ) -> list[ServedAnswer]:
        """Serve a query stream in order."""
        return [self.serve(query, k, certainty) for query in queries]

    def _tier_key(self, key: tuple) -> str:
        from repro.cluster.cachetier import answer_key

        fingerprint, analyzed, k, certainty, metric_name = key
        return answer_key(fingerprint, analyzed, k, certainty, metric_name)

    def _tier_get(self, key: tuple) -> ServedAnswer | None:
        from repro.cluster.cachetier import decode_answer

        with span("service.cache_tier") as tier_span:
            errors_before = self._cache_tier.errors
            value = self._cache_tier.get(self._tier_key(key))
            if self._cache_tier.errors > errors_before:
                self._metrics.counter("cache_tier_errors").inc()
            answer = (
                None
                if value is None
                else decode_answer(value, key[1], key[2], key[3])
            )
            if answer is None:
                self._metrics.counter("cache_tier_misses").inc()
                tier_span.set_outcome("miss")
            else:
                self._metrics.counter("cache_tier_hits").inc()
                tier_span.set_outcome("hit")
            return answer

    def _tier_put(self, key: tuple, answer: ServedAnswer) -> None:
        from repro.cluster.cachetier import encode_answer

        errors_before = self._cache_tier.errors
        stored = self._cache_tier.put(
            self._tier_key(key), encode_answer(answer)
        )
        if self._cache_tier.errors > errors_before:
            self._metrics.counter("cache_tier_errors").inc()
        if stored:
            self._metrics.counter("cache_tier_puts").inc()

    def _observe_query(
        self, probes: int, wall_ms: float, hit: bool
    ) -> None:
        self._metrics.counter("queries_served").inc()
        self._metrics.histogram("query_probes").observe(float(probes))
        self._metrics.histogram(
            "query_latency_wall_ms", deterministic=False
        ).observe(wall_ms)
        if not hit:
            self._metrics.histogram("query_probes_uncached").observe(
                float(probes)
            )

    def snapshot(self) -> dict[str, object]:
        """Metrics plus cache stats, one JSON-able mapping."""
        out = self._metrics.snapshot()
        if self._cache is not None:
            stats = self._cache.stats()
            out["cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "expirations": stats.expirations,
                "size": stats.size,
                "hit_rate": round(stats.hit_rate, 6),
            }
        if self._adaptation is not None:
            out["adaptation"] = self._adaptation.snapshot()
        # Always present (even without a tier) so pointing a replica at
        # one never changes the snapshot's top-level key-set.
        out["cache_tier"] = {
            "enabled": self._cache_tier is not None,
            "address": (
                None
                if self._cache_tier is None
                else self._cache_tier.address
            ),
            "errors": (
                0 if self._cache_tier is None else self._cache_tier.errors
            ),
        }
        # Always present so switching numeric backends never changes
        # the snapshot's top-level key-set.
        out["backend"] = self._config.backend
        # Always present (even with tracing off) so enabling tracing
        # never changes the snapshot's top-level key-set.
        out["trace"] = {
            "enabled": self._tracer is not None,
            "buffered": (
                0 if self._trace_ring is None else len(self._trace_ring)
            ),
        }
        return out

    def result_detail(self, answer: ServedAnswer) -> list[dict]:
        """Per-database rows behind one answer (the cursor payload).

        One row per mediated database — its RD point estimate for the
        answered query, whether it was selected, and its position in
        the probe order (``None`` if unprobed) — sorted by estimate
        descending (name-ascending tiebreak). A pure function of
        (trained state, answer), so every replica of the same model
        produces identical rows: what lets a router hand out a handle
        from any replica. At federated scale these rows dwarf the
        answer payload, which is why they page through the gateway's
        ``fetch`` op instead of riding the search response.
        """
        selector = self._metasearcher.selector
        selected = set(answer.selected)
        probe_index = {
            name: index for index, name in enumerate(answer.probe_order)
        }
        rows = [
            {
                "database": db.name,
                "estimate": selector.estimate(db.name, answer.query),
                "selected": db.name in selected,
                "probe_index": probe_index.get(db.name),
            }
            for db in selector.mediator
        ]
        rows.sort(key=lambda row: (-row["estimate"], row["database"]))
        return rows

    def shutdown(self) -> None:
        """Release executor threads and stop pool workers."""
        if self._pool is not None:
            self._pool.shutdown()
        if self._cache_tier is not None:
            self._cache_tier.close()
        self._executor.shutdown()

    def __enter__(self) -> "MetasearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"MetasearchService(workers={self._config.max_workers}, "
            f"pool={self._config.pool_workers}, "
            f"cache={self._cache is not None})"
        )

    @staticmethod
    def selections(answers: Sequence[ServedAnswer]) -> list[tuple[str, ...]]:
        """The selected-name tuples of a stream (comparison helper)."""
        return [answer.selected for answer in answers]
