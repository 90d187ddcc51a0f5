"""The asyncio TCP front end over :class:`MetasearchService`.

The serving layer (PR 1/2) made probing concurrent and fault-tolerant,
but it is only reachable in-process and its only probing bound is a
count. :class:`MetasearchGateway` is the broker tier a federated-search
deployment puts in front of resource selection:

* **Admission control with load shedding** — at most ``max_inflight``
  requests execute concurrently; up to ``max_queue`` more wait. Beyond
  that, requests are *shed* immediately with a typed ``overloaded``
  response carrying ``retry_after_ms``, so an overloaded gateway stays
  responsive instead of building an unbounded backlog.
* **Single-flight coalescing** — concurrent requests with an identical
  ``(query, k, certainty)`` and the same deadline *presence* ride one
  backend ``serve`` call: one leader executes, followers await its
  future. This is what the selection cache cannot do for *concurrent*
  duplicates (they all miss before the first completes) and it turns a
  thundering herd of popular queries into one probe session. A
  degraded answer is never handed to a caller with budget left: a
  deadline-free request never coalesces onto a deadline-bounded
  leader, and a follower whose own deadline has not expired when the
  leader's answer arrives ``degraded="deadline"`` re-dispatches once
  under its own budget.
* **Per-request wall-clock deadlines** — ``deadline_ms`` becomes a
  :class:`~repro.core.deadline.Deadline` at arrival, so coalescing and
  queue wait consume budget too. An expiring deadline stops APro early and the
  answer returns *degraded*, never an exception; an already-expired
  deadline yields the pure no-probe RD selection (``max_probes=0``
  contract).
* **Graceful drain** — the shared `gateway/v1` transport
  (:class:`~repro.gateway.frontend.FrontEnd`) drains the connections;
  ``gateway.admit`` refuses new requests with ``shutting_down``, and the
  executor is released last.

The backend stays the thread-pooled :class:`MetasearchService`: each
admitted request runs ``serve`` through ``run_in_executor`` on a pool
sized to ``max_inflight``, bridging service threads and the event loop
without touching the existing ``ProbeExecutor``.

Every gateway instrument (``gateway_inflight``, ``gateway_queue_depth``,
``gateway_shed``, ``gateway_coalesced``, ``gateway_coalesce_redispatch``,
``gateway_deadline_hits``, ``gateway_degraded_served``,
``gateway_request_ms``) is pre-registered at construction, per the
serving layer's stable-key-set convention. ``gateway_deadline_hits``
counts *backend calls* that came back deadline-degraded;
``gateway_degraded_served`` counts *responses* that carried a degraded
answer to a client — with coalescing the two legitimately differ.

With tracing enabled on the backend service (see :mod:`repro.obs`),
every search request runs under a ``gateway.request`` root span with
``gateway.admit`` / ``gateway.queue`` children, and the ``trace`` op
returns the ring buffer's recent span records.
"""

from __future__ import annotations

import asyncio
import binascii
import contextlib
import contextvars
import functools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.deadline import Deadline
from repro.exceptions import ConfigurationError
from repro.gateway.frontend import FrontEnd, check_transport_config
from repro.gateway.protocol import (
    ErrorCode,
    GatewayError,
    GatewayRequest,
    answer_payload,
)
from repro.obs import collecting_trace, current_trace_id, span
from repro.service.cache import SelectionCache
from repro.service.pool import PoolUnavailableError
from repro.service.server import MetasearchService, ServedAnswer

__all__ = ["GatewayConfig", "MetasearchGateway"]


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables of the network front end.

    Parameters
    ----------
    host / port:
        Listen address; port ``0`` binds an ephemeral port (tests and
        benchmarks read it back from :attr:`MetasearchGateway.port`).
    max_inflight:
        Backend concurrency: requests executing ``serve`` at once (also
        the width of the bridging thread pool).
    max_queue:
        Admitted requests allowed to wait for a backend slot. A request
        arriving with the queue full is shed.
    shed_retry_after_ms:
        Base back-off hint on shed responses; scaled up as the queue
        fills.
    default_deadline_ms:
        Deadline applied to requests that do not carry their own
        (``None`` = unbounded).
    coalesce:
        Single-flight identical concurrent requests (on by default).
    drain_timeout_s:
        :meth:`stop` waits this long for in-flight requests before
        cancelling stragglers.
    max_line_bytes:
        Hard bound on one request line (protocol framing guard).
    cursor_ttl_s:
        How long a ``(run_id, cursor)`` result set is held server-side
        before a ``fetch`` gets ``not_found`` (``None`` = no expiry).
    cursor_entries:
        Result sets held at once (LRU eviction beyond it).
    cursor_page_limit:
        Hard cap on one ``fetch`` page, whatever the client asks for —
        the wire-payload bound the cursor design exists to keep.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 8
    max_queue: int = 32
    shed_retry_after_ms: float = 50.0
    default_deadline_ms: float | None = None
    coalesce: bool = True
    drain_timeout_s: float = 5.0
    max_line_bytes: int = 64 * 1024
    cursor_ttl_s: float | None = 300.0
    cursor_entries: int = 512
    cursor_page_limit: int = 1024

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_queue < 0:
            raise ConfigurationError(
                f"max_queue must be >= 0, got {self.max_queue}"
            )
        if self.shed_retry_after_ms < 0:
            raise ConfigurationError(
                f"shed_retry_after_ms must be >= 0, "
                f"got {self.shed_retry_after_ms}"
            )
        if (
            self.default_deadline_ms is not None
            and self.default_deadline_ms < 0
        ):
            raise ConfigurationError(
                f"default_deadline_ms must be >= 0, "
                f"got {self.default_deadline_ms}"
            )
        check_transport_config(self)
        if self.cursor_ttl_s is not None and self.cursor_ttl_s <= 0:
            raise ConfigurationError(
                f"cursor_ttl_s must be > 0 (or None for no expiry), "
                f"got {self.cursor_ttl_s}"
            )
        if self.cursor_entries < 1:
            raise ConfigurationError(
                f"cursor_entries must be >= 1, got {self.cursor_entries}"
            )
        if self.cursor_page_limit < 1:
            raise ConfigurationError(
                f"cursor_page_limit must be >= 1, "
                f"got {self.cursor_page_limit}"
            )


class MetasearchGateway(FrontEnd):
    """Deadline-aware, coalescing, load-shedding TCP gateway.

    Parameters
    ----------
    service:
        The backend (shared; the gateway reports into its metrics
        registry and never mutates its configuration).
    config:
        Front-end tunables.
    """

    _config: GatewayConfig
    _role = "gateway"
    _requests_counter = "gateway_requests"
    # Library-level rejections (e.g. a query that analyzes to no terms)
    # are the client's fault, not the gateway's.
    _library_error = ErrorCode.BAD_REQUEST

    def __init__(
        self,
        service: MetasearchService,
        config: GatewayConfig | None = None,
    ) -> None:
        super().__init__(config or GatewayConfig(), service.metrics)
        self._service = service
        # Pre-registered instruments: stable snapshot key-sets across
        # idle, loaded and degraded gateways.
        for name in (
            "gateway_requests",
            "gateway_shed",
            "gateway_coalesced",
            "gateway_coalesce_redispatch",
            "gateway_deadline_hits",
            "gateway_degraded_served",
            "gateway_cursor_handles",
            "gateway_fetches",
        ):
            self._metrics.counter(name)
        self._metrics.histogram("gateway_request_ms", deterministic=False)
        self._metrics.gauge("gateway_inflight")
        self._metrics.gauge("gateway_queue_depth")
        # Server-held result sets for handle-based cursors: run_id ->
        # per-database row list, TTL + LRU bounded so an abandoned
        # handle can never grow memory unboundedly.
        self._results = SelectionCache(
            ttl_s=self._config.cursor_ttl_s,
            max_entries=self._config.cursor_entries,
        )
        self._pool: ThreadPoolExecutor | None = None
        self._semaphore: asyncio.Semaphore | None = None
        self._admitted = 0
        self._inflight = 0
        self._calls_inflight: dict[tuple, asyncio.Future] = {}

    # -- lifecycle ------------------------------------------------------------

    async def _prepare(self) -> None:
        """Open the bridging thread pool; warm the selection pool.

        A service with a selection pool gets its workers spawned before
        the socket binds, so the first request does not pay for the
        spawn. A pool that cannot spawn does not stop the gateway: the
        service already falls back to in-process selection.
        """
        self._semaphore = asyncio.Semaphore(self._config.max_inflight)
        self._pool = ThreadPoolExecutor(
            max_workers=self._config.max_inflight,
            thread_name_prefix="gateway-serve",
        )
        selection_pool = self._service.pool
        if selection_pool is not None:
            with contextlib.suppress(PoolUnavailableError):
                await asyncio.get_running_loop().run_in_executor(
                    self._pool, selection_pool.ping
                )

    @property
    def inflight(self) -> int:
        """Requests currently executing against the backend."""
        return self._inflight

    @property
    def queued(self) -> int:
        """Admitted requests waiting for a backend slot."""
        return self._admitted - self._inflight

    @property
    def open_tasks(self) -> int:
        """Request tasks not yet finished (0 after a clean drain)."""
        return len(self._tasks)

    async def stop(self) -> None:
        """Graceful drain, then release the executor.

        Idempotent. The drain is :meth:`FrontEnd.stop`; the executor
        shutdown then waits for backend threads still serving, including
        one whose request task the drain timeout cancelled.
        """
        await super().stop()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- ops -------------------------------------------------------------------

    async def _dispatch(self, request: GatewayRequest) -> object:
        if request.op == "ping":
            return {"pong": True, "draining": self._draining}
        if request.op == "metrics":
            return self._service.snapshot()
        if request.op == "trace":
            return {
                "enabled": self._service.tracer is not None,
                "spans": self._service.trace_spans(request.limit),
            }
        if request.op == "stats":
            return self._stats()
        if request.op == "fetch":
            return self._fetch(request)
        if request.trace is None:
            return await self._traced_search(request)
        # A routed request (see repro.cluster): adopt the router's trace
        # position, collect every span this request opens — gateway,
        # service, pool, probes — and ship them back in the response,
        # where the router replays them into its own tree. The same
        # protocol the selection pool uses across its process boundary.
        with collecting_trace(request.trace) as records:
            result = await self._traced_search(request)
        result["served"]["spans"] = records
        return result

    # -- search path -----------------------------------------------------------

    async def _traced_search(self, request: GatewayRequest) -> dict:
        """Run one search under a ``gateway.request`` span.

        The span covers exactly the interval ``gateway_request_ms``
        measures — parse already done, response write not included — so
        per-tier child spans sum to it. It is the trace's root, except
        for a routed request: that arrives with the router's trace
        adopted (collecting_trace in _dispatch), so the span opens as a
        *child* of the router's and one tree covers router -> replica
        gateway -> pool.
        """
        with span(
            "gateway.request",
            fingerprint=self._service.state_fingerprint,
            tracer=self._service.tracer,
        ) as root:
            try:
                result = await self._search(request)
            except GatewayError as error:
                root.set_outcome(error.code.value)
                raise
            if result["answer"]["degraded"] is not None:
                root.set_outcome("degraded")
            return result

    async def _search(self, request: GatewayRequest) -> dict:
        started = time.perf_counter()
        # The deadline starts at arrival — before coalescing — so a
        # follower's budget is its own: what remains when the leader's
        # answer arrives decides whether a degraded answer is
        # acceptable or the follower re-dispatches.
        deadline = self._deadline(request)
        if self._config.coalesce:
            leader_future = self._calls_inflight.get(request.coalesce_key)
            if leader_future is not None:
                # Follower: ride the leader's backend call. shield() so a
                # cancelled follower cannot cancel the shared future out
                # from under the leader and its other followers. The
                # leader's handle is shared too: the result set is a
                # pure function of the request, and paging is stateless
                # (the cursor encodes the offset), so any number of
                # followers can page one run_id independently.
                self._metrics.counter("gateway_coalesced").inc()
                answer, handle = await asyncio.shield(leader_future)
                if answer.degraded == "deadline" and (
                    deadline is None or not deadline.expired
                ):
                    # The *leader* ran out of budget; this follower has
                    # budget left and is entitled to a full-quality
                    # answer. Re-dispatch once under its own deadline
                    # (no second retry: by then the budget picture is
                    # this request's own).
                    self._metrics.counter(
                        "gateway_coalesce_redispatch"
                    ).inc()
                    answer = await self._admit_and_serve(request, deadline)
                    handle = self._make_handle(request, answer)
                    return self._result(
                        answer,
                        started,
                        coalesced=True,
                        redispatched=True,
                        handle=handle,
                    )
                return self._result(
                    answer, started, coalesced=True, handle=handle
                )
            future: asyncio.Future = (
                asyncio.get_running_loop().create_future()
            )
            self._calls_inflight[request.coalesce_key] = future
            try:
                answer = await self._admit_and_serve(request, deadline)
                handle = self._make_handle(request, answer)
            except BaseException as error:
                # Followers receive the same outcome (a shed leader sheds
                # its followers too — they arrived in the same overload).
                if isinstance(error, asyncio.CancelledError):
                    future.cancel()
                elif not future.done():
                    future.set_exception(error)
                    future.exception()  # consumed here; don't warn on GC
                raise
            else:
                future.set_result((answer, handle))
            finally:
                del self._calls_inflight[request.coalesce_key]
            return self._result(
                answer, started, coalesced=False, handle=handle
            )
        answer = await self._admit_and_serve(request, deadline)
        handle = self._make_handle(request, answer)
        return self._result(
            answer, started, coalesced=False, handle=handle
        )

    def _result(
        self,
        answer: ServedAnswer,
        started: float,
        coalesced: bool,
        redispatched: bool = False,
        handle: dict | None = None,
    ) -> dict:
        wall_ms = (time.perf_counter() - started) * 1000.0
        self._metrics.histogram(
            "gateway_request_ms", deterministic=False
        ).observe(wall_ms)
        if answer.degraded is not None:
            # The per-response view; the per-backend-call view
            # (gateway_deadline_hits) is counted in _admit_and_serve,
            # once, however many coalesced followers share the answer.
            self._metrics.counter("gateway_degraded_served").inc()
        served: dict[str, object] = {
            "cache_hit": answer.cache_hit,
            "coalesced": coalesced,
            "redispatched": redispatched,
            "wall_ms": wall_ms,
        }
        trace_id = current_trace_id()
        if trace_id is not None:
            served["trace_id"] = trace_id
        result: dict[str, object] = {
            "answer": answer_payload(answer),
            "served": served,
        }
        if handle is not None:
            result["handle"] = handle
        return result

    # -- result cursors --------------------------------------------------------

    def _make_handle(
        self, request: GatewayRequest, answer: ServedAnswer
    ) -> dict | None:
        """Park the per-database detail server-side, return its handle.

        Only on ``cursor: true`` searches. The rows (one per database:
        name, RD estimate, selected/probed flags) can dwarf the answer
        payload at federated scale — the handle keeps the search
        response bounded and lets the client page at its own rate.
        """
        if not request.cursor_requested:
            return None
        rows = self._service.result_detail(answer)
        run_id = binascii.hexlify(os.urandom(8)).decode("ascii")
        self._results.put(run_id, rows)
        self._metrics.counter("gateway_cursor_handles").inc()
        return {"run_id": run_id, "cursor": "c0", "total": len(rows)}

    def _fetch(self, request: GatewayRequest) -> dict:
        """One page of a server-held result set."""
        self._metrics.counter("gateway_fetches").inc()
        rows = self._results.get(request.run_id)
        if rows is None:
            raise GatewayError(
                ErrorCode.NOT_FOUND,
                f"run_id {request.run_id!r} unknown (expired, evicted, "
                f"or never issued)",
            )
        cursor = request.cursor or "c0"
        if not cursor.startswith("c"):
            raise GatewayError(
                ErrorCode.BAD_REQUEST, f"malformed cursor {cursor!r}"
            )
        try:
            offset = int(cursor[1:], 16)
        except ValueError:
            raise GatewayError(
                ErrorCode.BAD_REQUEST, f"malformed cursor {cursor!r}"
            ) from None
        if offset < 0 or offset > len(rows):
            raise GatewayError(
                ErrorCode.BAD_REQUEST,
                f"cursor {cursor!r} out of range for {len(rows)} rows",
            )
        limit = min(request.limit, self._config.cursor_page_limit)
        page = rows[offset : offset + limit]
        next_offset = offset + len(page)
        done = next_offset >= len(rows)
        return {
            "run_id": request.run_id,
            "rows": page,
            "cursor": None if done else f"c{next_offset:x}",
            "done": done,
            "total": len(rows),
        }

    # -- stats -----------------------------------------------------------------

    def _stats(self) -> dict:
        """The one-request telemetry export: service + gateway + trace.

        Everything the ``metrics`` and ``trace`` ops return separately,
        plus gateway-local state the snapshot cannot see, in a single
        round trip — what a poller scrapes.
        """
        tracer = self._service.tracer
        spans = self._service.trace_spans(None) if tracer else []
        span_names: dict[str, int] = {}
        for record in spans:
            name = str(record.get("name"))
            span_names[name] = span_names.get(name, 0) + 1
        return {
            "service": self._service.snapshot(),
            "gateway": {
                "draining": self._draining,
                "inflight": self._inflight,
                "queued": self._admitted - self._inflight,
                "open_tasks": len(self._tasks),
                "listening": self._server is not None,
                "results_held": len(self._results),
            },
            "trace": {
                "enabled": tracer is not None,
                "buffered": len(spans),
                "span_names": span_names,
            },
        }

    def _deadline(self, request: GatewayRequest) -> Deadline | None:
        deadline_ms = request.deadline_ms
        if deadline_ms is None:
            deadline_ms = self._config.default_deadline_ms
        if deadline_ms is None:
            return None
        # Started at arrival, so time spent coalescing or waiting in
        # the queue consumes the budget too.
        return Deadline.after_ms(deadline_ms)

    async def _admit_and_serve(
        self, request: GatewayRequest, deadline: Deadline | None
    ) -> ServedAnswer:
        with span("gateway.admit") as admit_span:
            if self._draining:
                admit_span.set_outcome("refused")
                raise GatewayError(
                    ErrorCode.SHUTTING_DOWN, "gateway is draining"
                )
            assert self._semaphore is not None and self._pool is not None
            queued = self._admitted - self._inflight
            if (
                queued >= self._config.max_queue
                and self._semaphore.locked()
            ):
                admit_span.set_outcome("shed")
                self._metrics.counter("gateway_shed").inc()
                fullness = queued / max(1, self._config.max_queue)
                retry_after = self._config.shed_retry_after_ms * (
                    1.0 + fullness
                )
                raise GatewayError(
                    ErrorCode.OVERLOADED,
                    f"admission queue full ({queued} waiting, "
                    f"{self._inflight} in flight)",
                    retry_after_ms=round(retry_after, 3),
                )
        self._admitted += 1
        self._observe_depths()
        try:
            with span("gateway.queue"):
                await self._semaphore.acquire()
            try:
                self._inflight += 1
                self._observe_depths()
                try:
                    loop = asyncio.get_running_loop()
                    # copy_context() carries the request's active trace
                    # into the backend thread, where service.serve opens
                    # its child spans.
                    context = contextvars.copy_context()
                    answer = await loop.run_in_executor(
                        self._pool,
                        context.run,
                        functools.partial(
                            self._service.serve,
                            request.query,
                            k=request.k,
                            certainty=request.certainty,
                            deadline=deadline,
                        ),
                    )
                finally:
                    self._inflight -= 1
            finally:
                self._semaphore.release()
        finally:
            self._admitted -= 1
            self._observe_depths()
        if answer.degraded == "deadline":
            # Counted here — once per backend call — not per response:
            # N coalesced followers sharing one degraded answer are one
            # deadline hit, not N+1 (they are counted per-response in
            # gateway_degraded_served instead).
            self._metrics.counter("gateway_deadline_hits").inc()
        return answer

    def _observe_depths(self) -> None:
        self._metrics.gauge("gateway_inflight").set(self._inflight)
        self._metrics.gauge("gateway_queue_depth").set(
            self._admitted - self._inflight
        )

    def __repr__(self) -> str:
        return (
            f"MetasearchGateway({self._state()}, inflight={self._inflight}, "
            f"queued={self.queued})"
        )
