"""The consistent-hash router: `gateway/v1` in, `gateway/v1` out.

The router is the cluster's front door. It speaks the exact protocol a
single gateway speaks — a client cannot tell a cluster-of-N from one
node, which is what lets the gateway test suite re-run unchanged over
a cluster-of-1 — and shards every search by its ``(query, k,
certainty)`` fingerprint across the replica ring, so repeats of a
request always land on the same replica and its coalescing and L1
cache do their work.

Listener, connection loop, drain and error envelope are the gateway's
own (:class:`~repro.gateway.frontend.FrontEnd`). Replica health mirrors
:class:`~repro.service.pool.SelectionPool`: health pings on a cadence,
crash detection at the connection, and failed replicas removed from the
ring with in-flight requests re-dispatched to their re-hashed owner
**exactly once** — a search is deterministic and side-effect-free, so
re-executing it is always safe, and each client request still gets
exactly one response. Typed gateway errors
(``overloaded``, ``bad_request``...) are the replica's verdict and
pass through untouched; only connection-class failures count against a
replica.

Cursor affinity rides the handle itself: the router prefixes
``run_id`` with the owning replica's name (``r0/3f9a...``), routes
``fetch`` by that prefix, and re-prefixes in the response — no routing
table to keep consistent, and a handle dies with its replica exactly
as its server-held rows do.

With tracing enabled the router mints the ``router.request`` root,
ships its wire position to the replica (the request's ``trace``
field), and replays the replica's returned spans — gateway, service,
pool, probes — into its own sink: one span tree across three process
boundaries, the ``trace`` op on the router returning all of it.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass

from repro.exceptions import ConfigurationError, ReproError
from repro.gateway.client import GatewayClient
from repro.gateway.frontend import FrontEnd, check_transport_config
from repro.gateway.protocol import ErrorCode, GatewayError, GatewayRequest
from repro.obs import (
    RingBufferTraceSink,
    Tracer,
    replay_spans,
    span,
    wire_context,
)
from repro.service.metrics import MetricsRegistry
from repro.cluster.ring import ConsistentHashRing, request_fingerprint

__all__ = ["RouterConfig", "ClusterRouter"]


@dataclass(frozen=True)
class RouterConfig:
    """Tunables of the cluster front end.

    Parameters
    ----------
    host / port:
        Listen address; port ``0`` binds an ephemeral port.
    points_per_node:
        Virtual ring points per replica (more = smoother key spread,
        slower membership changes).
    ping_interval_s:
        Health-ping cadence; ``0`` disables the pinger (tests that
        drive failure detection through request traffic).
    ping_timeout_s:
        Budget for one health ping round trip.
    unhealthy_after:
        Consecutive failed pings before a replica is marked down and
        removed from the ring.
    forward_timeout_s:
        Bound on one forwarded request (``None`` = unbounded; client
        deadlines remain the per-request mechanism).
    drain_timeout_s:
        :meth:`stop` waits this long for in-flight requests.
    trace:
        Mint ``router.request`` roots and collect replica span trees
        into a ring buffer served by the router's ``trace`` op.
    trace_buffer:
        Ring-buffer capacity in span records.
    max_line_bytes:
        Framing guard on one request line (>= 1024, as on the gateway).
    """

    host: str = "127.0.0.1"
    port: int = 0
    points_per_node: int = 64
    ping_interval_s: float = 1.0
    ping_timeout_s: float = 2.0
    unhealthy_after: int = 2
    forward_timeout_s: float | None = None
    drain_timeout_s: float = 10.0
    trace: bool = False
    trace_buffer: int = 4096
    max_line_bytes: int = 64 * 1024

    def __post_init__(self) -> None:
        if self.points_per_node < 1:
            raise ConfigurationError(
                f"points_per_node must be >= 1, got {self.points_per_node}"
            )
        if self.ping_interval_s < 0:
            raise ConfigurationError(
                f"ping_interval_s must be >= 0, got {self.ping_interval_s}"
            )
        if self.ping_timeout_s <= 0:
            raise ConfigurationError(
                f"ping_timeout_s must be > 0, got {self.ping_timeout_s}"
            )
        if self.unhealthy_after < 1:
            raise ConfigurationError(
                f"unhealthy_after must be >= 1, got {self.unhealthy_after}"
            )
        if (
            self.forward_timeout_s is not None
            and self.forward_timeout_s <= 0
        ):
            raise ConfigurationError(
                f"forward_timeout_s must be > 0 (or None), "
                f"got {self.forward_timeout_s}"
            )
        check_transport_config(self)
        if self.trace_buffer < 1:
            raise ConfigurationError(
                f"trace_buffer must be >= 1, got {self.trace_buffer}"
            )


class _ReplicaLink:
    """One replica's address, connection, and health bookkeeping."""

    __slots__ = ("name", "host", "port", "client", "down", "failures", "lock")

    def __init__(self, name: str, host: str, port: int) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.client: GatewayClient | None = None
        self.down = False
        self.failures = 0
        self.lock = asyncio.Lock()


class ClusterRouter(FrontEnd):
    """Shard `gateway/v1` requests across replicas; survive their deaths.

    Parameters
    ----------
    replicas:
        Objects exposing ``name`` / ``host`` / ``port`` (either replica
        flavour from :mod:`repro.cluster.replica`, or anything
        duck-typed the same). Names must not contain ``/`` — it is the
        cursor-handle prefix separator.
    config:
        Front-end tunables.
    """

    _config: RouterConfig
    _role = "router"
    _requests_counter = "router_requests"
    _library_error = ErrorCode.INTERNAL  # e.g. a malformed replica result

    def __init__(self, replicas, config: RouterConfig | None = None) -> None:
        super().__init__(config or RouterConfig(), MetricsRegistry())
        self._links: dict[str, _ReplicaLink] = {}
        for replica in replicas:
            if "/" in replica.name:
                raise ConfigurationError(
                    f"replica name must not contain '/', "
                    f"got {replica.name!r}"
                )
            if replica.name in self._links:
                raise ConfigurationError(
                    f"duplicate replica name {replica.name!r}"
                )
            self._links[replica.name] = _ReplicaLink(
                replica.name, replica.host, replica.port
            )
        if not self._links:
            raise ConfigurationError("a router needs at least one replica")
        self._ring = ConsistentHashRing(
            self._links, points_per_node=self._config.points_per_node
        )
        for name in (
            "router_requests",
            "router_searches",
            "router_fetches",
            "router_failovers",
            "router_replicas_lost",
            "router_refused",
        ):
            self._metrics.counter(name)
        self._metrics.gauge("router_replicas_up").set(len(self._links))
        self._metrics.histogram("router_request_ms", deterministic=False)
        self._trace_ring: RingBufferTraceSink | None = None
        self._tracer: Tracer | None = None
        if self._config.trace:
            self._trace_ring = RingBufferTraceSink(self._config.trace_buffer)
            self._tracer = Tracer(self._trace_ring)
        self._pinger: asyncio.Task | None = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        if self._config.ping_interval_s > 0:
            self._pinger = asyncio.create_task(self._ping_loop())

    @property
    def replicas_up(self) -> tuple[str, ...]:
        """Names currently in the ring."""
        return self._ring.nodes

    async def stop(self) -> None:
        """Drain: stop pinging, then :meth:`FrontEnd.stop`, then close
        the replica links the in-flight requests were using."""
        self._draining = True  # refuse while the pinger winds down too
        if self._pinger is not None:
            self._pinger.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._pinger
            self._pinger = None
        await super().stop()
        for link in self._links.values():
            if link.client is not None:
                with contextlib.suppress(Exception):
                    await link.client.close()
                link.client = None

    def drain_replica(self, name: str) -> None:
        """Take one replica out of rotation without marking it dead.

        New requests re-hash to the survivors immediately; requests
        already forwarded complete over the open connection. The caller
        then stops the replica process at leisure — the per-replica
        half of a rolling restart.
        """
        if name not in self._links:
            raise ReproError(f"unknown replica {name!r}")
        self._ring.remove(name)
        self._observe_ring()

    def restore_replica(self, name: str) -> None:
        """Return a drained (or recovered) replica to the ring."""
        link = self._links.get(name)
        if link is None:
            raise ReproError(f"unknown replica {name!r}")
        link.down = False
        link.failures = 0
        self._ring.add(name)
        self._observe_ring()

    # -- health ----------------------------------------------------------------

    async def _ping_loop(self) -> None:
        while True:
            await asyncio.sleep(self._config.ping_interval_s)
            for name in self._ring.nodes:
                link = self._links[name]
                try:
                    client = await self._client(link)
                    await asyncio.wait_for(
                        client.ping(), self._config.ping_timeout_s
                    )
                except asyncio.CancelledError:
                    raise
                except Exception:  # noqa: BLE001 - any failure counts
                    link.failures += 1
                    if link.failures >= self._config.unhealthy_after:
                        await self._mark_down(link)
                else:
                    link.failures = 0

    async def _mark_down(self, link: _ReplicaLink) -> None:
        """Remove a dead replica from the ring; its keys re-hash."""
        if link.down:
            return
        link.down = True
        self._ring.remove(link.name)
        self._metrics.counter("router_replicas_lost").inc()
        self._observe_ring()
        client, link.client = link.client, None
        if client is not None:
            with contextlib.suppress(Exception):
                await client.close()

    def _observe_ring(self) -> None:
        self._metrics.gauge("router_replicas_up").set(len(self._ring))

    async def _client(self, link: _ReplicaLink) -> GatewayClient:
        if link.down:
            raise ReproError(f"replica {link.name!r} is down")
        async with link.lock:
            if link.client is None:
                link.client = await GatewayClient.connect(
                    link.host, link.port
                )
            return link.client

    # -- ops -------------------------------------------------------------------

    async def _dispatch(self, request: GatewayRequest) -> object:
        if request.op == "ping":
            return {
                "pong": True,
                "draining": self._draining,
                "replicas": len(self._ring),
            }
        if request.op in ("metrics", "stats"):
            return await self._aggregate(request.op)
        if request.op == "trace":
            spans = (
                []
                if self._trace_ring is None
                else self._trace_ring.recent(request.limit)
            )
            return {"enabled": self._tracer is not None, "spans": spans}
        if request.op == "fetch":
            return await self._route_fetch(request)
        return await self._route_search(request)

    # -- aggregation ops -------------------------------------------------------

    def snapshot(self) -> dict:
        """The router's own instruments (one JSON-able mapping)."""
        out = self._metrics.snapshot()
        out["replicas_up"] = list(self._ring.nodes)
        out["replicas_known"] = sorted(self._links)
        return out

    async def _aggregate(self, op: str) -> dict:
        """Fan one read-only op out to every live replica."""
        names = list(self._ring.nodes)

        async def one(name: str):
            link = self._links[name]
            try:
                client = await self._client(link)
                return await asyncio.wait_for(
                    client.call({"op": op}), self._config.ping_timeout_s
                )
            except Exception:  # noqa: BLE001 - a dead replica's stats are gone
                return None

        results = await asyncio.gather(*(one(name) for name in names))
        return {
            "router": self.snapshot(),
            "replicas": {
                name: result
                for name, result in zip(names, results)
                if result is not None
            },
        }

    # -- search / fetch routing ------------------------------------------------

    def _refuse_if_draining(self) -> None:
        if self._draining:
            self._metrics.counter("router_refused").inc()
            raise GatewayError(
                ErrorCode.SHUTTING_DOWN, "router is draining"
            )

    async def _route_search(self, request: GatewayRequest) -> dict:
        self._refuse_if_draining()
        self._metrics.counter("router_searches").inc()
        started = time.perf_counter()
        with span("router.request", tracer=self._tracer):
            result = await self._forward_search(request)
        self._metrics.histogram(
            "router_request_ms", deterministic=False
        ).observe((time.perf_counter() - started) * 1000.0)
        return result

    async def _forward_search(self, request: GatewayRequest) -> dict:
        key = request_fingerprint(
            request.query, request.k, request.certainty
        )
        forward: dict = {
            "op": "search",
            "query": request.query,
            "k": request.k,
            "certainty": request.certainty,
        }
        if request.deadline_ms is not None:
            forward["deadline_ms"] = request.deadline_ms
        if request.cursor_requested:
            forward["cursor"] = True
        wire = wire_context()
        if wire is not None:
            forward["trace"] = wire
        failover = False
        for attempt in range(2):
            name = self._ring.node(key)
            link = self._links[name]
            try:
                client = await self._client(link)
                call = client.call(dict(forward))
                if self._config.forward_timeout_s is not None:
                    call = asyncio.wait_for(
                        call, self._config.forward_timeout_s
                    )
                result = await call
            except GatewayError:
                # The replica is alive and answered with a typed error
                # (overloaded, bad request...): its verdict, passed
                # through untouched. Never a failover trigger.
                raise
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - connection-class failure
                # The replica died under this request (or the pipe to
                # it did). Remove it from the ring and re-dispatch
                # exactly once to the re-hashed owner: the dead replica
                # never responded, so the client still receives exactly
                # one answer — and a search is deterministic and
                # side-effect-free, so re-executing it is safe even if
                # the replica processed it before dying.
                await self._mark_down(link)
                if attempt == 1:
                    raise
                self._metrics.counter("router_failovers").inc()
                failover = True
                continue
            return self._postprocess(result, name, failover)
        raise ReproError("unreachable")  # pragma: no cover

    def _postprocess(self, result: object, name: str, failover: bool) -> dict:
        if not isinstance(result, dict):
            raise ReproError(f"malformed replica result: {result!r}")
        served = result.get("served")
        if isinstance(served, dict):
            # The replica's collected span tree: replay into the
            # router's sink (it nests under router.request), then strip
            # — the client sees the same response shape a single
            # gateway produces.
            spans = served.pop("spans", None)
            if spans:
                replay_spans(spans)
            served["replica"] = name
            served["failover"] = failover
        handle = result.get("handle")
        if isinstance(handle, dict) and "run_id" in handle:
            # Cursor affinity: the prefix is the routing table.
            handle["run_id"] = f"{name}/{handle['run_id']}"
        return result

    async def _route_fetch(self, request: GatewayRequest) -> dict:
        self._refuse_if_draining()
        self._metrics.counter("router_fetches").inc()
        name, sep, run_id = request.run_id.partition("/")
        if not sep or not run_id:
            raise GatewayError(
                ErrorCode.NOT_FOUND,
                f"run_id {request.run_id!r} carries no replica prefix",
            )
        link = self._links.get(name)
        if link is None or name not in self._ring:
            raise GatewayError(
                ErrorCode.NOT_FOUND,
                f"replica {name!r} is gone; its result sets died with it",
            )
        forward = {
            "op": "fetch",
            "run_id": run_id,
            "limit": request.limit,
        }
        if request.cursor is not None:
            forward["cursor"] = request.cursor
        try:
            client = await self._client(link)
            result = await client.call(forward)
        except GatewayError:
            raise
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 - connection-class failure
            # No re-dispatch for fetch: the rows lived only on that
            # replica. Honest not_found beats a silently different
            # result set.
            await self._mark_down(link)
            raise GatewayError(
                ErrorCode.NOT_FOUND,
                f"replica {name!r} died; its result sets died with it",
            ) from None
        if isinstance(result, dict) and "run_id" in result:
            result["run_id"] = f"{name}/{result['run_id']}"
        if not isinstance(result, dict):
            raise ReproError(f"malformed replica result: {result!r}")
        return result

    def __repr__(self) -> str:
        return (
            f"ClusterRouter({self._state()}, replicas={len(self._ring)}/"
            f"{len(self._links)})"
        )
