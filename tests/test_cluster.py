"""Cluster tier tests: ring, cache tier, router, cursors, stats, retry.

Everything here runs in-process (``InProcessReplica`` over the
session-scoped trained metasearcher) so the suite stays fast; the
subprocess/SIGKILL paths live in ``test_cluster_failover.py``. The
cluster-of-1 transparency tests parametrize representative gateway
behaviours over both a bare gateway and a router-fronted cluster — a
client must not be able to tell them apart.
"""

import asyncio
import socket

import pytest

from repro.exceptions import ConfigurationError, ReproError
from repro.cluster import (
    CacheTierClient,
    CacheTierServer,
    ClusterRouter,
    ConsistentHashRing,
    InProcessReplica,
    RouterConfig,
    answer_key,
    decode_answer,
    encode_answer,
    parse_address,
    request_fingerprint,
)
from repro.gateway.client import (
    GatewayClient,
    SyncGatewayClient,
    retry_backoff_s,
)
from repro.gateway.gateway import GatewayConfig, MetasearchGateway
from repro.gateway.protocol import ErrorCode, GatewayError
from repro.service.server import MetasearchService, ServiceConfig
from repro.types import Query


def run(coroutine):
    return asyncio.run(coroutine)


def make_service(trained_metasearcher, **kwargs):
    config = kwargs.pop("config", None) or ServiceConfig(
        max_workers=4, batch_size=2
    )
    return MetasearchService(trained_metasearcher, config=config, **kwargs)


# -- consistent hashing --------------------------------------------------------


class TestConsistentHashRing:
    def test_deterministic_and_stable(self):
        a = ConsistentHashRing(["r0", "r1", "r2"])
        b = ConsistentHashRing(["r2", "r0", "r1"])
        keys = [f"query {i}" for i in range(200)]
        assert [a.node(k) for k in keys] == [b.node(k) for k in keys]

    def test_spreads_keys(self):
        ring = ConsistentHashRing(["r0", "r1", "r2", "r3"])
        keys = [f"query {i}" for i in range(400)]
        owners = {name: 0 for name in ring.nodes}
        for key in keys:
            owners[ring.node(key)] += 1
        assert all(count > 0 for count in owners.values())

    def test_removal_only_remaps_lost_nodes_keys(self):
        ring = ConsistentHashRing(["r0", "r1", "r2"])
        keys = [f"query {i}" for i in range(300)]
        before = {k: ring.node(k) for k in keys}
        ring.remove("r1")
        for key in keys:
            if before[key] != "r1":
                assert ring.node(key) == before[key]
            else:
                assert ring.node(key) in ("r0", "r2")

    def test_membership_and_idempotence(self):
        ring = ConsistentHashRing(["r0"])
        assert "r0" in ring and len(ring) == 1
        ring.add("r0")
        assert len(ring) == 1
        ring.add("r1")
        assert sorted(ring.nodes) == ["r0", "r1"]
        ring.remove("r1")
        ring.remove("r1")
        assert "r1" not in ring

    def test_empty_ring_refuses(self):
        ring = ConsistentHashRing([])
        with pytest.raises(ReproError):
            ring.node("anything")

    def test_fingerprint_separates_parameters(self):
        assert request_fingerprint("q", 3, 0.9) != request_fingerprint(
            "q", 2, 0.9
        )
        assert request_fingerprint("q", 3, 0.9) != request_fingerprint(
            "q", 3, 0.8
        )
        # repr round-trips floats: equal inputs, equal fingerprints
        assert request_fingerprint("q", 3, 0.9) == request_fingerprint(
            "q", 3, 0.9
        )


# -- cache tier protocol -------------------------------------------------------


class TestParseAddress:
    def test_round_trip(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)

    @pytest.mark.parametrize(
        "bad", ["nope", ":9000", "host:", "host:abc", "host:0", "host:70000"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            parse_address(bad)


class TestAnswerCodec:
    def test_key_is_deterministic_and_discriminating(self):
        q = Query(terms=("breast", "cancer"))
        key = answer_key("fp", q, 3, 0.9, "Cor")
        assert key == answer_key("fp", Query(terms=("breast", "cancer")), 3, 0.9, "Cor")
        assert key != answer_key("fp2", q, 3, 0.9, "Cor")
        assert key != answer_key("fp", q, 2, 0.9, "Cor")
        assert key != answer_key("fp", q, 3, 0.8, "Cor")

    def test_encode_decode_round_trip(self, trained_metasearcher):
        service = make_service(trained_metasearcher)
        try:
            answer = service.serve("breast cancer", k=2, certainty=0.9)
            value = encode_answer(answer)
            rebuilt = decode_answer(
                value, answer.query, answer.k, answer.certainty_required
            )
            assert rebuilt is not None
            assert rebuilt.selected == answer.selected
            assert rebuilt.certainty == answer.certainty
            assert rebuilt.probes == answer.probes
            assert rebuilt.probe_order == answer.probe_order
            assert rebuilt.cache_hit is True
            assert rebuilt.degraded is None
        finally:
            service.shutdown()

    @pytest.mark.parametrize(
        "value",
        [None, "text", 7, {}, {"selected": ["a"]},
         {"selected": ["a"], "certainty": "x", "probes": 1,
          "probe_order": []}],
    )
    def test_decode_malformed_is_a_miss(self, value):
        assert decode_answer(value, Query(terms=("q",)), 1, 0.5) is None


class TestCacheTier:
    def test_get_put_stats_round_trip(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            async with CacheTierServer() as tier:
                client = CacheTierClient(tier.address)

                def call(fn, *args):
                    return loop.run_in_executor(None, fn, *args)

                assert await call(client.ping) is True
                assert await call(client.get, "k") is None
                assert await call(client.put, "k", {"x": 1}) is True
                assert await call(client.get, "k") == {"x": 1}
                stats = await call(client.stats)
                client.close()
                return stats, tier.stats()

        stats, server_stats = run(scenario())
        assert stats["gets"] == 2
        assert stats["puts"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert server_stats["size"] == 1

    def test_stats_key_set_is_stable(self):
        async def scenario():
            async with CacheTierServer() as tier:
                return tier.stats()

        assert set(run(scenario())) == {
            "gets", "puts", "hits", "misses",
            "evictions", "expirations", "size",
        }

    def test_client_absorbs_a_dead_tier(self):
        # Reserve a port, then close it: connection refused for sure.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = CacheTierClient(f"127.0.0.1:{port}", timeout_s=0.2)
        assert client.get("k") is None
        assert client.put("k", {"x": 1}) is False
        assert client.ping() is False
        assert client.stats() is None
        assert client.errors == 4
        client.close()

    def test_server_rejects_malformed_requests(self):
        async def scenario():
            async with CacheTierServer() as tier:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", tier.port
                )
                out = []
                for line in (
                    b"not json\n",
                    b'{"v": "cache/v1", "id": 1, "op": "nope"}\n',
                    b'{"v": "wrong", "id": 2, "op": "ping"}\n',
                    b'{"v": "cache/v1", "id": 3, "op": "get", "key": ""}\n',
                    b'{"v": "cache/v1", "id": 4, "op": "put", '
                    b'"key": "k", "value": 3}\n',
                ):
                    writer.write(line)
                    await writer.drain()
                    import json

                    out.append(json.loads(await reader.readline()))
                writer.close()
                await writer.wait_closed()
                return out

        responses = run(scenario())
        assert all(response["ok"] is False for response in responses)


class TestServiceCacheTierIntegration:
    def test_second_service_hits_the_shared_tier(self, trained_metasearcher):
        """Two services, one tier: r1 serves r0's computed answer."""

        async def scenario():
            async with CacheTierServer() as tier:
                config = ServiceConfig(
                    max_workers=4, batch_size=2, cache_tier=tier.address
                )
                r0 = InProcessReplica(
                    "r0", trained_metasearcher, service_config=config
                )
                r1 = InProcessReplica(
                    "r1", trained_metasearcher, service_config=config
                )
                await r0.start()
                await r1.start()
                try:
                    c0 = await GatewayClient.connect(r0.host, r0.port)
                    first = await c0.search(
                        "breast cancer", k=2, certainty=0.9
                    )
                    await c0.close()
                    c1 = await GatewayClient.connect(r1.host, r1.port)
                    second = await c1.search(
                        "breast cancer", k=2, certainty=0.9
                    )
                    stats = await c1.stats()
                    await c1.close()
                finally:
                    await r0.stop()
                    await r1.stop()
                return first, second, stats

        first, second, stats = run(scenario())
        assert first["served"]["cache_hit"] is False
        assert second["served"]["cache_hit"] is True
        assert first["answer"] == second["answer"]
        counters = stats["service"]["counters"]
        assert counters["cache_tier_hits"] == 1
        assert counters["cache_tier_errors"] == 0

    def test_snapshot_always_carries_cache_tier_section(
        self, trained_metasearcher
    ):
        """Key-set regression: tier counters exist even when disabled."""
        service = make_service(trained_metasearcher)
        try:
            snapshot = service.snapshot()
        finally:
            service.shutdown()
        assert snapshot["cache_tier"] == {
            "enabled": False, "address": None, "errors": 0,
        }
        for name in (
            "cache_tier_hits", "cache_tier_misses",
            "cache_tier_puts", "cache_tier_errors",
        ):
            assert snapshot["counters"][name] == 0
        assert {"hits", "misses", "evictions", "expirations", "size"} <= set(
            snapshot["cache"]
        )
        assert "pruned_databases" in snapshot["histograms"]


# -- router / cluster-of-1 transparency ----------------------------------------


async def start_cluster(trained_metasearcher, count, **router_kwargs):
    replicas = [
        InProcessReplica(
            f"r{i}",
            trained_metasearcher,
            service_config=ServiceConfig(max_workers=4, batch_size=2),
        )
        for i in range(count)
    ]
    for replica in replicas:
        await replica.start()
    router_kwargs.setdefault("ping_interval_s", 0)
    router = ClusterRouter(replicas, RouterConfig(**router_kwargs))
    await router.start()
    return router, replicas


async def stop_cluster(router, replicas):
    await router.stop()
    for replica in replicas:
        await replica.stop()


@pytest.fixture(params=["direct", "cluster1"])
def endpoint(request, trained_metasearcher):
    """One connectable gateway/v1 endpoint: bare gateway or cluster-of-1.

    The transparency contract: every behaviour asserted through this
    fixture must hold identically for both parametrizations.
    """

    class Endpoint:
        kind = request.param

        def __init__(self):
            self._router = None
            self._replicas = []
            self._gateway = None
            self._service = None

        async def __aenter__(self):
            if self.kind == "direct":
                self._service = make_service(trained_metasearcher)
                self._gateway = MetasearchGateway(
                    self._service, GatewayConfig()
                )
                await self._gateway.start()
                self.port = self._gateway.port
            else:
                self._router, self._replicas = await start_cluster(
                    trained_metasearcher, 1
                )
                self.port = self._router.port
            return self

        async def __aexit__(self, *exc_info):
            if self.kind == "direct":
                await self._gateway.stop()
                self._service.shutdown()
            else:
                await stop_cluster(self._router, self._replicas)

    return Endpoint


class TestClusterOfOneTransparency:
    def test_search_answer_identical_to_direct_serve(
        self, endpoint, trained_metasearcher
    ):
        async def scenario():
            async with endpoint() as ep:
                client = await GatewayClient.connect("127.0.0.1", ep.port)
                result = await client.search(
                    "breast cancer treatment", k=2, certainty=0.9
                )
                await client.close()
                return result

        result = run(scenario())
        direct = make_service(trained_metasearcher)
        try:
            answer = direct.serve(
                "breast cancer treatment", k=2, certainty=0.9
            )
        finally:
            direct.shutdown()
        assert tuple(result["answer"]["selected"]) == answer.selected
        assert result["answer"]["certainty"] == pytest.approx(
            answer.certainty, abs=1e-9
        )
        assert tuple(result["answer"]["probe_order"]) == answer.probe_order

    def test_ping_and_bad_request(self, endpoint):
        async def scenario():
            async with endpoint() as ep:
                client = await GatewayClient.connect("127.0.0.1", ep.port)
                pong = await client.ping()
                with pytest.raises(GatewayError) as excinfo:
                    await client.search("", k=2)
                await client.close()
                return pong, excinfo.value.code

        pong, code = run(scenario())
        assert pong["pong"] is True
        assert code is ErrorCode.BAD_REQUEST

    def test_concurrent_duplicates_coalesce(self, endpoint):
        async def scenario():
            async with endpoint() as ep:
                client = await GatewayClient.connect("127.0.0.1", ep.port)
                results = await asyncio.gather(
                    *(
                        client.search("cancer research", k=2, certainty=0.95)
                        for _ in range(6)
                    )
                )
                await client.close()
                return results

        results = run(scenario())
        assert len({r["answer"]["certainty"] for r in results}) == 1
        assert any(r["served"]["coalesced"] for r in results)

    def test_cursor_pages_reassemble(self, endpoint):
        async def scenario():
            async with endpoint() as ep:
                client = await GatewayClient.connect("127.0.0.1", ep.port)
                result = await client.search(
                    "heart disease", k=2, certainty=0.9, cursor=True
                )
                handle = result["handle"]
                rows, cursor, done = [], None, False
                pages = 0
                while not done:
                    page = await client.fetch(
                        handle["run_id"], cursor=cursor, limit=2
                    )
                    rows.extend(page["rows"])
                    cursor, done = page["cursor"], page["done"]
                    pages += 1
                await client.close()
                return handle, rows, pages, result

        handle, rows, pages, result = run(scenario())
        assert handle["total"] == 4  # the four tiny databases
        assert len(rows) == 4 and pages == 2
        names = [r["database"] for r in rows]
        assert len(set(names)) == 4
        estimates = [r["estimate"] for r in rows]
        assert estimates == sorted(estimates, reverse=True)
        selected = {r["database"] for r in rows if r["selected"]}
        assert selected == set(result["answer"]["selected"])

    def test_fetch_unknown_run_id_is_not_found(self, endpoint):
        async def scenario():
            async with endpoint() as ep:
                client = await GatewayClient.connect("127.0.0.1", ep.port)
                run_id = (
                    "deadbeef" if ep.kind == "direct" else "r0/deadbeef"
                )
                with pytest.raises(GatewayError) as excinfo:
                    await client.fetch(run_id)
                await client.close()
                return excinfo.value.code

        assert run(scenario()) is ErrorCode.NOT_FOUND


class TestRouterSemantics:
    def test_sharding_is_sticky_and_spreads(self, trained_metasearcher):
        async def scenario():
            router, replicas = await start_cluster(trained_metasearcher, 3)
            try:
                client = await GatewayClient.connect(
                    "127.0.0.1", router.port
                )
                queries = [f"cancer therapy {i}" for i in range(8)]
                first = {}
                for query in queries:
                    result = await client.search(query, k=2, certainty=0.8)
                    first[query] = result["served"]["replica"]
                # repeats land on the same replica (cache/coalesce home)
                for query in queries:
                    result = await client.search(query, k=2, certainty=0.8)
                    assert result["served"]["replica"] == first[query]
                    assert result["served"]["cache_hit"] is True
                await client.close()
                return set(first.values())
            finally:
                await stop_cluster(router, replicas)

        assert len(run(scenario())) >= 2

    def test_handle_routes_back_through_prefix(self, trained_metasearcher):
        async def scenario():
            router, replicas = await start_cluster(trained_metasearcher, 3)
            try:
                client = await GatewayClient.connect(
                    "127.0.0.1", router.port
                )
                result = await client.search(
                    "breast cancer", k=2, certainty=0.9, cursor=True
                )
                handle = result["handle"]
                owner = result["served"]["replica"]
                assert handle["run_id"].startswith(f"{owner}/")
                page = await client.fetch(handle["run_id"], limit=10)
                assert page["done"] is True
                assert page["run_id"] == handle["run_id"]
                with pytest.raises(GatewayError) as excinfo:
                    await client.fetch("unprefixed")
                await client.close()
                return excinfo.value.code, len(page["rows"])
            finally:
                await stop_cluster(router, replicas)

        code, rows = run(scenario())
        assert code is ErrorCode.NOT_FOUND
        assert rows == 4

    def test_typed_errors_pass_through_untouched(self, trained_metasearcher):
        async def scenario():
            router, replicas = await start_cluster(trained_metasearcher, 2)
            try:
                client = await GatewayClient.connect(
                    "127.0.0.1", router.port
                )
                with pytest.raises(GatewayError) as excinfo:
                    await client.search("x", k=0)
                await client.close()
                return excinfo.value.code
            finally:
                await stop_cluster(router, replicas)

        assert run(scenario()) is ErrorCode.BAD_REQUEST

    def test_drain_and_restore_replica(self, trained_metasearcher):
        async def scenario():
            router, replicas = await start_cluster(trained_metasearcher, 2)
            try:
                assert set(router.replicas_up) == {"r0", "r1"}
                router.drain_replica("r0")
                assert router.replicas_up == ("r1",)
                client = await GatewayClient.connect(
                    "127.0.0.1", router.port
                )
                for i in range(4):
                    result = await client.search(
                        f"query {i}", k=2, certainty=0.8
                    )
                    assert result["served"]["replica"] == "r1"
                router.restore_replica("r0")
                assert set(router.replicas_up) == {"r0", "r1"}
                await client.close()
            finally:
                await stop_cluster(router, replicas)

        run(scenario())

    def test_aggregated_stats_and_metrics(self, trained_metasearcher):
        async def scenario():
            router, replicas = await start_cluster(trained_metasearcher, 2)
            try:
                client = await GatewayClient.connect(
                    "127.0.0.1", router.port
                )
                await client.search("breast cancer", k=2, certainty=0.9)
                stats = await client.stats()
                metrics = await client.call({"op": "metrics"})
                await client.close()
                return stats, metrics
            finally:
                await stop_cluster(router, replicas)

        stats, metrics = run(scenario())
        assert set(stats["replicas"]) == {"r0", "r1"}
        assert stats["router"]["counters"]["router_searches"] == 1
        assert stats["router"]["replicas_up"] == ["r0", "r1"]
        for name, replica_stats in stats["replicas"].items():
            assert "service" in replica_stats
            assert "gateway" in replica_stats
        assert set(metrics["replicas"]) == {"r0", "r1"}

    def test_router_trace_collects_cross_process_tree(
        self, trained_metasearcher
    ):
        async def scenario():
            replicas = [
                InProcessReplica(
                    "r0",
                    trained_metasearcher,
                    service_config=ServiceConfig(
                        max_workers=4, batch_size=2, trace=True
                    ),
                )
            ]
            await replicas[0].start()
            router = ClusterRouter(
                replicas, RouterConfig(ping_interval_s=0, trace=True)
            )
            await router.start()
            try:
                client = await GatewayClient.connect(
                    "127.0.0.1", router.port
                )
                result = await client.search(
                    "breast cancer", k=2, certainty=0.9
                )
                trace = await client.call({"op": "trace"})
                await client.close()
                return result, trace
            finally:
                await stop_cluster(router, replicas)

        result, trace = run(scenario())
        # spans were replayed into the router's sink, then stripped
        assert "spans" not in result["served"]
        assert trace["enabled"] is True
        names = {span["name"] for span in trace["spans"]}
        assert {"router.request", "gateway.request", "service.serve"} <= names
        trace_ids = {span["trace_id"] for span in trace["spans"]}
        assert len(trace_ids) == 1  # one tree across both "processes"

    def test_config_validation(self, trained_metasearcher):
        with pytest.raises(ConfigurationError):
            RouterConfig(points_per_node=0)
        with pytest.raises(ConfigurationError):
            RouterConfig(unhealthy_after=0)
        with pytest.raises(ConfigurationError):
            ClusterRouter([])

        class FakeReplica:
            def __init__(self, name):
                self.name = name
                self.host = "127.0.0.1"
                self.port = 1

        with pytest.raises(ConfigurationError):
            ClusterRouter([FakeReplica("a/b")])
        with pytest.raises(ConfigurationError):
            ClusterRouter([FakeReplica("a"), FakeReplica("a")])


# -- gateway stats op ----------------------------------------------------------


class TestGatewayStatsOp:
    def test_stats_sections_and_sync_wrapper(self, trained_metasearcher):
        async def scenario():
            service = make_service(trained_metasearcher)
            gateway = MetasearchGateway(service, GatewayConfig())
            await gateway.start()
            try:
                client = await GatewayClient.connect(
                    "127.0.0.1", gateway.port
                )
                await client.search("breast cancer", k=2, certainty=0.9)
                stats = await client.stats()
                await client.close()
                return stats
            finally:
                await gateway.stop()
                service.shutdown()

        stats = run(scenario())
        assert set(stats) == {"service", "gateway", "trace"}
        assert stats["service"]["counters"]["queries_served"] >= 1
        gw = stats["gateway"]
        assert set(gw) == {
            "draining", "inflight", "queued", "open_tasks",
            "listening", "results_held",
        }
        assert gw["listening"] is True
        assert gw["draining"] is False
        assert stats["trace"]["enabled"] in (True, False)
        assert isinstance(stats["trace"]["span_names"], dict)

    def test_sync_client_stats_and_fetch(self, trained_metasearcher):
        import threading

        service = make_service(trained_metasearcher)
        gateway = MetasearchGateway(service, GatewayConfig())
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                gateway.start(), loop
            ).result(timeout=10)
            with SyncGatewayClient("127.0.0.1", gateway.port) as client:
                result = client.search(
                    "breast cancer", k=2, certainty=0.9, cursor=True
                )
                handle = result["handle"]
                page = client.fetch(handle["run_id"], limit=10)
                stats = client.stats()
            assert page["done"] is True
            assert len(page["rows"]) == handle["total"]
            assert stats["gateway"]["results_held"] == 1
        finally:
            asyncio.run_coroutine_threadsafe(
                gateway.stop(), loop
            ).result(timeout=10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            loop.close()
            service.shutdown()


# -- client retry on shedding --------------------------------------------------


class TestRetryOnOverload:
    def test_backoff_is_deterministic_and_bounded(self):
        first = retry_backoff_s(100.0, 1, "query a")
        assert first == retry_backoff_s(100.0, 1, "query a")
        assert first != retry_backoff_s(100.0, 2, "query a")
        assert first != retry_backoff_s(100.0, 1, "query b")
        assert 0.1 <= first < 0.125
        # no hint -> 50 ms base
        assert 0.05 <= retry_backoff_s(None, 1, "q") < 0.0625

    def test_search_retries_shed_requests(self, trained_metasearcher):
        """Injected shedding: tiny gateway, slow backend, opt-in retry."""
        from tests.test_gateway import slow_down

        async def scenario():
            service = make_service(trained_metasearcher)
            slow_down(service, 0.05)
            gateway = MetasearchGateway(
                service,
                GatewayConfig(
                    max_inflight=1, max_queue=0, shed_retry_after_ms=20.0
                ),
            )
            await gateway.start()
            try:
                client = await GatewayClient.connect(
                    "127.0.0.1", gateway.port
                )
                queries = [f"heart disease {i}" for i in range(4)]
                results = await asyncio.gather(
                    *(
                        client.search(
                            q, k=2, certainty=0.8, retry_overloaded=8
                        )
                        for q in queries
                    )
                )
                snapshot = service.snapshot()
                await client.close()
                return results, snapshot
            finally:
                await gateway.stop()
                service.shutdown()

        results, snapshot = run(scenario())
        assert len(results) == 4
        assert all(r["answer"]["selected"] for r in results)
        # the gateway really shed: retries did the recovering
        assert snapshot["counters"]["gateway_shed"] >= 1

    def test_without_optin_shed_surfaces_as_error(self, trained_metasearcher):
        from tests.test_gateway import slow_down

        async def scenario():
            service = make_service(trained_metasearcher)
            slow_down(service, 0.05)
            gateway = MetasearchGateway(
                service, GatewayConfig(max_inflight=1, max_queue=0)
            )
            await gateway.start()
            try:
                client = await GatewayClient.connect(
                    "127.0.0.1", gateway.port
                )
                outcomes = await asyncio.gather(
                    *(
                        client.search(f"cancer {i}", k=2, certainty=0.8)
                        for i in range(4)
                    ),
                    return_exceptions=True,
                )
                await client.close()
                return outcomes
            finally:
                await gateway.stop()
                service.shutdown()

        outcomes = run(scenario())
        shed = [
            o
            for o in outcomes
            if isinstance(o, GatewayError)
            and o.code is ErrorCode.OVERLOADED
        ]
        assert shed
        assert all(o.retry_after_ms is not None for o in shed)
