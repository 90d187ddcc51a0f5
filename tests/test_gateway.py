"""Integration tests for the asyncio gateway against a live socket.

Every test runs a real :class:`MetasearchGateway` on an ephemeral port
inside the test's event loop, with the real client over real TCP. The
backend is the session-scoped trained metasearcher, so the byte-identity
tests compare gateway answers against direct ``serve`` calls on an
equivalent service.
"""

import asyncio
import gc
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.gateway.client import GatewayClient, SyncGatewayClient
from repro.gateway.gateway import GatewayConfig, MetasearchGateway
from repro.gateway.protocol import (
    PROTOCOL_VERSION,
    ErrorCode,
    GatewayError,
    answer_payload,
)
from repro.service.pool import SelectionPool
from repro.service.resilience import RetryPolicy
from repro.service.server import MetasearchService, ServiceConfig


def make_service(trained_metasearcher, **kwargs):
    config = kwargs.pop("config", None) or ServiceConfig(
        max_workers=4,
        batch_size=2,
        retry=RetryPolicy(backoff_base_s=0.0),
    )
    kwargs.setdefault("sleeper", lambda s: None)
    return MetasearchService(trained_metasearcher, config=config, **kwargs)


def run(coroutine):
    """Run one async test body in a fresh event loop."""
    return asyncio.run(coroutine)


async def start_gateway(service, **config_kwargs):
    gateway = MetasearchGateway(service, GatewayConfig(**config_kwargs))
    await gateway.start()
    return gateway


class SlowProber:
    """Wraps a prober, adding an asyncio-visible delay per batch."""

    def __init__(self, inner, delay_s: float) -> None:
        self._inner = inner
        self._delay_s = delay_s
        self.calls = 0

    def probe_batch(self, query, indices):
        self.calls += 1
        import time

        time.sleep(self._delay_s)
        return self._inner.probe_batch(query, indices)


def slow_down(service, delay_s: float) -> SlowProber:
    """Interpose a sleeping prober on a service's APro loop."""
    apro = service._apro
    slow = SlowProber(apro._prober, delay_s)
    apro._prober = slow
    return slow


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_inflight": 0},
            {"max_queue": -1},
            {"shed_retry_after_ms": -1.0},
            {"default_deadline_ms": -5.0},
            {"drain_timeout_s": -1.0},
            {"max_line_bytes": 10},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            GatewayConfig(**kwargs)

    def test_defaults_are_valid(self):
        GatewayConfig()


class TestByteIdentity:
    def test_gateway_answer_matches_direct_serve(
        self, trained_metasearcher, health_queries
    ):
        texts = [" ".join(q.terms) for q in health_queries[40:48]]

        async def scenario():
            with make_service(trained_metasearcher) as service:
                gateway = await start_gateway(service)
                async with gateway:
                    client = await GatewayClient.connect(
                        "127.0.0.1", gateway.port
                    )
                    try:
                        return [
                            await client.search(text, k=2, certainty=0.9)
                            for text in texts
                        ]
                    finally:
                        await client.close()

        results = run(scenario())
        # An equivalent direct service must produce byte-identical
        # `answer` objects (selections are content-keyed, so a separate
        # instance replays the same deterministic probes).
        with make_service(trained_metasearcher) as direct:
            for text, result in zip(texts, results):
                answer = direct.serve(text, k=2, certainty=0.9)
                expected = json.dumps(
                    answer_payload(answer), sort_keys=True
                ).encode()
                got = json.dumps(
                    result["answer"], sort_keys=True
                ).encode()
                assert got == expected
                assert result["answer"]["degraded"] is None
                # trace_id appears only when the service runs with
                # tracing enabled (e.g. under REPRO_TRACE=1).
                assert set(result["served"]) - {"trace_id"} == {
                    "cache_hit",
                    "coalesced",
                    "redispatched",
                    "wall_ms",
                }

    def test_identity_holds_across_concurrent_clients(
        self, trained_metasearcher, health_queries
    ):
        texts = [" ".join(q.terms) for q in health_queries[48:56]]

        async def scenario():
            with make_service(
                trained_metasearcher,
                config=ServiceConfig(
                    max_workers=4,
                    batch_size=2,
                    retry=RetryPolicy(backoff_base_s=0.0),
                    cache_enabled=False,
                ),
            ) as service:
                gateway = await start_gateway(service, max_inflight=4)
                async with gateway:
                    clients = [
                        await GatewayClient.connect(
                            "127.0.0.1", gateway.port
                        )
                        for _ in range(4)
                    ]
                    try:
                        return await asyncio.gather(
                            *(
                                clients[i % 4].search(
                                    text, k=2, certainty=0.9
                                )
                                for i, text in enumerate(texts)
                            )
                        )
                    finally:
                        for client in clients:
                            await client.close()

        results = run(scenario())
        with make_service(trained_metasearcher) as direct:
            for text, result in zip(texts, results):
                answer = direct.serve(text, k=2, certainty=0.9)
                assert result["answer"] == answer_payload(answer)


class TestDeadlines:
    # Both deadline tests run in-process and against the multiprocess
    # selection pool: deadlines must cut probing short inside a worker
    # and come back as the same honest degraded answer.
    @pytest.mark.parametrize("pool_workers", [0, 2])
    def test_expired_deadline_returns_wellformed_degraded_answer(
        self, trained_metasearcher, health_queries, pool_workers
    ):
        query = next(
            q
            for q in health_queries[40:]
            if trained_metasearcher.select_without_probing(
                q, k=2
            ).expected_correctness
            < 0.999
        )
        text = " ".join(query.terms)

        async def scenario():
            with make_service(
                trained_metasearcher,
                config=ServiceConfig(
                    max_workers=2,
                    batch_size=2,
                    retry=RetryPolicy(backoff_base_s=0.0),
                    cache_enabled=False,
                    pool_workers=pool_workers,
                ),
            ) as service:
                gateway = await start_gateway(service)
                async with gateway:
                    client = await GatewayClient.connect(
                        "127.0.0.1", gateway.port
                    )
                    try:
                        result = await client.search(
                            text, k=2, certainty=1.0, deadline_ms=0
                        )
                    finally:
                        await client.close()
                    snapshot = service.snapshot()
                    return result, snapshot

        result, snapshot = run(scenario())
        answer = result["answer"]
        assert answer["degraded"] == "deadline"
        assert answer["probes"] == 0
        assert len(answer["selected"]) == 2
        assert answer["certainty"] < 1.0  # actual, not the requested 1.0
        assert answer["certainty_required"] == 1.0
        assert snapshot["counters"]["gateway_deadline_hits"] == 1
        # Degraded answer matches the pure no-probe selection.
        direct = trained_metasearcher.select_without_probing(query, k=2)
        assert tuple(answer["selected"]) == direct.names
        assert answer["certainty"] == pytest.approx(
            direct.expected_correctness
        )

    @pytest.mark.parametrize("pool_workers", [0, 2])
    def test_default_deadline_applies_when_request_has_none(
        self, trained_metasearcher, health_queries, pool_workers
    ):
        query = next(
            q
            for q in health_queries[40:]
            if trained_metasearcher.select_without_probing(
                q, k=2
            ).expected_correctness
            < 0.999
        )
        text = " ".join(query.terms)

        async def scenario():
            with make_service(
                trained_metasearcher,
                config=ServiceConfig(
                    max_workers=2,
                    batch_size=2,
                    retry=RetryPolicy(backoff_base_s=0.0),
                    cache_enabled=False,
                    pool_workers=pool_workers,
                ),
            ) as service:
                gateway = await start_gateway(
                    service, default_deadline_ms=0.0
                )
                async with gateway:
                    client = await GatewayClient.connect(
                        "127.0.0.1", gateway.port
                    )
                    try:
                        return await client.search(
                            text, k=2, certainty=1.0
                        )
                    finally:
                        await client.close()

        result = run(scenario())
        assert result["answer"]["degraded"] == "deadline"


class TestCoalescing:
    def test_concurrent_duplicates_ride_one_backend_call(
        self, trained_metasearcher, health_queries
    ):
        text = " ".join(health_queries[57].terms)

        async def scenario():
            with make_service(
                trained_metasearcher,
                config=ServiceConfig(
                    max_workers=2,
                    batch_size=2,
                    retry=RetryPolicy(backoff_base_s=0.0),
                    cache_enabled=False,
                ),
            ) as service:
                slow = slow_down(service, delay_s=0.05)
                gateway = await start_gateway(service, max_queue=64)
                async with gateway:
                    client = await GatewayClient.connect(
                        "127.0.0.1", gateway.port
                    )
                    try:
                        results = await asyncio.gather(
                            *(
                                client.search(text, k=2, certainty=1.0)
                                for _ in range(8)
                            )
                        )
                    finally:
                        await client.close()
                    snapshot = service.snapshot()
                return results, snapshot, slow.calls

        results, snapshot, _calls = run(scenario())
        answers = [
            json.dumps(r["answer"], sort_keys=True) for r in results
        ]
        assert len(set(answers)) == 1  # everyone got the same answer
        coalesced = [r for r in results if r["served"]["coalesced"]]
        assert len(coalesced) >= 1
        counters = snapshot["counters"]
        assert counters["gateway_coalesced"] == len(coalesced)
        # Strictly fewer backend serves than requests: the herd
        # collapsed (cache was off, so coalescing alone did this).
        assert counters["queries_served"] < 8
        assert counters["gateway_requests"] == 8

    def test_coalescing_disabled_serves_each_request(
        self, trained_metasearcher, health_queries
    ):
        text = " ".join(health_queries[58].terms)

        async def scenario():
            with make_service(
                trained_metasearcher,
                config=ServiceConfig(
                    max_workers=2,
                    batch_size=2,
                    retry=RetryPolicy(backoff_base_s=0.0),
                    cache_enabled=False,
                ),
            ) as service:
                gateway = await start_gateway(
                    service, coalesce=False, max_queue=64
                )
                async with gateway:
                    client = await GatewayClient.connect(
                        "127.0.0.1", gateway.port
                    )
                    try:
                        await asyncio.gather(
                            *(
                                client.search(text, k=1)
                                for _ in range(4)
                            )
                        )
                    finally:
                        await client.close()
                    return service.snapshot()

        snapshot = run(scenario())
        assert snapshot["counters"]["queries_served"] == 4
        assert snapshot["counters"]["gateway_coalesced"] == 0


def uncertain_text(trained_metasearcher, health_queries) -> str:
    """A query needing >= 2 probe rounds (at batch_size=1) to reach
    certainty 1.0, so a tight deadline really expires mid-run: round 1
    alone does not hit the threshold, and the top-of-round deadline
    check degrades the answer before round 2. Probing is deterministic
    and content-keyed, so the throwaway service here replays the same
    probes the test's own service will see."""
    with MetasearchService(
        trained_metasearcher,
        config=ServiceConfig(
            max_workers=2,
            batch_size=1,
            retry=RetryPolicy(backoff_base_s=0.0),
            cache_enabled=False,
        ),
        sleeper=lambda s: None,
    ) as probe_service:
        for query in health_queries[40:]:
            text = " ".join(query.terms)
            answer = probe_service.serve(text, k=2, certainty=1.0)
            if answer.probes >= 2:
                return text
    raise AssertionError("testbed produced no multi-round query")


class TestCoalescingDeadlineCorrectness:
    """Regression tests: a degraded answer must never reach a caller
    who didn't run out of budget, and deadline hits count backend
    calls, not coalesced responses. Both fail on the pre-fix tree."""

    def test_deadline_free_follower_gets_fresh_answer(
        self, trained_metasearcher, health_queries
    ):
        # Pre-fix: coalesce_key ignored deadlines, so the deadline-free
        # follower rode the 25ms leader and was handed its
        # degraded="deadline" answer despite having unlimited budget.
        text = uncertain_text(trained_metasearcher, health_queries)

        async def scenario():
            with make_service(
                trained_metasearcher,
                config=ServiceConfig(
                    max_workers=2,
                    batch_size=1,
                    retry=RetryPolicy(backoff_base_s=0.0),
                    cache_enabled=False,
                ),
            ) as service:
                slow_down(service, delay_s=0.1)
                gateway = await start_gateway(service)
                async with gateway:
                    client = await GatewayClient.connect(
                        "127.0.0.1", gateway.port
                    )
                    try:
                        leader = asyncio.create_task(
                            client.search(
                                text, k=2, certainty=1.0, deadline_ms=25
                            )
                        )
                        # The follower arrives while the leader's
                        # backend call is mid-probe-round.
                        while gateway.inflight == 0 and not leader.done():
                            await asyncio.sleep(0.005)
                        follower = await client.search(
                            text, k=2, certainty=1.0
                        )
                        leader_result = await leader
                    finally:
                        await client.close()
                return leader_result, follower

        leader_result, follower = run(scenario())
        assert leader_result["answer"]["degraded"] == "deadline"
        # The unhurried caller got a full-quality answer, not the
        # leader's cut-short one.
        assert follower["answer"]["degraded"] is None
        assert follower["answer"]["probes"] > 0

    def test_follower_with_budget_left_redispatches(
        self, trained_metasearcher, health_queries
    ):
        # Both requests carry deadlines (same coalesce bucket), but the
        # follower's generous budget is far from spent when the
        # leader's degraded answer lands: it must re-dispatch under its
        # own deadline instead of accepting the degraded answer.
        text = uncertain_text(trained_metasearcher, health_queries)

        async def scenario():
            with make_service(
                trained_metasearcher,
                config=ServiceConfig(
                    max_workers=2,
                    batch_size=1,
                    retry=RetryPolicy(backoff_base_s=0.0),
                    cache_enabled=False,
                ),
            ) as service:
                slow_down(service, delay_s=0.05)
                gateway = await start_gateway(service)
                async with gateway:
                    client = await GatewayClient.connect(
                        "127.0.0.1", gateway.port
                    )
                    try:
                        leader = asyncio.create_task(
                            client.search(
                                text, k=2, certainty=1.0, deadline_ms=20
                            )
                        )
                        while gateway.inflight == 0 and not leader.done():
                            await asyncio.sleep(0.005)
                        follower = await client.search(
                            text, k=2, certainty=1.0, deadline_ms=30_000
                        )
                        leader_result = await leader
                    finally:
                        await client.close()
                    snapshot = service.snapshot()
                return leader_result, follower, snapshot

        leader_result, follower, snapshot = run(scenario())
        assert leader_result["answer"]["degraded"] == "deadline"
        assert follower["answer"]["degraded"] is None
        assert follower["served"]["coalesced"] is True
        assert follower["served"]["redispatched"] is True
        counters = snapshot["counters"]
        assert counters["gateway_coalesce_redispatch"] == 1
        # Two backend calls ran (leader + re-dispatch); only the
        # leader's came back deadline-degraded.
        assert counters["queries_served"] == 2
        assert counters["gateway_deadline_hits"] == 1

    def test_deadline_hits_count_backend_calls_not_responses(
        self, trained_metasearcher, health_queries
    ):
        # One deadline-degraded backend call shared by three coalesced
        # followers (whose own budgets are also spent) is ONE deadline
        # hit and four degraded responses — pre-fix it counted 4 hits.
        text = uncertain_text(trained_metasearcher, health_queries)

        async def scenario():
            with make_service(
                trained_metasearcher,
                config=ServiceConfig(
                    max_workers=2,
                    batch_size=1,
                    retry=RetryPolicy(backoff_base_s=0.0),
                    cache_enabled=False,
                ),
            ) as service:
                slow_down(service, delay_s=0.1)
                gateway = await start_gateway(service)
                async with gateway:
                    client = await GatewayClient.connect(
                        "127.0.0.1", gateway.port
                    )
                    try:
                        leader = asyncio.create_task(
                            client.search(
                                text, k=2, certainty=1.0, deadline_ms=25
                            )
                        )
                        while gateway.inflight == 0 and not leader.done():
                            await asyncio.sleep(0.005)
                        followers = await asyncio.gather(
                            *(
                                client.search(
                                    text,
                                    k=2,
                                    certainty=1.0,
                                    deadline_ms=25,
                                )
                                for _ in range(3)
                            )
                        )
                        leader_result = await leader
                    finally:
                        await client.close()
                    snapshot = service.snapshot()
                return [leader_result, *followers], snapshot

        # A full collection of the test session's heap stops every
        # thread for ~100 ms, longer than the ~75 ms between the
        # followers' arrival and the leader's answer. Followers parsed
        # after such a pause still have budget and rightly re-dispatch,
        # which is a different scenario from the one pinned here.
        gc.collect()
        gc.disable()
        try:
            results, snapshot = run(scenario())
        finally:
            gc.enable()
        assert all(
            r["answer"]["degraded"] == "deadline" for r in results
        )
        counters = snapshot["counters"]
        assert counters["gateway_coalesced"] == 3
        assert counters["queries_served"] == 1  # one backend call
        assert counters["gateway_deadline_hits"] == 1
        assert counters["gateway_degraded_served"] == 4
        assert counters["gateway_coalesce_redispatch"] == 0


class TestShedding:
    def test_overload_sheds_typed_retryable_responses(
        self, trained_metasearcher, health_queries
    ):
        texts = [" ".join(q.terms) for q in health_queries[40:52]]

        async def scenario():
            with make_service(
                trained_metasearcher,
                config=ServiceConfig(
                    max_workers=1,
                    batch_size=2,
                    retry=RetryPolicy(backoff_base_s=0.0),
                    cache_enabled=False,
                ),
            ) as service:
                slow_down(service, delay_s=0.05)
                gateway = await start_gateway(
                    service,
                    max_inflight=1,
                    max_queue=1,
                    coalesce=False,
                    shed_retry_after_ms=40.0,
                )
                async with gateway:
                    client = await GatewayClient.connect(
                        "127.0.0.1", gateway.port
                    )
                    outcomes = {"ok": 0, "shed": 0, "other": 0}
                    hints = []

                    async def one(text):
                        try:
                            await client.search(text, k=1, certainty=1.0)
                            outcomes["ok"] += 1
                        except GatewayError as error:
                            if error.code is ErrorCode.OVERLOADED:
                                outcomes["shed"] += 1
                                hints.append(error.retry_after_ms)
                            else:
                                outcomes["other"] += 1

                    try:
                        await asyncio.gather(*(one(t) for t in texts))
                    finally:
                        await client.close()
                    await asyncio.sleep(0)
                    leaked = gateway.open_tasks
                    snapshot = service.snapshot()
                return outcomes, hints, leaked, snapshot

        outcomes, hints, leaked, snapshot = run(scenario())
        assert outcomes["other"] == 0
        assert outcomes["shed"] >= 1
        assert outcomes["ok"] >= 1  # admitted work still completed
        assert outcomes["ok"] + outcomes["shed"] == len(texts)
        assert all(h is not None and h >= 40.0 for h in hints)
        assert leaked == 0
        counters = snapshot["counters"]
        assert counters["gateway_shed"] == outcomes["shed"]
        assert snapshot["gauges"]["gateway_inflight"]["value"] == 0.0
        assert snapshot["gauges"]["gateway_queue_depth"]["value"] == 0.0


class TestPoolWarmup:
    """``start()`` spawns the selection pool before the socket binds."""

    CONFIG = dict(max_workers=2, batch_size=2, pool_workers=2)

    def test_start_spawns_the_pool_workers(self, trained_metasearcher):
        async def scenario():
            config = ServiceConfig(**self.CONFIG)
            with make_service(trained_metasearcher, config=config) as service:
                async with await start_gateway(service):
                    return service.pool.started, service.pool.worker_pids()

        started, pids = run(scenario())
        assert started
        assert len(pids) == 2

    def test_start_survives_a_pool_that_cannot_spawn(
        self, trained_metasearcher, monkeypatch
    ):
        def refuse(pool):
            raise OSError("no processes left")

        monkeypatch.setattr(SelectionPool, "_spawn", refuse)

        async def scenario():
            config = ServiceConfig(**self.CONFIG)
            with make_service(trained_metasearcher, config=config) as service:
                gateway = await start_gateway(service)
                async with gateway:
                    client = await GatewayClient.connect(
                        "127.0.0.1", gateway.port
                    )
                    try:
                        result = await client.search("heart disease", k=2)
                    finally:
                        await client.close()
                    return result, service.snapshot()

        result, snapshot = run(scenario())
        assert len(result["answer"]["selected"]) == 2
        assert snapshot["counters"]["pool_fallback_total"] == 1


class TestDrain:
    def test_graceful_drain_finishes_inflight_and_refuses_new(
        self, trained_metasearcher, health_queries
    ):
        # A query whose prior is uncertain, so serving it really probes
        # (and therefore really sits in flight while we drain).
        slow_query = next(
            q
            for q in health_queries[40:]
            if trained_metasearcher.select_without_probing(
                q, k=2
            ).expected_correctness
            < 0.999
        )
        slow_text = " ".join(slow_query.terms)

        async def scenario():
            with make_service(
                trained_metasearcher,
                config=ServiceConfig(
                    max_workers=2,
                    batch_size=2,
                    retry=RetryPolicy(backoff_base_s=0.0),
                    cache_enabled=False,
                ),
            ) as service:
                slow_down(service, delay_s=0.25)
                gateway = await start_gateway(service)
                client = await GatewayClient.connect(
                    "127.0.0.1", gateway.port
                )
                try:
                    inflight = asyncio.create_task(
                        client.search(slow_text, k=2, certainty=1.0)
                    )
                    # Let the request reach the backend before draining.
                    while gateway.inflight == 0 and not inflight.done():
                        await asyncio.sleep(0.005)
                    drain = asyncio.create_task(gateway.stop())
                    while not gateway.draining:
                        await asyncio.sleep(0)
                    refused = None
                    try:
                        await client.search(slow_text, k=1)
                    except GatewayError as error:
                        refused = error.code
                    result = await inflight
                    await drain
                finally:
                    await client.close()
                return result, refused, gateway.open_tasks

        result, refused, leaked = run(scenario())
        # The in-flight request finished with a real answer...
        assert result["answer"]["selected"]
        # ...while the request arriving mid-drain was typed-refused.
        assert refused is ErrorCode.SHUTTING_DOWN
        assert leaked == 0

    def test_stop_is_idempotent(self, trained_metasearcher):
        async def scenario():
            with make_service(trained_metasearcher) as service:
                gateway = await start_gateway(service)
                await gateway.stop()
                await gateway.stop()
                assert gateway.draining

        run(scenario())


class TestProtocolOverTheWire:
    def test_ping_metrics_and_errors(self, trained_metasearcher):
        async def scenario():
            with make_service(trained_metasearcher) as service:
                gateway = await start_gateway(service)
                async with gateway:
                    port = gateway.port
                    client = await GatewayClient.connect("127.0.0.1", port)
                    try:
                        pong = await client.ping()
                        snapshot = await client.metrics()
                    finally:
                        await client.close()

                    # Raw socket: protocol-level defects get typed errors.
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    try:
                        writer.write(b"not json\n")
                        await writer.drain()
                        bad = json.loads(await reader.readline())
                        writer.write(
                            json.dumps(
                                {"v": "gateway/v9", "op": "ping"}
                            ).encode()
                            + b"\n"
                        )
                        await writer.drain()
                        version = json.loads(await reader.readline())
                    finally:
                        writer.close()
                        await writer.wait_closed()
                return pong, snapshot, bad, version

        pong, snapshot, bad, version = run(scenario())
        assert pong == {"pong": True, "draining": False}
        assert "gateway_requests" in snapshot["counters"]
        assert "gateway_request_ms" in snapshot["histograms"]
        assert bad["ok"] is False
        assert bad["v"] == PROTOCOL_VERSION
        assert bad["error"]["code"] == "bad_request"
        assert version["error"]["code"] == "unsupported_version"

    def test_empty_query_after_analysis_is_bad_request(
        self, trained_metasearcher
    ):
        async def scenario():
            with make_service(trained_metasearcher) as service:
                gateway = await start_gateway(service)
                async with gateway:
                    client = await GatewayClient.connect(
                        "127.0.0.1", gateway.port
                    )
                    try:
                        # Analyzer strips everything -> library rejects;
                        # the gateway must map that to bad_request, not
                        # internal.
                        with pytest.raises(GatewayError) as excinfo:
                            await client.search("the of and", k=1)
                        return excinfo.value.code
                    finally:
                        await client.close()

        assert run(scenario()) is ErrorCode.BAD_REQUEST

    def test_gateway_instruments_preregistered(self, trained_metasearcher):
        with make_service(trained_metasearcher) as service:
            MetasearchGateway(service)
            snapshot = service.snapshot()
        for name in (
            "gateway_requests",
            "gateway_shed",
            "gateway_coalesced",
            "gateway_coalesce_redispatch",
            "gateway_deadline_hits",
            "gateway_degraded_served",
        ):
            assert snapshot["counters"][name] == 0
        assert "gateway_request_ms" in snapshot["histograms"]
        assert "gateway_inflight" in snapshot["gauges"]
        assert "gateway_queue_depth" in snapshot["gauges"]


class TestSyncClient:
    def test_sync_wrapper_from_plain_thread(
        self, trained_metasearcher, health_queries
    ):
        text = " ".join(health_queries[63].terms)
        results = {}

        async def scenario():
            with make_service(trained_metasearcher) as service:
                gateway = await start_gateway(service)
                async with gateway:
                    port = gateway.port

                    def blocking_calls():
                        with SyncGatewayClient("127.0.0.1", port) as client:
                            results["pong"] = client.ping()
                            results["search"] = client.search(
                                text, k=2, certainty=0.9
                            )

                    # A genuinely synchronous caller: separate thread,
                    # no event loop of its own.
                    await asyncio.get_running_loop().run_in_executor(
                        None, blocking_calls
                    )

        run(scenario())
        assert results["pong"]["pong"] is True
        assert len(results["search"]["answer"]["selected"]) == 2
