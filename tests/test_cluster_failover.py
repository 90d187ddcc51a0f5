"""Replica-crash tests: SIGKILL a real replica process mid-burst.

These are the expensive tests (each stands up a ``LocalCluster`` of
spawned replica processes that rebuild trained state), so the testbed
is tiny and every scenario that can share a cluster does. The
properties under test are the cluster's headline guarantees:

* a mid-burst SIGKILL loses **zero** requests and duplicates none —
  every in-flight request on the dead replica is re-dispatched exactly
  once to the re-hashed owner;
* re-dispatched answers are identical to a single node's (the
  determinism contract across processes);
* a dead replica's cursor handles die with it: ``fetch`` reports
  ``not_found`` instead of silently rebuilding a different result set.
"""

import asyncio

import pytest

from repro.cluster import LocalCluster, ReplicaSpec, RouterConfig
from repro.experiments.setup import build_trained_testbed
from repro.gateway.client import GatewayClient
from repro.gateway.protocol import ErrorCode, GatewayError
from repro.service.server import MetasearchService, ServiceConfig

SPEC = ReplicaSpec(scale=0.04, seed=2004, n_train=60, n_test=20)


@pytest.fixture(scope="module")
def reference():
    """Single-node answers for the burst queries, computed in-process."""
    context, metasearcher = build_trained_testbed(
        scale=SPEC.scale,
        seed=SPEC.seed,
        n_train=SPEC.n_train,
        n_test=SPEC.n_test,
        batch_size=SPEC.batch_size,
    )
    queries = [
        " ".join(query.terms) for query in context.test_queries[:8]
    ]
    service = MetasearchService(metasearcher, ServiceConfig(max_workers=4))
    try:
        answers = {
            query: service.serve(query, k=3, certainty=0.9)
            for query in queries
        }
    finally:
        service.shutdown()
    return queries, answers


def test_sigkill_mid_burst_loses_and_duplicates_nothing(reference):
    queries, answers = reference
    requests = [queries[i % len(queries)] for i in range(24)]

    async def scenario():
        completed = 0
        killed = False
        async with LocalCluster(
            replicas=2,
            spec=SPEC,
            cache_tier=False,
            router_config=RouterConfig(
                ping_interval_s=0.2, unhealthy_after=1
            ),
        ) as cluster:
            client = await GatewayClient.connect(
                cluster.host, cluster.port
            )

            async def one(query):
                nonlocal completed, killed
                result = await client.search(query, k=3, certainty=0.9)
                completed += 1
                if not killed and completed >= 3:
                    killed = True
                    cluster.kill("r0")
                return query, result

            results = await asyncio.gather(*(one(q) for q in requests))
            snapshot = cluster.router.snapshot()
            survivors = cluster.router.replicas_up
            await client.close()
        return results, snapshot, survivors

    results, snapshot, survivors = asyncio.run(scenario())

    # exactly one response per request, none lost, none doubled
    assert len(results) == len(requests)
    # every answer identical to the single-node baseline
    for query, result in results:
        expected = answers[query]
        assert tuple(result["answer"]["selected"]) == expected.selected
        assert result["answer"]["certainty"] == pytest.approx(
            expected.certainty, abs=1e-9
        )
        assert (
            tuple(result["answer"]["probe_order"]) == expected.probe_order
        )
        assert result["served"]["replica"] in ("r0", "r1")
    # the kill was observed: r0 left the ring, failovers were counted
    assert survivors == ("r1",)
    assert snapshot["counters"]["router_replicas_lost"] == 1
    failovers = [r for _, r in results if r["served"]["failover"]]
    assert len(failovers) == snapshot["counters"]["router_failovers"]
    # post-kill traffic all landed on the survivor
    assert all(
        r["served"]["replica"] == "r1" for _, r in results
        if r["served"]["failover"]
    )


def test_cursor_handles_die_with_their_replica(reference):
    queries, _ = reference

    async def scenario():
        async with LocalCluster(
            replicas=2,
            spec=SPEC,
            cache_tier=False,
            router_config=RouterConfig(
                ping_interval_s=0.2, unhealthy_after=1
            ),
        ) as cluster:
            client = await GatewayClient.connect(
                cluster.host, cluster.port
            )
            # open cursors until both replicas own at least one handle
            handles = {}
            for index, query in enumerate(queries):
                result = await client.search(
                    query, k=3, certainty=0.9, cursor=True
                )
                owner = result["served"]["replica"]
                handles.setdefault(owner, result["handle"])
                if len(handles) == 2:
                    break
            assert set(handles) == {"r0", "r1"}, (
                "sharding never spread across both replicas"
            )
            # both handles page fine while their owners live
            for handle in handles.values():
                page = await client.fetch(handle["run_id"], limit=64)
                assert page["done"] is True
                assert len(page["rows"]) == handle["total"]
            cluster.kill("r0")
            await asyncio.sleep(0.8)  # let the pinger notice
            with pytest.raises(GatewayError) as excinfo:
                await client.fetch(handles["r0"]["run_id"], limit=64)
            dead_code = excinfo.value.code
            # the survivor's handle still pages
            page = await client.fetch(handles["r1"]["run_id"], limit=64)
            await client.close()
            return dead_code, page

    dead_code, page = asyncio.run(scenario())
    assert dead_code is ErrorCode.NOT_FOUND
    assert page["done"] is True


def test_graceful_drain_then_restore(reference):
    """drain_replica: zero-downtime rolling restart, no failovers."""
    queries, answers = reference

    async def scenario():
        async with LocalCluster(
            replicas=2, spec=SPEC, cache_tier=False
        ) as cluster:
            client = await GatewayClient.connect(
                cluster.host, cluster.port
            )
            cluster.router.drain_replica("r0")
            results = [
                await client.search(query, k=3, certainty=0.9)
                for query in queries
            ]
            assert all(
                r["served"]["replica"] == "r1" for r in results
            )
            assert not any(r["served"]["failover"] for r in results)
            cluster.router.restore_replica("r0")
            spread = {
                (await client.search(query, k=3, certainty=0.9))[
                    "served"
                ]["replica"]
                for query in queries
            }
            await client.close()
            return results, spread

    results, spread = asyncio.run(scenario())
    for query, result in zip(queries, results):
        assert (
            tuple(result["answer"]["selected"]) == answers[query].selected
        )
    assert spread == {"r0", "r1"}


def test_cache_tier_serves_a_cross_replica_hit(reference):
    """LocalCluster points every replica at its tier: r0's answer serves r1."""
    queries, _ = reference

    async def scenario():
        async with LocalCluster(
            replicas=2, spec=SPEC, cache_tier=True
        ) as cluster:
            results = []
            for replica in cluster.replicas:
                # Straight to each replica, past the router's sharding.
                client = await GatewayClient.connect(
                    replica.host, replica.port
                )
                try:
                    result = await client.search(
                        queries[0], k=3, certainty=0.9
                    )
                    stats = await client.stats()
                finally:
                    await client.close()
                results.append((result, stats["service"]["counters"]))
            return results

    (first, _), (second, counters) = asyncio.run(scenario())
    assert first["served"]["cache_hit"] is False
    assert second["served"]["cache_hit"] is True
    assert second["answer"] == first["answer"]
    assert counters["cache_tier_hits"] == 1
