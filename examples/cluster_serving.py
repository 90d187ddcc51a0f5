"""Sharded multi-replica serving with a shared selection-cache tier.

Stands up a `LocalCluster`: N replica processes (each rebuilding
bit-identical trained state from the same `ReplicaSpec` — the
determinism contract is the replication protocol), a shared cache
tier, and a consistent-hash router speaking plain `gateway/v1`. Then
demonstrates the cluster's behaviours from a single client:

- sharding: repeats of a query always land on the same replica;
- cursors: a handle-based search paged with `fetch`, routed back to
  the owning replica by the `run_id` prefix;
- the shared cache tier: an answer computed on one replica served as
  a cache hit from another;
- failover: SIGKILL one replica and watch requests re-dispatch to the
  survivor with identical answers.

Run:  python examples/cluster_serving.py

Environment knobs (used by CI to smoke-run at a tiny scale):
REPRO_EXAMPLE_SCALE, REPRO_EXAMPLE_TRAIN, REPRO_EXAMPLE_TEST, plus two
of the library's knobs, read through `repro.knobs` exactly as the
`cluster` CLI command reads them: REPRO_CLUSTER_REPLICAS (replica
count, default 2) and REPRO_CACHE_TIER (point replicas at an
externally-run cache tier instead of owning one). The knob table is
"Environment knobs" in docs/API.md.

See docs/CLUSTER.md for the topology and the protocols.
"""

from __future__ import annotations

import asyncio
import os

from repro import knobs
from repro.cluster import LocalCluster, ReplicaSpec
from repro.gateway.client import GatewayClient

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "0.05"))
N_TRAIN = int(os.environ.get("REPRO_EXAMPLE_TRAIN", "120"))
N_TEST = int(os.environ.get("REPRO_EXAMPLE_TEST", "20"))
REPLICAS = knobs.cluster_replicas()
TIER_ADDRESS = knobs.cache_tier()

QUERIES = [
    "breast cancer chemotherapy",
    "heart disease cholesterol",
    "cancer screening trial",
    "diabetes insulin therapy",
    "stroke rehabilitation",
    "asthma inhaler children",
]


async def main() -> None:
    spec = ReplicaSpec(
        scale=SCALE, seed=2004, n_train=N_TRAIN, n_test=N_TEST
    )
    print(
        f"Starting {REPLICAS} replicas (scale={SCALE}; each process "
        f"rebuilds identical trained state)..."
    )
    async with LocalCluster(
        replicas=REPLICAS,
        spec=spec,
        cache_tier=True,
        cache_tier_address=TIER_ADDRESS,
    ) as cluster:
        tier = TIER_ADDRESS or cluster.tier.address
        print(
            f"Router on {cluster.host}:{cluster.port}, cache tier at "
            f"{tier}\n"
        )
        client = await GatewayClient.connect(cluster.host, cluster.port)

        print("-- sharding: repeats stick to their replica --")
        homes = {}
        for query in QUERIES:
            result = await client.search(query, k=3, certainty=0.9)
            homes[query] = result["served"]["replica"]
        for query in QUERIES:
            result = await client.search(query, k=3, certainty=0.9)
            hit = " (cache hit)" if result["served"]["cache_hit"] else ""
            assert result["served"]["replica"] == homes[query]
            print(
                f"  {query!r:<36} -> {homes[query]}"
                f"{hit}: {', '.join(result['answer']['selected'])}"
            )

        print("\n-- cursors: page a server-held result set --")
        result = await client.search(
            QUERIES[0], k=3, certainty=0.9, cursor=True
        )
        handle = result["handle"]
        print(
            f"  handle {handle['run_id']} holds {handle['total']} rows"
        )
        rows, cursor, done = [], None, False
        while not done:
            page = await client.fetch(
                handle["run_id"], cursor=cursor, limit=4
            )
            rows.extend(page["rows"])
            cursor, done = page["cursor"], page["done"]
        for row in rows[:4]:
            marker = "*" if row["selected"] else " "
            print(
                f"  {marker} {row['database']:<20} "
                f"estimate {row['estimate']:.3f}"
            )
        print(f"  ... {len(rows)} rows fetched in pages of 4")

        print("\n-- failover: SIGKILL a replica mid-stream --")
        victim = homes[QUERIES[0]]
        cluster.kill(victim)
        print(f"  killed {victim}")
        result = await client.search(QUERIES[0], k=3, certainty=0.9)
        print(
            f"  {QUERIES[0]!r} re-dispatched to "
            f"{result['served']['replica']} "
            f"(failover={result['served']['failover']}), same answer: "
            f"{', '.join(result['answer']['selected'])}"
        )

        stats = await client.stats()
        up = stats["router"]["replicas_up"]
        failovers = stats["router"]["counters"]["router_failovers"]
        print(
            f"\nrouter: replicas up {up}, failovers {failovers}, "
            f"searches "
            f"{stats['router']['counters']['router_searches']}"
        )
        await client.close()
    print("Cluster drained and stopped.")


if __name__ == "__main__":
    asyncio.run(main())
