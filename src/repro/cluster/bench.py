"""`repro-metasearch bench-cluster`: scale-out with identity proofs.

Four phases, each demonstrating one cluster property the docs claim:

* **scaling** — the same request stream through a 1-, 2- and
  4-replica :class:`~repro.cluster.cluster.LocalCluster`, reporting
  QPS per replica count. Every response is compared against a
  single-node baseline computed in-process from the identical
  :class:`~repro.cluster.replica.ReplicaSpec`: selections and probe
  orders must match exactly, certainties to ≤ 1e-9 — the determinism
  contract, observed across process boundaries.
* **cursors** — one handle-based search through the router; pages are
  fetched to exhaustion and reassembled, proving the ``run_id``
  prefix routing and the bounded-page contract.
* **shared cache** — two replicas behind one cache tier, bypassing
  the router: the query is computed on replica r0, then served to
  replica r1 *from the tier* (its own L1 never saw it), shown by
  r1's ``cache_tier_hits`` counter and a cache-hit answer identical
  to the baseline.
* **failover** — a mid-burst SIGKILL of one replica; the gate is
  exact: every request answered exactly once, zero lost, zero
  duplicated, all answers identical to baseline.

:func:`cluster_gates` records each property as a gate. QPS scaling
gates need a host with ≥ 4 cores (a 1-core box legitimately cannot
scale); identity gates are judged everywhere.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro import bench
from repro.exceptions import ConfigurationError
from repro.gateway.client import GatewayClient
from repro.service.bench import build_trained_testbed
from repro.service.server import MetasearchService, ServiceConfig
from repro.cluster.cluster import LocalCluster
from repro.cluster.replica import ReplicaSpec
from repro.cluster.router import RouterConfig

__all__ = [
    "BenchClusterConfig",
    "run_bench_cluster",
    "cluster_gates",
    "format_bench_cluster",
]

#: Certainty agreement bound between replicas and the single-node
#: baseline (they are bit-identical in practice; the epsilon absorbs
#: nothing more than honest float printing).
CERTAINTY_EPS = 1e-9

#: QPS scaling gates, applied only on >= 4-core hosts: the N-replica
#: run must reach at least this multiple of the 1-replica QPS.
SCALING_GATES = {2: 1.3, 4: 2.0}


@dataclass(frozen=True)
class BenchClusterConfig:
    """Knobs of the cluster benchmark (defaults fit CI)."""

    scale: float = 0.04
    seed: int = 2004
    n_train: int = 120
    n_test: int = 40
    k: int = 3
    certainty: float = 0.9
    batch_size: int = 16
    unique_queries: int = 12
    repeats: int = 6
    concurrency: int = 16
    replica_counts: tuple[int, ...] = (1, 2, 4)
    failover_requests: int = 48
    failover_kill_after: int = 6

    def __post_init__(self) -> None:
        if self.unique_queries < 1:
            raise ConfigurationError("unique_queries must be >= 1")
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
        if self.concurrency < 1:
            raise ConfigurationError("concurrency must be >= 1")
        if not self.replica_counts or min(self.replica_counts) < 1:
            raise ConfigurationError("replica_counts must be >= 1")
        if self.failover_requests < 2:
            raise ConfigurationError("failover_requests must be >= 2")
        if not 0 < self.failover_kill_after < self.failover_requests:
            raise ConfigurationError(
                "failover_kill_after must be within the burst"
            )

    def spec(self) -> ReplicaSpec:
        return ReplicaSpec(
            scale=self.scale,
            seed=self.seed,
            n_train=self.n_train,
            n_test=self.n_test,
            batch_size=self.batch_size,
        )


def _baseline(config: BenchClusterConfig) -> tuple[list[str], dict]:
    """Single-node reference answers, computed fully in-process."""
    spec = config.spec()
    context, metasearcher = build_trained_testbed(
        scale=spec.scale,
        seed=spec.seed,
        n_train=spec.n_train,
        n_test=spec.n_test,
        batch_size=spec.batch_size,
    )
    queries = [
        " ".join(query.terms)
        for query in context.test_queries[: config.unique_queries]
    ]
    if not queries:
        raise ConfigurationError("testbed produced no test queries")
    service = MetasearchService(
        metasearcher, ServiceConfig(max_workers=spec.max_workers)
    )
    try:
        answers = {}
        for query in queries:
            answer = service.serve(
                query, k=config.k, certainty=config.certainty
            )
            answers[query] = {
                "selected": list(answer.selected),
                "certainty": answer.certainty,
                "probes": answer.probes,
                "probe_order": list(answer.probe_order),
            }
    finally:
        service.shutdown()
    return queries, answers


def _compare(answer: dict, reference: dict) -> list[str]:
    """Mismatch descriptions between one wire answer and the baseline."""
    problems = []
    if list(answer["selected"]) != reference["selected"]:
        problems.append(
            f"selected {answer['selected']} != {reference['selected']}"
        )
    if list(answer["probe_order"]) != reference["probe_order"]:
        problems.append("probe order differs")
    delta = abs(float(answer["certainty"]) - reference["certainty"])
    if delta > CERTAINTY_EPS:
        problems.append(f"certainty delta {delta:.3e} > {CERTAINTY_EPS}")
    return problems


async def _burst(
    client: GatewayClient,
    requests: list[str],
    config: BenchClusterConfig,
    on_response=None,
) -> tuple[list[tuple[str, dict]], list[float]]:
    """Fire a closed-loop burst; returns (query, result) pairs."""
    semaphore = asyncio.Semaphore(config.concurrency)
    results: list[tuple[str, dict]] = []
    wall_ms: list[float] = []

    async def one(query: str) -> None:
        async with semaphore:
            started = time.perf_counter()
            result = await client.search(
                query, k=config.k, certainty=config.certainty
            )
            wall_ms.append((time.perf_counter() - started) * 1000.0)
            results.append((query, result))
            if on_response is not None:
                on_response()

    await asyncio.gather(*(one(query) for query in requests))
    return results, wall_ms


async def _scaling_run(
    count: int,
    queries: list[str],
    reference: dict,
    config: BenchClusterConfig,
) -> dict:
    requests = [
        queries[index % len(queries)]
        for index in range(len(queries) * config.repeats)
    ]
    async with LocalCluster(
        replicas=count, spec=config.spec(), cache_tier=False
    ) as cluster:
        client = await GatewayClient.connect(cluster.host, cluster.port)
        try:
            started = time.perf_counter()
            results, wall_ms = await _burst(client, requests, config)
            wall_s = time.perf_counter() - started
        finally:
            await client.close()
    mismatches = []
    replicas_seen = set()
    for query, result in results:
        replicas_seen.add(result["served"].get("replica"))
        for problem in _compare(result["answer"], reference[query]):
            mismatches.append(f"{query!r}: {problem}")
    return {
        "replicas": count,
        "requests": len(requests),
        "ok": len(results),
        "qps": round(len(results) / wall_s, 3),
        "wall_s": round(wall_s, 3),
        "replicas_seen": sorted(str(name) for name in replicas_seen),
        "identity": {
            "compared": len(results),
            "mismatches": mismatches[:10],
            "mismatch_count": len(mismatches),
        },
        "latency": bench.latency_summary(wall_ms),
    }


async def _cursor_phase(
    queries: list[str], config: BenchClusterConfig
) -> dict:
    """One handle-based search through the router, paged to the end."""
    async with LocalCluster(
        replicas=2, spec=config.spec(), cache_tier=False
    ) as cluster:
        client = await GatewayClient.connect(cluster.host, cluster.port)
        try:
            result = await client.search(
                queries[0],
                k=config.k,
                certainty=config.certainty,
                cursor=True,
            )
            handle = result.get("handle") or {}
            run_id = handle.get("run_id", "")
            rows: list[dict] = []
            pages = 0
            cursor = None
            done = False
            while not done and pages < 64:
                page = await client.fetch(run_id, cursor=cursor, limit=3)
                rows.extend(page["rows"])
                cursor = page["cursor"]
                done = page["done"]
                pages += 1
            total = handle.get("total", -1)
        finally:
            await client.close()
    names = [row.get("database") for row in rows]
    return {
        "run_id_prefixed": "/" in run_id,
        "pages": pages,
        "rows": len(rows),
        "total": total,
        "reassembled": len(rows) == total and len(set(names)) == len(names),
        "selected_rows": sum(1 for row in rows if row.get("selected")),
    }


async def _shared_cache_phase(
    queries: list[str], config: BenchClusterConfig
) -> dict:
    """Compute on r0, then serve r1 from the tier, bypassing the router."""
    query = queries[0]
    async with LocalCluster(
        replicas=2, spec=config.spec(), cache_tier=True
    ) as cluster:
        r0, r1 = cluster.replicas
        first_client = await GatewayClient.connect(r0.host, r0.port)
        try:
            first = await first_client.search(
                query, k=config.k, certainty=config.certainty
            )
        finally:
            await first_client.close()
        second_client = await GatewayClient.connect(r1.host, r1.port)
        try:
            second = await second_client.search(
                query, k=config.k, certainty=config.certainty
            )
            stats = await second_client.stats()
        finally:
            await second_client.close()
        tier_stats = cluster.tier.stats() if cluster.tier else {}
    counters = stats["service"]["counters"]
    return {
        "first_cache_hit": first["served"]["cache_hit"],
        "second_cache_hit": second["served"]["cache_hit"],
        "cross_replica_tier_hits": int(counters["cache_tier_hits"]),
        "tier_puts": int(counters.get("cache_tier_puts", 0)),
        "tier_server": tier_stats,
        "answers_match": first["answer"] == second["answer"],
    }


async def _failover_phase(
    queries: list[str], reference: dict, config: BenchClusterConfig
) -> dict:
    """SIGKILL a replica mid-burst; every request answered exactly once."""
    requests = [
        queries[index % len(queries)]
        for index in range(config.failover_requests)
    ]
    completed = 0
    killed_at: int | None = None

    async with LocalCluster(
        replicas=2,
        spec=config.spec(),
        cache_tier=False,
        router_config=RouterConfig(ping_interval_s=0.2, unhealthy_after=1),
    ) as cluster:

        def on_response() -> None:
            nonlocal completed, killed_at
            completed += 1
            if killed_at is None and completed >= config.failover_kill_after:
                # SIGKILL from inside the burst: in-flight requests on
                # the dying replica must fail over, not fail.
                killed_at = completed
                cluster.kill("r0")

        client = await GatewayClient.connect(cluster.host, cluster.port)
        try:
            results, _ = await _burst(
                client, requests, config, on_response=on_response
            )
        finally:
            await client.close()
        survivors = cluster.router.replicas_up if cluster.router else ()

    mismatches = []
    failovers = 0
    for query, result in results:
        if result["served"].get("failover"):
            failovers += 1
        for problem in _compare(result["answer"], reference[query]):
            mismatches.append(f"{query!r}: {problem}")
    return {
        "requests": len(requests),
        "responses": len(results),
        "lost": len(requests) - len(results),
        "killed_at_response": killed_at,
        "failovers": failovers,
        "survivors": list(survivors),
        "identity_mismatches": mismatches[:10],
        "identity_mismatch_count": len(mismatches),
    }


def run_bench_cluster(
    config: BenchClusterConfig | None = None,
) -> dict[str, object]:
    """Run all phases; returns the ``bench/v1`` document."""
    config = config or BenchClusterConfig()
    queries, reference = _baseline(config)

    async def phases() -> tuple:
        scaling = []
        for count in config.replica_counts:
            scaling.append(
                await _scaling_run(count, queries, reference, config)
            )
        cursors = await _cursor_phase(queries, config)
        shared = await _shared_cache_phase(queries, config)
        failover = await _failover_phase(queries, reference, config)
        return scaling, cursors, shared, failover

    scaling, cursors, shared, failover = asyncio.run(phases())
    results = {
        "scaling": scaling,
        "cursors": cursors,
        "shared_cache": shared,
        "failover": failover,
    }
    return bench.report(
        "bench-cluster",
        {
            "scale": config.scale,
            "seed": config.seed,
            "n_train": config.n_train,
            "n_test": config.n_test,
            "k": config.k,
            "certainty": config.certainty,
            "unique_queries": len(queries),
            "repeats": config.repeats,
            "concurrency": config.concurrency,
            "replica_counts": list(config.replica_counts),
            "failover_requests": config.failover_requests,
        },
        results,
        cluster_gates(results),
    )


def cluster_gates(results: dict[str, object]) -> list[dict[str, object]]:
    """Acceptance checks of one cluster run, as recorded gates.

    Identity, cursor, shared-cache and failover gates are judged on
    any host; each N-replica run's QPS must reach ``SCALING_GATES[N]``
    times the 1-replica QPS on hosts with >= 4 cores — a 1-core box
    cannot scale and the committed snapshot must not pretend it did.
    """
    gates: list[dict[str, object]] = []
    runs = {run["replicas"]: run for run in results["scaling"]}
    for count, run in sorted(runs.items()):
        prefix = f"scaling.x{count}"
        gates += [
            bench.gate(f"{prefix}.ok", run["ok"], run["requests"], "=="),
            bench.gate(
                f"{prefix}.identity_mismatches",
                run["identity"]["mismatch_count"],
                0,
                "==",
            ),
        ]
        if count > 1:
            gates.append(
                bench.gate(
                    f"{prefix}.replicas_seen",
                    len(run["replicas_seen"]),
                    2,
                    ">=",
                )
            )
        if count in SCALING_GATES and 1 in runs:
            gates.append(
                bench.gate(
                    f"{prefix}.qps_vs_x1",
                    round(run["qps"] / runs[1]["qps"], 3),
                    SCALING_GATES[count],
                    ">=",
                    min_cores=4,
                )
            )
    cursors = results["cursors"]
    shared = results["shared_cache"]
    failover = results["failover"]
    return gates + [
        bench.gate(
            "cursors.run_id_prefixed", cursors["run_id_prefixed"], True, "=="
        ),
        bench.gate("cursors.reassembled", cursors["reassembled"], True, "=="),
        bench.gate("cursors.pages", cursors["pages"], 2, ">="),
        bench.gate(
            "shared_cache.first_cache_hit",
            shared["first_cache_hit"],
            False,
            "==",
        ),
        bench.gate(
            "shared_cache.second_cache_hit",
            shared["second_cache_hit"],
            True,
            "==",
        ),
        bench.gate(
            "shared_cache.cross_replica_tier_hits",
            shared["cross_replica_tier_hits"],
            1,
            ">=",
        ),
        bench.gate(
            "shared_cache.answers_match", shared["answers_match"], True, "=="
        ),
        bench.gate(
            "failover.responses",
            failover["responses"],
            failover["requests"],
            "==",
        ),
        bench.gate(
            "failover.identity_mismatches",
            failover["identity_mismatch_count"],
            0,
            "==",
        ),
        bench.gate("failover.survivors", len(failover["survivors"]), 1, "=="),
    ]


def format_bench_cluster(document: dict[str, object]) -> str:
    """Human-readable summary (the full report stays JSON)."""
    results = document["results"]
    lines = [
        f"cpu_count            : {document['environment']['cpu_count']}",
        "",
        "scaling (vs single-node baseline):",
    ]
    base_qps = None
    for run in results["scaling"]:
        if base_qps is None:
            base_qps = run["qps"]
        ratio = run["qps"] / base_qps if base_qps else 0.0
        lines.append(
            f"  {run['replicas']} replica(s)       : "
            f"{run['qps']:>8.1f} qps ({ratio:.2f}x)  "
            f"identity mismatches: {run['identity']['mismatch_count']}"
        )
    cursors = results["cursors"]
    shared = results["shared_cache"]
    failover = results["failover"]
    lines += [
        "",
        f"cursors              : {cursors['rows']} rows in "
        f"{cursors['pages']} pages, reassembled={cursors['reassembled']}",
        f"shared cache         : cross-replica tier hits = "
        f"{shared['cross_replica_tier_hits']}, second request cache_hit = "
        f"{shared['second_cache_hit']}",
        f"failover             : {failover['responses']}/"
        f"{failover['requests']} answered, lost={failover['lost']}, "
        f"failovers={failover['failovers']}, "
        f"mismatches={failover['identity_mismatch_count']}",
    ]
    return "\n".join(lines)
