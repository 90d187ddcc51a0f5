"""`repro-metasearch bench-gateway`: open-loop gateway load generator.

Two phases against a real gateway on an ephemeral port, each designed
to *demonstrate* one front-end mechanism rather than merely exercise
it:

* **coalesce** — the selection cache is disabled and a burst of
  requests drawn from a handful of distinct queries is fired
  concurrently under injected probe latency. Concurrent duplicates
  cannot be answered by any cache (they all arrive before the first
  answer exists); single-flight coalescing is what collapses them, so
  the phase reports a coalesce hit rate > 0 and *fewer backend serve
  calls than requests*.
* **shed** — a gateway with a deliberately tiny admission envelope
  (``max_inflight=1``, short queue) takes an open-loop burst it cannot
  absorb. Excess requests must come back as typed ``overloaded``
  responses carrying ``retry_after_ms`` — not hangs, not dropped
  connections — and the gateway must drain cleanly afterwards with no
  leaked request tasks.

Latencies are reported as p50/p95/p99 over the per-request wall clock
observed by the *client*, which includes queueing — the number an SLA
would be written against. :func:`gateway_gates` turns both
demonstrations into recorded gates.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro import bench
from repro.exceptions import ConfigurationError
from repro.gateway.client import GatewayClient
from repro.gateway.gateway import GatewayConfig, MetasearchGateway
from repro.gateway.protocol import ErrorCode, GatewayError
from repro.obs import (
    FileTraceSink,
    format_tier_breakdown,
    load_spans,
    tier_breakdown,
)
from repro.service.bench import build_trained_testbed
from repro.service.faults import FaultInjector
from repro.service.resilience import RetryPolicy
from repro.service.server import MetasearchService, ServiceConfig

__all__ = [
    "BenchGatewayConfig",
    "run_bench_gateway",
    "gateway_gates",
    "format_bench_gateway",
]


@dataclass(frozen=True)
class BenchGatewayConfig:
    """Knobs of the gateway benchmark."""

    scale: float = 0.05
    seed: int = 2004
    n_train: int = 200
    n_test: int = 80
    k: int = 3
    certainty: float = 0.9
    batch_size: int = 16
    workers: int = 8
    pool_workers: int = 0
    mean_latency_ms: float = 25.0
    latency_jitter: float = 0.5
    timeout_ms: float = 250.0
    train_queries_cap: int | None = None
    # coalesce phase: a concurrent burst over few unique queries.
    coalesce_requests: int = 60
    coalesce_unique: int = 6
    # shed phase: more open-loop arrivals than a 1-wide, short-queue
    # gateway can admit.
    shed_requests: int = 24
    shed_queue: int = 2
    shed_interval_ms: float = 1.0
    # When set, both phases run with tracing enabled, span records
    # stream to this NDJSON file, and the report carries a per-tier
    # latency breakdown (see docs/OBSERVABILITY.md).
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.coalesce_requests < 1 or self.shed_requests < 1:
            raise ConfigurationError("request counts must be >= 1")
        if self.coalesce_unique < 1:
            raise ConfigurationError("coalesce_unique must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.pool_workers < 0:
            raise ConfigurationError("pool_workers must be >= 0")


def _service(
    metasearcher,
    config: BenchGatewayConfig,
    cache_enabled: bool,
    trace_sink: FileTraceSink | None = None,
) -> MetasearchService:
    injector = FaultInjector(
        seed=config.seed,
        mean_latency_s=config.mean_latency_ms / 1000.0,
        latency_jitter=config.latency_jitter,
        error_rate=0.0,
    )
    return MetasearchService(
        metasearcher,
        config=ServiceConfig(
            max_workers=config.workers,
            batch_size=config.batch_size,
            retry=RetryPolicy(timeout_s=config.timeout_ms / 1000.0),
            cache_ttl_s=None,
            cache_enabled=cache_enabled,
            pool_workers=config.pool_workers,
            trace=True if trace_sink is not None else None,
        ),
        injector=injector,
        trace_sink=trace_sink,
    )


async def _coalesce_phase(
    metasearcher,
    queries: list[str],
    config: BenchGatewayConfig,
    trace_sink: FileTraceSink | None = None,
) -> dict[str, object]:
    # Cache off: every answer the backend does NOT compute is
    # attributable to coalescing alone.
    service = _service(
        metasearcher, config, cache_enabled=False, trace_sink=trace_sink
    )
    gateway = MetasearchGateway(
        service,
        GatewayConfig(
            max_inflight=config.workers,
            max_queue=config.coalesce_requests,
        ),
    )
    wall_ms: list[float] = []
    coalesced = 0
    ok = 0
    try:
        async with gateway:
            client = await GatewayClient.connect("127.0.0.1", gateway.port)
            try:

                async def one(index: int) -> None:
                    nonlocal coalesced, ok
                    query = queries[index % len(queries)]
                    started = time.perf_counter()
                    result = await client.search(
                        query, k=config.k, certainty=config.certainty
                    )
                    wall_ms.append(
                        (time.perf_counter() - started) * 1000.0
                    )
                    ok += 1
                    if result["served"]["coalesced"]:
                        coalesced += 1

                await asyncio.gather(
                    *(one(i) for i in range(config.coalesce_requests))
                )
            finally:
                await client.close()
        snapshot = service.snapshot()
    finally:
        service.shutdown()
    backend_calls = int(snapshot["counters"]["queries_served"])
    return {
        "requests": config.coalesce_requests,
        "unique_queries": len(queries),
        "ok": ok,
        "coalesced": coalesced,
        "coalesce_hit_rate": round(
            coalesced / config.coalesce_requests, 6
        ),
        "backend_serve_calls": backend_calls,
        "gateway_coalesced_counter": int(
            snapshot["counters"]["gateway_coalesced"]
        ),
        "latency": bench.latency_summary(wall_ms),
    }


async def _shed_phase(
    metasearcher, queries: list[str], config: BenchGatewayConfig
) -> dict[str, object]:
    service = _service(metasearcher, config, cache_enabled=False)
    gateway = MetasearchGateway(
        service,
        GatewayConfig(
            max_inflight=1,
            max_queue=config.shed_queue,
            # Coalescing off so every unique request must be admitted
            # on its own — the shed path is what's under test.
            coalesce=False,
        ),
    )
    wall_ms: list[float] = []
    ok = 0
    shed = 0
    retry_hints: list[float] = []
    unexpected: list[str] = []
    try:
        async with gateway:
            client = await GatewayClient.connect("127.0.0.1", gateway.port)
            try:

                async def one(index: int) -> None:
                    nonlocal ok, shed
                    query = f"{queries[index % len(queries)]} v{index}"
                    started = time.perf_counter()
                    try:
                        await client.search(
                            query, k=config.k, certainty=config.certainty
                        )
                        ok += 1
                    except GatewayError as error:
                        if error.code is ErrorCode.OVERLOADED:
                            shed += 1
                            if error.retry_after_ms is not None:
                                retry_hints.append(error.retry_after_ms)
                        else:
                            unexpected.append(error.code.value)
                    finally:
                        wall_ms.append(
                            (time.perf_counter() - started) * 1000.0
                        )

                # Open loop: arrivals are paced by the generator, not by
                # completions, so the gateway has no way to push back
                # except shedding.
                tasks = []
                for index in range(config.shed_requests):
                    tasks.append(asyncio.create_task(one(index)))
                    await asyncio.sleep(config.shed_interval_ms / 1000.0)
                await asyncio.gather(*tasks)
            finally:
                await client.close()
            # Every response has been received, so every request task
            # should be gone; a yield lets done-callbacks run first.
            await asyncio.sleep(0)
            leaked = gateway.open_tasks
        snapshot = service.snapshot()
    finally:
        service.shutdown()
    return {
        "requests": config.shed_requests,
        "ok": ok,
        "shed": shed,
        "shed_rate": round(shed / config.shed_requests, 6),
        "unexpected_errors": unexpected,
        "retry_after_ms_mean": (
            round(sum(retry_hints) / len(retry_hints), 3)
            if retry_hints
            else None
        ),
        "gateway_shed_counter": int(snapshot["counters"]["gateway_shed"]),
        "leaked_tasks": leaked,
        "clean_drain": leaked == 0 and not unexpected,
        "latency": bench.latency_summary(wall_ms),
    }


def run_bench_gateway(
    config: BenchGatewayConfig | None = None,
) -> dict[str, object]:
    """Run both phases; returns the ``bench/v1`` document."""
    config = config or BenchGatewayConfig()
    context, metasearcher = build_trained_testbed(
        scale=config.scale,
        seed=config.seed,
        n_train=config.n_train,
        n_test=config.n_test,
        batch_size=config.batch_size,
        train_queries_cap=config.train_queries_cap,
    )
    unique = [
        " ".join(query.terms)
        for query in context.test_queries[: config.coalesce_unique]
    ]
    if not unique:
        raise ConfigurationError("testbed produced no test queries")

    # One span file spans both phases (the shed phase runs untraced —
    # its service exists to be overloaded, not measured tier-by-tier).
    trace_sink = (
        None
        if config.trace_path is None
        else FileTraceSink(config.trace_path)
    )

    async def both() -> tuple[dict, dict]:
        coalesce = await _coalesce_phase(
            metasearcher, unique, config, trace_sink=trace_sink
        )
        shed = await _shed_phase(metasearcher, unique, config)
        return coalesce, shed

    coalesce, shed = asyncio.run(both())
    trace: dict[str, object] | None = None
    if trace_sink is not None:
        trace_sink.close()
        trace = {
            "path": config.trace_path,
            "spans": trace_sink.emitted,
            "breakdown": tier_breakdown(load_spans(config.trace_path)),
        }
    results = {
        "databases": len(context.mediator),
        "coalesce": coalesce,
        "shed": shed,
        "trace": trace,
    }
    return bench.report(
        "bench-gateway",
        {
            "scale": config.scale,
            "seed": config.seed,
            "k": config.k,
            "certainty": config.certainty,
            "workers": config.workers,
            "pool_workers": config.pool_workers,
            "mean_latency_ms": config.mean_latency_ms,
            "coalesce_requests": config.coalesce_requests,
            "coalesce_unique": config.coalesce_unique,
            "shed_requests": config.shed_requests,
            "shed_queue": config.shed_queue,
        },
        results,
        gateway_gates(results),
    )


def gateway_gates(results: dict[str, object]) -> list[dict[str, object]]:
    """The benchmark's acceptance checks, as recorded gates.

    Coalescing must merge concurrent duplicates (every request
    answered, at least one coalesced, strictly fewer backend serve
    calls than requests); overload must shed cleanly (something shed,
    every request answered or shed, no other error, no leaked task).
    A traced run must also have emitted ``gateway.request`` and
    ``service.serve`` spans.
    """
    coalesce, shed = results["coalesce"], results["shed"]
    gates = [
        bench.gate(
            "coalesce.ok", coalesce["ok"], coalesce["requests"], "=="
        ),
        bench.gate("coalesce.coalesced", coalesce["coalesced"], 1, ">="),
        bench.gate(
            "coalesce.backend_serve_calls",
            coalesce["backend_serve_calls"],
            coalesce["requests"],
            "<",
        ),
        bench.gate("shed.shed", shed["shed"], 1, ">="),
        bench.gate(
            "shed.ok_plus_shed",
            shed["ok"] + shed["shed"],
            shed["requests"],
            "==",
        ),
        bench.gate(
            "shed.unexpected_errors", len(shed["unexpected_errors"]), 0, "=="
        ),
        bench.gate("shed.leaked_tasks", shed["leaked_tasks"], 0, "=="),
    ]
    trace = results["trace"]
    if trace is not None:
        gates.append(bench.gate("trace.spans", trace["spans"], 1, ">="))
        for name in ("gateway.request", "service.serve"):
            gates.append(
                bench.gate(
                    f"trace.{name}.count",
                    trace["breakdown"].get(name, {}).get("count", 0),
                    1,
                    ">=",
                )
            )
    return gates


def format_bench_gateway(document: dict[str, object]) -> str:
    """Human-readable benchmark summary (the full report stays JSON)."""
    results = document["results"]
    coalesce, shed = results["coalesce"], results["shed"]
    lines = [
        f"databases            : {results['databases']}",
        "",
        "coalesce phase (cache disabled):",
        f"  requests           : {coalesce['requests']} "
        f"({coalesce['unique_queries']} unique)",
        f"  coalesced          : {coalesce['coalesced']} "
        f"(hit rate {coalesce['coalesce_hit_rate']:.0%})",
        f"  backend serves     : {coalesce['backend_serve_calls']}",
        f"  latency p50/p95/p99: "
        f"{coalesce['latency'].get('p50_ms', '-')} / "
        f"{coalesce['latency'].get('p95_ms', '-')} / "
        f"{coalesce['latency'].get('p99_ms', '-')} ms",
        "",
        "shed phase (max_inflight=1):",
        f"  requests           : {shed['requests']}",
        f"  ok / shed          : {shed['ok']} / {shed['shed']} "
        f"(shed rate {shed['shed_rate']:.0%})",
        f"  retry_after_ms mean: {shed['retry_after_ms_mean']}",
        f"  clean drain        : {shed['clean_drain']} "
        f"(leaked tasks: {shed['leaked_tasks']})",
    ]
    trace = results["trace"]
    if trace is not None:
        lines += [
            "",
            f"per-tier latency breakdown ({trace['spans']} spans "
            f"-> {trace['path']}):",
            format_tier_breakdown(trace["breakdown"]),
        ]
    return "\n".join(lines)
