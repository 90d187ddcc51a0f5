"""`repro-metasearch bench-serve` / `bench-train`: the service benchmarks.

``bench-serve`` builds the paper testbed, trains a metasearcher, then
replays the same deterministic query stream twice against
fault-injected databases — once through a single-worker (serial)
executor and once through a wide one — and reports wall-clock speedup,
whether the two paths returned byte-identical selections, and the
concurrent run's metrics snapshot.

``bench-train`` does the same for the *offline* phase: it runs the
identical ED-training workload through
:class:`~repro.service.training.ParallelEDTrainer` at one worker and at
N workers, under injected probe latency, and reports wall-clock speedup
plus whether the two trained models are byte-identical.

The fault schedules are pure functions of ``(seed, database, attempt)``
(see :mod:`repro.service.faults`), so both paths experience exactly the
same latencies and failures; any selection or trained-state difference
would be a real concurrency bug, which is why the benchmarks double as
end-to-end determinism checks: each records its identity result as a
gate (:mod:`repro.bench`), so a mismatch fails the command.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field

from repro import bench
from repro.exceptions import ConfigurationError
from repro.experiments.setup import PaperSetupConfig, build_paper_context
from repro.metasearch.metasearcher import Metasearcher, MetasearcherConfig
from repro.obs import (
    FileTraceSink,
    format_tier_breakdown,
    load_spans,
    tier_breakdown,
)
from repro.service.faults import FaultInjector
from repro.service.resilience import RetryPolicy
from repro.service.server import (
    MetasearchService,
    ServedAnswer,
    ServiceConfig,
)
from repro.service.training import ParallelEDTrainer
from repro.summaries.builder import ExactSummaryBuilder
from repro.summaries.estimators import TermIndependenceEstimator
from repro.types import Query

__all__ = [
    "build_trained_testbed",
    "BenchServeConfig",
    "run_bench_serve",
    "serve_gates",
    "format_bench_serve",
    "BenchServeSnapshotConfig",
    "run_bench_serve_snapshot",
    "snapshot_gates",
    "format_bench_serve_snapshot",
    "BenchTrainConfig",
    "run_bench_train",
    "train_gates",
    "format_bench_train",
]


def build_trained_testbed(
    scale: float = 0.05,
    seed: int = 2004,
    n_train: int = 200,
    n_test: int = 80,
    batch_size: int = 16,
    train_queries_cap: int | None = None,
    context: object | None = None,
):
    """Build the paper testbed and a trained metasearcher over it.

    The shared front half of every serving entry point (``bench-serve``,
    ``bench-gateway``, the ``serve`` and ``gateway`` CLI commands):
    construct the scaled paper context, train a metasearcher on its
    training queries (optionally capped), and return ``(context,
    metasearcher)``. Pass *context* to reuse an already-built testbed.
    """
    if context is None:
        context = build_paper_context(
            PaperSetupConfig(
                scale=scale, seed=seed, n_train=n_train, n_test=n_test
            )
        )
    metasearcher = Metasearcher(
        context.mediator,
        MetasearcherConfig(probe_batch_size=batch_size),
        analyzer=context.analyzer,
    )
    train = context.train_queries
    if train_queries_cap is not None:
        train = train[:train_queries_cap]
    metasearcher.train(train)
    return context, metasearcher


@dataclass(frozen=True)
class BenchServeConfig:
    """Knobs of the serving benchmark (defaults meet the PR's demo)."""

    scale: float = 0.05
    seed: int = 2004
    n_train: int = 200
    n_test: int = 80
    queries: int = 100
    unique_queries: int = 60
    k: int = 3
    certainty: float = 0.95
    batch_size: int = 16
    workers: int = 16
    mean_latency_ms: float = 50.0
    latency_jitter: float = 0.5
    error_rate: float = 0.02
    timeout_ms: float = 150.0
    max_retries: int = 2
    backoff_base_ms: float = 5.0
    cache_ttl_s: float | None = 300.0
    pool_workers: int = 0
    train_queries_cap: int | None = None
    # When set, the concurrent leg runs with tracing enabled, span
    # records stream to this NDJSON file, and the report carries a
    # per-tier latency breakdown (see docs/OBSERVABILITY.md).
    trace_path: str | None = None
    context: object | None = field(default=None, compare=False)
    metasearcher: Metasearcher | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.queries < 1 or self.unique_queries < 1:
            raise ConfigurationError("query counts must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.pool_workers < 0:
            raise ConfigurationError("pool_workers must be >= 0")


def _build_stream(
    test_queries: list[Query], config: BenchServeConfig
) -> list[Query]:
    unique = test_queries[: config.unique_queries]
    if not unique:
        raise ConfigurationError("testbed produced no test queries")
    rng = random.Random(config.seed + 77)
    return [rng.choice(unique) for _ in range(config.queries)]


def _service(
    metasearcher: Metasearcher,
    config: BenchServeConfig,
    workers: int,
    pool_workers: int = 0,
    trace_sink: FileTraceSink | None = None,
) -> MetasearchService:
    injector = FaultInjector(
        seed=config.seed,
        mean_latency_s=config.mean_latency_ms / 1000.0,
        latency_jitter=config.latency_jitter,
        error_rate=config.error_rate,
    )
    service_config = ServiceConfig(
        max_workers=workers,
        batch_size=config.batch_size,
        retry=RetryPolicy(
            timeout_s=config.timeout_ms / 1000.0,
            max_retries=config.max_retries,
            backoff_base_s=config.backoff_base_ms / 1000.0,
        ),
        cache_ttl_s=config.cache_ttl_s,
        pool_workers=pool_workers,
        trace=True if trace_sink is not None else None,
    )
    return MetasearchService(
        metasearcher,
        config=service_config,
        injector=injector,
        trace_sink=trace_sink,
    )


def _replay(
    service: MetasearchService,
    stream: list[Query],
    config: BenchServeConfig,
) -> tuple[list[ServedAnswer], float]:
    started = time.perf_counter()
    answers = service.serve_stream(stream, k=config.k, certainty=config.certainty)
    return answers, time.perf_counter() - started


def run_bench_serve(
    config: BenchServeConfig | None = None,
) -> dict[str, object]:
    """Run the serial-vs-concurrent serving benchmark; returns the
    ``bench/v1`` document."""
    config = config or BenchServeConfig()
    if config.metasearcher is None:
        context, metasearcher = build_trained_testbed(
            scale=config.scale,
            seed=config.seed,
            n_train=config.n_train,
            n_test=config.n_test,
            batch_size=config.batch_size,
            train_queries_cap=config.train_queries_cap,
            context=config.context,
        )
    else:
        metasearcher = config.metasearcher
        context = config.context
        if context is None:
            context = build_paper_context(
                PaperSetupConfig(
                    scale=config.scale,
                    seed=config.seed,
                    n_train=config.n_train,
                    n_test=config.n_test,
                )
            )
        if not metasearcher.is_trained:
            cap = config.train_queries_cap
            train = context.train_queries if cap is None else (
                context.train_queries[:cap]
            )
            metasearcher.train(train)
    stream = _build_stream(context.test_queries, config)

    with _service(metasearcher, config, workers=1) as serial_service:
        serial_answers, serial_s = _replay(serial_service, stream, config)
    # The concurrent leg optionally runs its selection stages on the
    # multiprocess pool (``--pool N``); ``identical_selections`` then
    # doubles as a thread-vs-pool identity check. With ``trace_path``
    # set it also runs traced, streaming span records to the NDJSON
    # file the per-tier breakdown is computed from.
    trace_sink = (
        None
        if config.trace_path is None
        else FileTraceSink(config.trace_path)
    )
    with _service(
        metasearcher,
        config,
        workers=config.workers,
        pool_workers=config.pool_workers,
        trace_sink=trace_sink,
    ) as concurrent_service:
        concurrent_answers, concurrent_s = _replay(
            concurrent_service, stream, config
        )
        metrics = concurrent_service.snapshot()
    trace = None
    if trace_sink is not None:
        trace_sink.close()
        trace = {
            "path": config.trace_path,
            "spans": trace_sink.emitted,
            "breakdown": tier_breakdown(load_spans(config.trace_path)),
        }
    results = {
        "databases": len(context.mediator),
        "unique_queries": min(
            config.unique_queries, len(context.test_queries)
        ),
        "serial_s": round(serial_s, 6),
        "concurrent_s": round(concurrent_s, 6),
        "speedup": round(serial_s / concurrent_s, 3),
        "identical_selections": [a.selected for a in serial_answers]
        == [a.selected for a in concurrent_answers],
        "metrics": metrics,
        "trace": trace,
    }
    return bench.report(
        "bench-serve",
        {
            "scale": config.scale,
            "seed": config.seed,
            "queries": config.queries,
            "k": config.k,
            "certainty": config.certainty,
            "batch_size": config.batch_size,
            "workers": config.workers,
            "pool_workers": config.pool_workers,
            "mean_latency_ms": config.mean_latency_ms,
            "error_rate": config.error_rate,
            "timeout_ms": config.timeout_ms,
            "max_retries": config.max_retries,
        },
        results,
        serve_gates(results),
    )


def serve_gates(results: dict[str, object]) -> list[dict[str, object]]:
    """The serial and concurrent legs must select identically."""
    return [
        bench.gate(
            "identical_selections",
            results.get("identical_selections"),
            True,
            "==",
        )
    ]


def _stage_summary(metrics: dict, name: str) -> str | None:
    """One-line median/p95 of a per-stage wall-clock histogram."""
    histogram = metrics.get("histograms", {}).get(name)
    if not histogram or not histogram.get("count"):
        return None
    window = histogram.get("window", {})
    p50, p95 = window.get("p50"), window.get("p95")
    if p50 is None or p95 is None:
        return None
    return f"{name:<21}: {p50:.2f} ms median ({p95:.2f} ms p95)"


def format_bench_serve(document: dict[str, object]) -> str:
    """Human-readable benchmark summary (metrics stay JSON)."""
    config, results = document["config"], document["results"]
    lines = [
        f"databases            : {results['databases']}",
        f"queries              : {config['queries']} "
        f"({results['unique_queries']} unique)",
        f"batch size           : {config['batch_size']}",
        f"serial (1 worker)    : {results['serial_s']:.2f} s",
        f"concurrent ({config['workers']:>2} wkrs) : "
        f"{results['concurrent_s']:.2f} s",
        f"selection pool       : "
        + (
            f"{config['pool_workers']} worker processes"
            if config["pool_workers"]
            else "off (in-process)"
        ),
        f"speedup              : {results['speedup']:.2f}x",
        f"identical selections : {results['identical_selections']}",
    ]
    for stage in ("stage_analyze_ms", "stage_apro_ms", "stage_pool_ms"):
        line = _stage_summary(results["metrics"], stage)
        if line is not None:
            lines.append(line)
    trace = results["trace"]
    if trace is not None:
        lines += [
            "",
            f"per-tier latency breakdown ({trace['spans']} spans "
            f"-> {trace['path']}):",
            format_tier_breakdown(trace["breakdown"]),
        ]
    lines += [
        "",
        "metrics:",
        json.dumps(results["metrics"], indent=2, sort_keys=True),
    ]
    return "\n".join(lines)


@dataclass(frozen=True)
class BenchServeSnapshotConfig:
    """Knobs of the committed serving-throughput snapshot.

    Unlike the classic ``bench-serve`` (which injects probe faults and
    latency to exercise the executor), the snapshot grid measures
    *selection* throughput: fault injection is off and the cache is
    disabled, so every query pays the full CPU cost of RD construction
    and the APro loop and the thread-vs-pool comparison isolates the
    GIL. With no injector, probe results depend only on (query,
    database), so every grid cell is comparable answer-for-answer with
    the serial in-process baseline — identity failures mean a real
    concurrency bug.
    """

    scale: float = 0.05
    seed: int = 2004
    n_train: int = 120
    n_test: int = 60
    queries: int = 48
    unique_queries: int = 24
    k: int = 3
    certainty: float = 0.95
    batch_size: int = 8
    max_workers: int = 8
    pool_sizes: tuple[int, ...] = (0, 1, 2, 4)
    concurrency: tuple[int, ...] = (1, 4)
    train_queries_cap: int | None = 60
    context: object | None = field(default=None, compare=False)
    metasearcher: Metasearcher | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.queries < 1 or self.unique_queries < 1:
            raise ConfigurationError("query counts must be >= 1")
        if not self.pool_sizes or any(p < 0 for p in self.pool_sizes):
            raise ConfigurationError(
                "pool_sizes must be non-empty, entries >= 0"
            )
        if not self.concurrency or any(c < 1 for c in self.concurrency):
            raise ConfigurationError(
                "concurrency must be non-empty, entries >= 1"
            )


def _snapshot_service(
    metasearcher: Metasearcher,
    config: BenchServeSnapshotConfig,
    pool_workers: int,
) -> MetasearchService:
    return MetasearchService(
        metasearcher,
        config=ServiceConfig(
            max_workers=config.max_workers,
            batch_size=config.batch_size,
            cache_enabled=False,
            pool_workers=pool_workers,
        ),
    )


def _replay_concurrent(
    service: MetasearchService,
    stream: list[Query],
    config: BenchServeSnapshotConfig,
    concurrency: int,
) -> tuple[list[ServedAnswer], list[float], float]:
    """Replay *stream* from *concurrency* closed-loop client threads.

    Queries are partitioned round-robin so the answer list stays
    index-aligned with the stream (and therefore with the baseline).
    """
    answers: list[ServedAnswer | None] = [None] * len(stream)
    latencies: list[float] = [0.0] * len(stream)

    def client(offset: int) -> None:
        for i in range(offset, len(stream), concurrency):
            started = time.perf_counter()
            answers[i] = service.serve(
                stream[i], k=config.k, certainty=config.certainty
            )
            latencies[i] = (time.perf_counter() - started) * 1000.0

    wall_started = time.perf_counter()
    if concurrency == 1:
        client(0)
    else:
        threads = [
            threading.Thread(target=client, args=(offset,))
            for offset in range(concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall_s = time.perf_counter() - wall_started
    return answers, latencies, wall_s  # type: ignore[return-value]


def _identical_answers(
    answers: list[ServedAnswer], baseline: list[ServedAnswer]
) -> bool:
    return all(
        answer.selected == reference.selected
        and answer.probe_order == reference.probe_order
        and abs(answer.certainty - reference.certainty) <= 1e-9
        for answer, reference in zip(answers, baseline)
    )


def run_bench_serve_snapshot(
    config: BenchServeSnapshotConfig | None = None,
) -> dict[str, object]:
    """Measure the in-process-vs-pool serving grid; returns the
    ``bench/v1`` document committed as ``BENCH_serve.json``."""
    config = config or BenchServeSnapshotConfig()
    metasearcher = config.metasearcher
    context = config.context
    if metasearcher is None:
        context, metasearcher = build_trained_testbed(
            scale=config.scale,
            seed=config.seed,
            n_train=config.n_train,
            n_test=config.n_test,
            batch_size=config.batch_size,
            train_queries_cap=config.train_queries_cap,
            context=context,
        )
    elif context is None:
        raise ConfigurationError(
            "a prebuilt metasearcher needs its context for test queries"
        )
    unique = context.test_queries[: config.unique_queries]
    if not unique:
        raise ConfigurationError("testbed produced no test queries")
    rng = random.Random(config.seed + 77)
    stream = [rng.choice(unique) for _ in range(config.queries)]

    grid: list[dict] = []
    baseline: list[ServedAnswer] | None = None
    for pool_workers in config.pool_sizes:
        with _snapshot_service(
            metasearcher, config, pool_workers
        ) as service:
            if pool_workers:
                # Spawn (and pay for) the workers before timing starts.
                service.pool.ping()
            for concurrency in config.concurrency:
                answers, latencies, wall_s = _replay_concurrent(
                    service, stream, config, concurrency
                )
                if baseline is None:
                    baseline = answers
                grid.append(
                    {
                        "mode": "pool" if pool_workers else "thread",
                        "pool_workers": pool_workers,
                        "concurrency": concurrency,
                        "queries": len(stream),
                        "wall_s": round(wall_s, 6),
                        "qps": round(len(stream) / wall_s, 3),
                        "latency": bench.latency_summary(latencies),
                        "identical_to_baseline": _identical_answers(
                            answers, baseline
                        ),
                    }
                )

    top = {
        cell["pool_workers"]: cell["qps"]
        for cell in grid
        if cell["concurrency"] == max(config.concurrency)
    }
    results = {
        "grid": grid,
        "pool4_vs_thread_speedup": (
            round(top[4] / top[0], 3) if {0, 4} <= set(top) else None
        ),
    }
    return bench.report(
        "bench-serve-snapshot",
        {
            "scale": config.scale,
            "seed": config.seed,
            "queries": config.queries,
            "unique_queries": len(unique),
            "k": config.k,
            "certainty": config.certainty,
            "batch_size": config.batch_size,
            "max_workers": config.max_workers,
            "pool_sizes": list(config.pool_sizes),
            "concurrency": list(config.concurrency),
            "cache_enabled": False,
            "fault_injection": False,
        },
        results,
        snapshot_gates(results),
    )


def snapshot_gates(results: dict[str, object]) -> list[dict[str, object]]:
    """The verdicts of one serving snapshot.

    Every grid cell must answer identically to the serial in-process
    baseline, on any host. A pool of 4 must reach 2.5x the thread
    tier's QPS at the top concurrency — a scaling claim only a host
    with 4 cores can judge, and only when the grid has both legs.
    """
    grid = results["grid"]
    gates = [
        bench.gate(
            "grid.cells_differing_from_baseline",
            sum(not cell["identical_to_baseline"] for cell in grid),
            0,
            "==",
        )
    ]
    if results["pool4_vs_thread_speedup"] is not None:
        gates.append(
            bench.gate(
                "pool4_vs_thread_qps",
                results["pool4_vs_thread_speedup"],
                2.5,
                ">=",
                min_cores=4,
            )
        )
    return gates


def format_bench_serve_snapshot(document: dict[str, object]) -> str:
    """Human-readable table of the snapshot grid."""
    environment, results = document["environment"], document["results"]
    lines = [
        f"machine              : {environment['cpu_count']} cores, "
        f"{environment['platform']} / python {environment['python']}",
        f"{'mode':<8} {'pool':>4} {'conc':>4} {'wall s':>8} "
        f"{'qps':>8} {'p50 ms':>8} {'p95 ms':>8}  identical",
    ]
    for cell in results["grid"]:
        lines.append(
            f"{cell['mode']:<8} {cell['pool_workers']:>4} "
            f"{cell['concurrency']:>4} {cell['wall_s']:>8.2f} "
            f"{cell['qps']:>8.2f} {cell['latency']['p50_ms']:>8.2f} "
            f"{cell['latency']['p95_ms']:>8.2f}  "
            f"{cell['identical_to_baseline']}"
        )
    speedup = results["pool4_vs_thread_speedup"]
    lines.append(
        "pool4 vs thread      : "
        + (f"{speedup:.2f}x" if speedup is not None else "n/a (no pool-4 leg)")
    )
    return "\n".join(lines)


@dataclass(frozen=True)
class BenchTrainConfig:
    """Knobs of the training benchmark.

    Defaults demonstrate the PR's target: >= 3x wall-clock speedup at 8
    workers over 20 ms injected probe latency, with a byte-identical
    trained model.
    """

    scale: float = 0.05
    seed: int = 2004
    n_train: int = 120
    n_test: int = 10
    train_queries: int = 40
    workers: int = 8
    samples_per_type: int | None = 20
    mean_latency_ms: float = 20.0
    latency_jitter: float = 0.5
    error_rate: float = 0.0
    timeout_ms: float = 100.0
    max_retries: int = 2
    backoff_base_ms: float = 5.0
    context: object | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.train_queries < 1:
            raise ConfigurationError("train_queries must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")


def _train_once(
    context, config: BenchTrainConfig, workers: int
) -> tuple[dict, float, dict[str, object]]:
    summaries = {
        db.name: ExactSummaryBuilder().build(db) for db in context.mediator
    }
    injector = FaultInjector(
        seed=config.seed,
        mean_latency_s=config.mean_latency_ms / 1000.0,
        latency_jitter=config.latency_jitter,
        error_rate=config.error_rate,
    )
    policy = RetryPolicy(
        timeout_s=config.timeout_ms / 1000.0,
        max_retries=config.max_retries,
        backoff_base_s=config.backoff_base_ms / 1000.0,
    )
    with ParallelEDTrainer(
        context.mediator,
        summaries,
        TermIndependenceEstimator(),
        definition=context.config.definition,
        samples_per_type=config.samples_per_type,
        max_workers=workers,
        policy=policy,
        injector=injector,
    ) as trainer:
        queries = context.train_queries[: config.train_queries]
        started = time.perf_counter()
        model = trainer.train(queries)
        elapsed = time.perf_counter() - started
        snapshot = trainer.metrics.snapshot()
    return model.state_dict(), elapsed, snapshot


def run_bench_train(
    config: BenchTrainConfig | None = None,
) -> dict[str, object]:
    """Run the serial-vs-parallel ED-training benchmark; returns the
    ``bench/v1`` document."""
    config = config or BenchTrainConfig()
    context = config.context
    if context is None:
        context = build_paper_context(
            PaperSetupConfig(
                scale=config.scale,
                seed=config.seed,
                n_train=config.n_train,
                n_test=config.n_test,
            )
        )
    serial_state, serial_s, serial_metrics = _train_once(
        context, config, workers=1
    )
    parallel_state, parallel_s, parallel_metrics = _train_once(
        context, config, workers=config.workers
    )
    results = {
        "databases": len(context.mediator),
        "train_queries": min(
            config.train_queries, len(context.train_queries)
        ),
        "serial_s": round(serial_s, 6),
        "parallel_s": round(parallel_s, 6),
        "speedup": round(serial_s / parallel_s, 3),
        "identical_state": json.dumps(serial_state, sort_keys=True)
        == json.dumps(parallel_state, sort_keys=True),
        "serial_probes": int(serial_metrics["counters"]["probes_issued"]),
        "parallel_probes": int(
            parallel_metrics["counters"]["probes_issued"]
        ),
        "metrics": parallel_metrics,
    }
    return bench.report(
        "bench-train",
        {
            "scale": config.scale,
            "seed": config.seed,
            "train_queries": config.train_queries,
            "workers": config.workers,
            "samples_per_type": config.samples_per_type,
            "mean_latency_ms": config.mean_latency_ms,
            "error_rate": config.error_rate,
            "timeout_ms": config.timeout_ms,
            "max_retries": config.max_retries,
        },
        results,
        train_gates(results),
    )


def train_gates(results: dict[str, object]) -> list[dict[str, object]]:
    """Serial and parallel training must yield byte-identical models
    (the speedup is recorded, not gated)."""
    return [
        bench.gate(
            "identical_state", results.get("identical_state"), True, "=="
        )
    ]


def format_bench_train(document: dict[str, object]) -> str:
    """Human-readable training-benchmark summary (metrics stay JSON)."""
    config, results = document["config"], document["results"]
    lines = [
        f"databases            : {results['databases']}",
        f"training queries     : {results['train_queries']}",
        f"serial (1 worker)    : {results['serial_s']:.2f} s "
        f"({results['serial_probes']} probes)",
        f"parallel ({config['workers']:>2} wkrs)   : "
        f"{results['parallel_s']:.2f} s ({results['parallel_probes']} probes)",
        f"speedup              : {results['speedup']:.2f}x",
        f"identical state      : {results['identical_state']}",
        "",
        "metrics:",
        json.dumps(results["metrics"], indent=2, sort_keys=True),
    ]
    return "\n".join(lines)
