"""Command-line interface: ``repro-metasearch``.

Thirteen commands:

* ``demo``        — build a testbed, train, and answer one query
  end-to-end;
* ``fig``         — regenerate one of the paper's figures/tables on the
  spot;
* ``train``       — run the offline phase (optionally in parallel with
  ``--workers`` and checkpointed with ``--checkpoint``/``--resume``,
  see ``docs/TRAINING.md``) and save the trained state to JSON;
* ``serve``       — run a query stream through the concurrent serving
  layer (optionally fault-injected) and dump metrics JSON;
* ``gateway``     — run the asyncio TCP front end over a trained
  service: `gateway/v1` protocol, admission control, coalescing,
  deadlines (see ``docs/GATEWAY.md``);
* ``bench-serve`` — benchmark the serving layer: serial vs concurrent
  executor over a fault-injected testbed (see ``docs/SERVING.md``), or
  with ``--snapshot`` the in-process-vs-pool selection-throughput grid
  written to ``BENCH_serve.json`` (see ``docs/PERFORMANCE.md``);
* ``bench-train`` — benchmark the offline phase: serial vs parallel ED
  training under injected probe latency (see ``docs/TRAINING.md``);
* ``bench-gateway`` — load-test the gateway: coalescing under a
  duplicate burst and clean shedding under overload, with p50/p95/p99
  latency (see ``docs/GATEWAY.md``);
* ``bench-drift`` — replay a topic-shifting corpus against an adapting
  vs. a frozen service and write ``BENCH_drift.json`` (see
  ``docs/ADAPTATION.md``);
* ``cluster``     — run a sharded multi-replica cluster: N subprocess
  replicas behind a consistent-hash router, with an optional shared
  selection-cache tier (see ``docs/CLUSTER.md``);
* ``bench-cluster`` — benchmark the cluster: QPS across 1/2/4
  replicas with answers proven identical to a single node, cursor
  paging, a cross-replica cache-tier hit, and a mid-burst replica
  kill, written to ``BENCH_cluster.json`` (see ``docs/CLUSTER.md``);
* ``bench-scale`` — benchmark selection cost vs federated database
  count: unpruned vs exact bound pruning, with answer-identity proven
  for exact mode, written to ``BENCH_scale.json`` (see
  ``docs/PERFORMANCE.md``);
* ``bench-index`` — judge every committed ``BENCH_*.json`` from its
  host block and recorded gates.

Every ``bench-*`` command records its verdicts as ``bench/v1`` gates
(:mod:`repro.bench`) and exits 3 when any gate is false.

All commands are deterministic for a given ``--seed`` (wall-clock
metrics excepted).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.experiments.ablations import compare_probing_policies
from repro.experiments.harness import evaluate_selection_quality, train_pipeline
from repro.experiments.probing_curves import probing_curves
from repro.experiments.reporting import (
    format_probing_curve,
    format_selection_quality,
    format_table,
    format_threshold_probes,
)
from repro.exceptions import ReproError
from repro.experiments.setup import PaperSetupConfig, build_paper_context
from repro.experiments.threshold_probes import probes_per_threshold

__all__ = ["main", "build_parser"]


def _add_service_arguments(sub: argparse.ArgumentParser) -> None:
    """The serving-layer knobs shared by ``serve`` and ``gateway``."""
    sub.add_argument(
        "--batch", type=int, default=4, help="probes per APro round"
    )
    sub.add_argument(
        "--workers", type=int, default=8, help="probe thread-pool width"
    )
    sub.add_argument(
        "--pool",
        type=int,
        default=None,
        help=(
            "selection-pool worker processes (0 = in-process; default "
            "reads REPRO_POOL_WORKERS)"
        ),
    )
    sub.add_argument(
        "--cache-ttl",
        type=float,
        default=300.0,
        help="selection-cache TTL in seconds (0 disables the cache)",
    )
    sub.add_argument(
        "--latency-ms",
        type=float,
        default=0.0,
        help="injected mean probe latency (0 = none)",
    )
    sub.add_argument(
        "--error-rate",
        type=float,
        default=0.0,
        help="injected probe failure probability",
    )
    sub.add_argument(
        "--adapt",
        action="store_true",
        default=None,
        help=(
            "enable online ED adaptation (observation windows + drift "
            "checks; default reads REPRO_ADAPT)"
        ),
    )
    sub.add_argument(
        "--adapt-window",
        type=int,
        default=256,
        help="serve-time samples retained per database (default 256)",
    )
    sub.add_argument(
        "--adapt-check-every",
        type=int,
        default=64,
        help="observations between drift checks (default 64)",
    )
    sub.add_argument(
        "--adapt-significance",
        type=float,
        default=0.01,
        help="chi-square p-value at or below which a database is "
        "flagged as drifted (default 0.01)",
    )
    sub.add_argument(
        "--adapt-min-samples",
        type=int,
        default=48,
        help="window floor below which a database is never flagged "
        "(default 48)",
    )
    sub.add_argument(
        "--adapt-auto-swap",
        action="store_true",
        help=(
            "hot-swap a refreshed model automatically when drift is "
            "flagged (default: observe and flag only)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-metasearch`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-metasearch",
        description=(
            "Probabilistic metasearching with adaptive probing "
            "(ICDE 2004 reproduction)"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="testbed size multiplier (default 0.1)",
    )
    parser.add_argument(
        "--seed", type=int, default=2004, help="master random seed"
    )
    parser.add_argument(
        "--train-queries",
        type=int,
        default=500,
        help="number of training queries",
    )
    parser.add_argument(
        "--test-queries",
        type=int,
        default=80,
        help="number of evaluation queries",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser(
        "demo", help="train a metasearcher and answer one query"
    )
    demo.add_argument(
        "--query", default="breast cancer chemotherapy", help="query text"
    )
    demo.add_argument("--k", type=int, default=3, help="databases to select")
    demo.add_argument(
        "--certainty",
        type=float,
        default=0.8,
        help="required expected correctness",
    )
    demo.add_argument(
        "--batch",
        type=int,
        default=1,
        help="probes issued per APro round (default 1 = sequential)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve a query stream through the concurrent serving layer",
    )
    serve.add_argument(
        "queries",
        nargs="?",
        default=None,
        help="file with one query per line (default: stdin)",
    )
    serve.add_argument("--k", type=int, default=3, help="databases to select")
    serve.add_argument(
        "--certainty",
        type=float,
        default=0.8,
        help="required expected correctness",
    )
    _add_service_arguments(serve)
    serve.add_argument(
        "--metrics-out",
        default=None,
        help="write the metrics snapshot JSON to this path",
    )

    bench = subparsers.add_parser(
        "bench-serve",
        help="benchmark serial vs concurrent probe execution",
    )
    bench.add_argument(
        "--queries", type=int, default=100, help="stream length"
    )
    bench.add_argument(
        "--unique", type=int, default=60, help="unique queries in the stream"
    )
    bench.add_argument("--k", type=int, default=3)
    bench.add_argument("--certainty", type=float, default=0.95)
    bench.add_argument(
        "--batch", type=int, default=16, help="probes per APro round"
    )
    bench.add_argument(
        "--workers", type=int, default=16, help="concurrent executor width"
    )
    bench.add_argument(
        "--pool",
        type=int,
        default=0,
        help=(
            "selection-pool worker processes for the concurrent leg "
            "(0 = in-process)"
        ),
    )
    bench.add_argument(
        "--latency-ms",
        type=float,
        default=50.0,
        help="injected mean probe latency",
    )
    bench.add_argument(
        "--error-rate",
        type=float,
        default=0.02,
        help="injected probe failure probability",
    )
    bench.add_argument(
        "--timeout-ms",
        type=float,
        default=150.0,
        help="per-probe deadline",
    )
    bench.add_argument(
        "--retries", type=int, default=2, help="retries per probe"
    )
    bench.add_argument(
        "--metrics-out",
        default=None,
        help="write the metrics snapshot JSON to this path",
    )
    bench.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "trace the concurrent leg: write NDJSON span records to "
            "PATH and report a per-tier latency breakdown "
            "(see docs/OBSERVABILITY.md)"
        ),
    )
    bench.add_argument(
        "--snapshot",
        nargs="?",
        const="BENCH_serve.json",
        default=None,
        metavar="PATH",
        help=(
            "instead of the serial-vs-concurrent comparison, measure "
            "the in-process-vs-pool grid (pool sizes x concurrency) and "
            "write the stable-schema snapshot JSON here "
            "(default BENCH_serve.json)"
        ),
    )
    bench.add_argument(
        "--snapshot-pool-sizes",
        default="0,1,2,4",
        help="comma-separated pool sizes for the snapshot grid",
    )
    bench.add_argument(
        "--snapshot-concurrency",
        default="1,4",
        help="comma-separated client concurrency levels for the grid",
    )

    gateway = subparsers.add_parser(
        "gateway",
        help="run the asyncio TCP gateway over a trained service",
    )
    gateway.add_argument(
        "--host", default="127.0.0.1", help="listen address"
    )
    gateway.add_argument(
        "--port", type=int, default=7070, help="listen port (0 = ephemeral)"
    )
    _add_service_arguments(gateway)
    gateway.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="concurrent backend requests",
    )
    gateway.add_argument(
        "--max-queue",
        type=int,
        default=32,
        help="admitted requests allowed to queue (beyond = shed)",
    )
    gateway.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        help="deadline applied to requests without their own (ms)",
    )

    bench_gateway = subparsers.add_parser(
        "bench-gateway",
        help="load-test the gateway (coalescing + load shedding)",
    )
    bench_gateway.add_argument("--k", type=int, default=3)
    bench_gateway.add_argument("--certainty", type=float, default=0.9)
    bench_gateway.add_argument(
        "--batch", type=int, default=16, help="probes per APro round"
    )
    bench_gateway.add_argument(
        "--workers", type=int, default=8, help="backend executor width"
    )
    bench_gateway.add_argument(
        "--pool",
        type=int,
        default=0,
        help="selection-pool worker processes (0 = in-process)",
    )
    bench_gateway.add_argument(
        "--latency-ms",
        type=float,
        default=25.0,
        help="injected mean probe latency",
    )
    bench_gateway.add_argument(
        "--requests",
        type=int,
        default=60,
        help="requests in the coalesce burst",
    )
    bench_gateway.add_argument(
        "--unique",
        type=int,
        default=6,
        help="unique queries in the coalesce burst",
    )
    bench_gateway.add_argument(
        "--shed-requests",
        type=int,
        default=24,
        help="open-loop arrivals in the shed phase",
    )
    bench_gateway.add_argument(
        "--out",
        default="bench_gateway.json",
        help="path of the report JSON (default bench_gateway.json)",
    )
    bench_gateway.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "trace the coalesce phase: write NDJSON span records to "
            "PATH and report a per-tier latency breakdown "
            "(see docs/OBSERVABILITY.md)"
        ),
    )

    cluster = subparsers.add_parser(
        "cluster",
        help="run N replicas behind a consistent-hash router",
    )
    cluster.add_argument(
        "--replicas",
        type=int,
        default=None,
        help=(
            "replica processes to spawn (default reads "
            "REPRO_CLUSTER_REPLICAS, falling back to 2)"
        ),
    )
    cluster.add_argument(
        "--host", default="127.0.0.1", help="router listen address"
    )
    cluster.add_argument(
        "--port",
        type=int,
        default=7071,
        help="router listen port (0 = ephemeral)",
    )
    cluster.add_argument(
        "--batch", type=int, default=16, help="probes per APro round"
    )
    cluster.add_argument(
        "--workers",
        type=int,
        default=4,
        help="per-replica probe thread-pool width",
    )
    cluster.add_argument(
        "--pool",
        type=int,
        default=0,
        help="per-replica selection-pool processes (0 = in-process)",
    )
    cluster.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="per-replica concurrent backend requests",
    )
    cluster.add_argument(
        "--max-queue",
        type=int,
        default=32,
        help="per-replica admitted queue depth (beyond = shed)",
    )
    cluster.add_argument(
        "--no-cache-tier",
        action="store_true",
        help="run without the shared selection-cache tier",
    )
    cluster.add_argument(
        "--cache-tier-address",
        default=None,
        metavar="HOST:PORT",
        help=(
            "point replicas at an externally-run cache tier instead of "
            "owning one"
        ),
    )
    cluster.add_argument(
        "--trace",
        action="store_true",
        help=(
            "mint router.request root spans and serve the collected "
            "cross-process span trees on the router's trace op"
        ),
    )

    bench_cluster = subparsers.add_parser(
        "bench-cluster",
        help=(
            "benchmark cluster scaling, cache-tier sharing, cursors, "
            "and mid-burst failover"
        ),
    )
    bench_cluster.add_argument("--k", type=int, default=3)
    bench_cluster.add_argument("--certainty", type=float, default=0.9)
    bench_cluster.add_argument(
        "--batch", type=int, default=16, help="probes per APro round"
    )
    bench_cluster.add_argument(
        "--unique",
        type=int,
        default=12,
        help="unique queries in each burst",
    )
    bench_cluster.add_argument(
        "--repeats",
        type=int,
        default=6,
        help="times each unique query repeats in a scaling burst",
    )
    bench_cluster.add_argument(
        "--concurrency",
        type=int,
        default=16,
        help="client requests in flight at once",
    )
    bench_cluster.add_argument(
        "--replica-counts",
        default="1,2,4",
        help="comma-separated cluster sizes to measure (default 1,2,4)",
    )
    bench_cluster.add_argument(
        "--failover-requests",
        type=int,
        default=48,
        help="burst length of the replica-kill phase",
    )
    bench_cluster.add_argument(
        "--out",
        default="BENCH_cluster.json",
        help="path of the report JSON (default BENCH_cluster.json)",
    )

    fig = subparsers.add_parser(
        "fig", help="regenerate one paper figure/table"
    )
    fig.add_argument(
        "artifact",
        choices=("15", "16", "17", "policies"),
        help="which evaluation artifact to regenerate",
    )
    fig.add_argument("--k", type=int, default=1)

    train = subparsers.add_parser(
        "train", help="run the offline phase and save trained state"
    )
    train.add_argument("output", help="path of the JSON state file to write")
    train.add_argument(
        "--workers",
        type=int,
        default=1,
        help="training probe thread-pool width (1 = sequential)",
    )
    train.add_argument(
        "--checkpoint",
        default=None,
        help="write periodic training checkpoints to this path",
    )
    train.add_argument(
        "--resume",
        action="store_true",
        help="resume from the --checkpoint file if it exists",
    )
    train.add_argument(
        "--checkpoint-every",
        type=int,
        default=25,
        help="queries between checkpoints (default 25)",
    )

    bench_train = subparsers.add_parser(
        "bench-train",
        help="benchmark serial vs parallel ED training",
    )
    bench_train.add_argument(
        "--queries",
        type=int,
        default=40,
        help="training queries to probe with",
    )
    bench_train.add_argument(
        "--workers", type=int, default=8, help="parallel trainer width"
    )
    bench_train.add_argument(
        "--samples-per-type",
        type=int,
        default=20,
        help="early-stop budget per (database, type) slice",
    )
    bench_train.add_argument(
        "--latency-ms",
        type=float,
        default=20.0,
        help="injected mean probe latency",
    )
    bench_train.add_argument(
        "--error-rate",
        type=float,
        default=0.0,
        help="injected probe failure probability",
    )
    bench_train.add_argument(
        "--timeout-ms",
        type=float,
        default=100.0,
        help="per-probe deadline",
    )
    bench_train.add_argument(
        "--retries", type=int, default=2, help="retries per probe"
    )
    bench_train.add_argument(
        "--metrics-out",
        default=None,
        help="write the metrics snapshot JSON to this path",
    )

    bench_drift = subparsers.add_parser(
        "bench-drift",
        help=(
            "replay a topic-shifting corpus: online adaptation vs. a "
            "frozen model"
        ),
    )
    bench_drift.add_argument("--k", type=int, default=3)
    bench_drift.add_argument(
        "--certainty",
        type=float,
        default=0.5,
        help=(
            "required expected correctness (default 0.5: the "
            "probe-frugal regime where the model carries the answer)"
        ),
    )
    bench_drift.add_argument(
        "--queries-per-phase",
        type=int,
        default=60,
        help="stream length of each phase (pre / post_early / post_late)",
    )
    bench_drift.add_argument(
        "--batch", type=int, default=8, help="probes per APro round"
    )
    bench_drift.add_argument(
        "--max-probes",
        type=int,
        default=None,
        help="hard probe budget per query (default: none)",
    )
    bench_drift.add_argument(
        "--drift-fraction",
        type=float,
        default=0.5,
        help="fraction of databases whose content shifts (default 0.5)",
    )
    bench_drift.add_argument(
        "--out",
        default="BENCH_drift.json",
        help="path of the report JSON (default BENCH_drift.json)",
    )

    bench_scale = subparsers.add_parser(
        "bench-scale",
        help=(
            "benchmark selection cost vs federated database count: "
            "unpruned vs exact pruning"
        ),
    )
    bench_scale.add_argument(
        "--sizes",
        default="64,256,1024",
        help="comma-separated ascending database counts (default 64,256,1024)",
    )
    bench_scale.add_argument("--k", type=int, default=3)
    bench_scale.add_argument("--certainty", type=float, default=0.9)
    bench_scale.add_argument(
        "--queries",
        type=int,
        default=4,
        help="evaluation queries per size (default 4)",
    )
    bench_scale.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timing rounds per size (default 2)",
    )
    bench_scale.add_argument(
        "--train-queries",
        type=int,
        default=60,
        help="training queries per size (default 60)",
    )
    bench_scale.add_argument(
        "--out",
        default="BENCH_scale.json",
        help="path of the report JSON (default BENCH_scale.json)",
    )

    bench_index = subparsers.add_parser(
        "bench-index",
        help=(
            "judge every committed BENCH_*.json report: exit 3 on a "
            "non-bench/v1 file, a report without gates, a false gate, "
            "or a null verdict its host could have judged"
        ),
    )
    bench_index.add_argument(
        "--dir",
        default=".",
        help="directory scanned for BENCH_*.json (default: cwd)",
    )
    bench_index.add_argument(
        "--out",
        default=None,
        help="write the summary JSON here (default: stdout only)",
    )
    return parser


def _context(args: argparse.Namespace):
    print(
        f"Building testbed (scale={args.scale}) and query sets "
        f"({args.train_queries} train / {args.test_queries} test)...",
        flush=True,
    )
    return build_paper_context(
        PaperSetupConfig(
            scale=args.scale,
            seed=args.seed,
            n_train=args.train_queries,
            n_test=args.test_queries,
        )
    )


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.metasearch.metasearcher import Metasearcher, MetasearcherConfig

    context = _context(args)
    searcher = Metasearcher(
        context.mediator,
        MetasearcherConfig(probe_batch_size=args.batch),
        analyzer=context.analyzer,
    )
    print("Training (offline sampling)...", flush=True)
    searcher.train(context.train_queries)
    answer = searcher.search(args.query, k=args.k, certainty=args.certainty)
    print(f"\nQuery     : {args.query!r}")
    print(f"Selected  : {', '.join(answer.selected)}")
    print(f"Certainty : {answer.certainty:.3f} (required {args.certainty})")
    print(f"Probes    : {answer.probes_used}")
    for hit in answer.hits:
        print(f"  {hit.database:<16} doc {hit.doc_id:>6}  score {hit.score:.3f}")
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    context = _context(args)
    print("Training pipeline...", flush=True)
    pipeline = train_pipeline(context)
    if args.artifact == "15":
        results = evaluate_selection_quality(context, pipeline)
        print(format_selection_quality(results))
    elif args.artifact == "16":
        result = probing_curves(context, pipeline, k=args.k, max_probes=6)
        print(format_probing_curve(result))
    elif args.artifact == "17":
        result = probes_per_threshold(context, pipeline, k=args.k)
        print(format_threshold_probes(result))
    else:  # policies ablation
        results = compare_probing_policies(
            context, pipeline, k=args.k, threshold=0.8
        )
        rows = [
            (r.policy, f"{r.avg_probes:.2f}", f"{r.avg_correctness:.3f}")
            for r in results
        ]
        print(format_table(("policy", "avg probes", "realized Cor"), rows))
    return 0


def _read_queries(path: str | None) -> list[str]:
    if path is None:
        return [line.strip() for line in sys.stdin if line.strip()]
    with open(path, encoding="utf-8") as handle:
        return [line.strip() for line in handle if line.strip()]


def _service(args: argparse.Namespace, searcher):
    """The service ``serve`` and ``gateway`` run, from their shared flags."""
    from repro.service.faults import FaultInjector
    from repro.service.server import MetasearchService, ServiceConfig

    injector = None
    if args.latency_ms > 0 or args.error_rate > 0:
        injector = FaultInjector(
            seed=args.seed,
            mean_latency_s=args.latency_ms / 1000.0,
            error_rate=args.error_rate,
        )
    config = ServiceConfig(
        max_workers=args.workers,
        batch_size=args.batch,
        cache_ttl_s=args.cache_ttl if args.cache_ttl > 0 else None,
        cache_enabled=args.cache_ttl > 0,
        pool_workers=args.pool,
        adapt=args.adapt,
        adapt_window=args.adapt_window,
        adapt_check_every=args.adapt_check_every,
        adapt_significance=args.adapt_significance,
        adapt_min_samples=args.adapt_min_samples,
        adapt_auto_swap=args.adapt_auto_swap,
    )
    return MetasearchService(searcher, config=config, injector=injector)


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.metasearch.metasearcher import Metasearcher, MetasearcherConfig

    queries = _read_queries(args.queries)
    if not queries:
        print("no queries to serve", file=sys.stderr)
        return 1
    context = _context(args)
    searcher = Metasearcher(
        context.mediator,
        MetasearcherConfig(probe_batch_size=args.batch),
        analyzer=context.analyzer,
    )
    print("Training (offline sampling)...", flush=True)
    searcher.train(context.train_queries)
    with _service(args, searcher) as service:
        for text in queries:
            answer = service.serve(text, k=args.k, certainty=args.certainty)
            hit = " (cache)" if answer.cache_hit else ""
            print(
                f"{text!r} -> {', '.join(answer.selected)}  "
                f"certainty={answer.certainty:.3f} "
                f"probes={answer.probes} "
                f"{answer.wall_ms:.1f} ms{hit}"
            )
        snapshot = service.snapshot()
    if args.metrics_out:
        _write_metrics(snapshot, args.metrics_out)
    else:
        print("\nmetrics:")
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    import asyncio

    from repro.gateway.gateway import GatewayConfig, MetasearchGateway
    from repro.service.bench import build_trained_testbed

    print("Training (offline sampling)...", flush=True)
    _context_unused, searcher = build_trained_testbed(
        scale=args.scale,
        seed=args.seed,
        n_train=args.train_queries,
        n_test=args.test_queries,
        batch_size=args.batch,
    )
    service = _service(args, searcher)
    gateway = MetasearchGateway(
        service,
        GatewayConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            default_deadline_ms=args.default_deadline_ms,
        ),
    )

    async def run() -> None:
        await gateway.start()
        print(
            f"Gateway listening on {args.host}:{gateway.port} "
            f"(gateway/v1; Ctrl-C to drain and stop)",
            flush=True,
        )
        try:
            await gateway.serve_forever()
        finally:
            await gateway.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nDrained; gateway stopped.")
    finally:
        service.shutdown()
    return 0


def _cmd_bench_gateway(args: argparse.Namespace) -> int:
    from repro.bench import finish
    from repro.gateway.bench import (
        BenchGatewayConfig,
        format_bench_gateway,
        run_bench_gateway,
    )

    print(
        f"Benchmarking gateway (scale={args.scale}, "
        f"{args.requests} coalesce requests / "
        f"{args.shed_requests} shed requests)...",
        flush=True,
    )
    document = run_bench_gateway(
        BenchGatewayConfig(
            scale=args.scale,
            seed=args.seed,
            n_train=args.train_queries,
            n_test=args.test_queries,
            k=args.k,
            certainty=args.certainty,
            batch_size=args.batch,
            workers=args.workers,
            pool_workers=args.pool,
            mean_latency_ms=args.latency_ms,
            coalesce_requests=args.requests,
            coalesce_unique=args.unique,
            shed_requests=args.shed_requests,
            trace_path=args.trace,
        )
    )
    print(format_bench_gateway(document))
    return finish(document, args.out)


def _parse_int_list(raw: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(
            int(part) for part in raw.split(",") if part.strip() != ""
        )
    except ValueError:
        raise ReproError(
            f"{flag} must be a comma-separated integer list, got {raw!r}"
        ) from None


def _write_metrics(metrics: dict, path: str | None) -> None:
    """``--metrics-out``: the metrics snapshot JSON, when asked for."""
    if path:
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
        print(f"Metrics written to {path}")


def _cmd_bench_serve_snapshot(args: argparse.Namespace) -> int:
    from repro.bench import finish
    from repro.service.bench import (
        BenchServeSnapshotConfig,
        format_bench_serve_snapshot,
        run_bench_serve_snapshot,
    )

    pool_sizes = _parse_int_list(
        args.snapshot_pool_sizes, "--snapshot-pool-sizes"
    )
    concurrency = _parse_int_list(
        args.snapshot_concurrency, "--snapshot-concurrency"
    )
    print(
        f"Measuring serving snapshot grid (scale={args.scale}, "
        f"{args.queries} queries, pool sizes {list(pool_sizes)}, "
        f"concurrency {list(concurrency)})...",
        flush=True,
    )
    document = run_bench_serve_snapshot(
        BenchServeSnapshotConfig(
            scale=args.scale,
            seed=args.seed,
            n_train=args.train_queries,
            n_test=args.test_queries,
            queries=args.queries,
            unique_queries=args.unique,
            k=args.k,
            certainty=args.certainty,
            batch_size=args.batch,
            max_workers=args.workers,
            pool_sizes=pool_sizes,
            concurrency=concurrency,
        )
    )
    print(format_bench_serve_snapshot(document))
    return finish(document, args.snapshot)


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.bench import finish
    from repro.service.bench import (
        BenchServeConfig,
        format_bench_serve,
        run_bench_serve,
    )

    if args.snapshot is not None:
        return _cmd_bench_serve_snapshot(args)
    print(
        f"Benchmarking serving layer (scale={args.scale}, "
        f"{args.queries} queries, {args.workers} workers)...",
        flush=True,
    )
    document = run_bench_serve(
        BenchServeConfig(
            scale=args.scale,
            seed=args.seed,
            n_train=args.train_queries,
            n_test=args.test_queries,
            queries=args.queries,
            unique_queries=args.unique,
            k=args.k,
            certainty=args.certainty,
            batch_size=args.batch,
            workers=args.workers,
            mean_latency_ms=args.latency_ms,
            error_rate=args.error_rate,
            timeout_ms=args.timeout_ms,
            max_retries=args.retries,
            pool_workers=args.pool,
            trace_path=args.trace,
        )
    )
    print(format_bench_serve(document))
    _write_metrics(document["results"]["metrics"], args.metrics_out)
    return finish(document)


def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio

    from repro import knobs
    from repro.cluster import LocalCluster, ReplicaSpec, RouterConfig

    replicas = knobs.cluster_replicas() if args.replicas is None else args.replicas
    spec = ReplicaSpec(
        scale=args.scale,
        seed=args.seed,
        n_train=args.train_queries,
        n_test=args.test_queries,
        batch_size=args.batch,
        max_workers=args.workers,
        pool_workers=args.pool,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
    )

    async def run() -> None:
        print(
            f"Starting {replicas} replica(s) (scale={args.scale}, "
            f"each rebuilds identical trained state)...",
            flush=True,
        )
        async with LocalCluster(
            replicas=replicas,
            spec=spec,
            cache_tier=not args.no_cache_tier,
            cache_tier_address=args.cache_tier_address,
            router_config=RouterConfig(
                host=args.host, port=args.port, trace=args.trace
            ),
        ) as cluster:
            tier = (
                "no cache tier"
                if cluster.tier is None and args.cache_tier_address is None
                else f"cache tier at "
                f"{args.cache_tier_address or cluster.tier.address}"
            )
            print(
                f"Router listening on {cluster.host}:{cluster.port} "
                f"(gateway/v1; {replicas} replicas, {tier}; "
                f"Ctrl-C to drain and stop)",
                flush=True,
            )
            assert cluster.router is not None
            await cluster.router.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nDrained; cluster stopped.")
    return 0


def _cmd_bench_cluster(args: argparse.Namespace) -> int:
    from repro.bench import finish
    from repro.cluster import (
        BenchClusterConfig,
        format_bench_cluster,
        run_bench_cluster,
    )

    counts = _parse_int_list(args.replica_counts, "--replica-counts")
    print(
        f"Benchmarking cluster (scale={args.scale}, replica counts "
        f"{list(counts)}, {args.unique}x{args.repeats} requests per "
        f"burst)...",
        flush=True,
    )
    document = run_bench_cluster(
        BenchClusterConfig(
            scale=args.scale,
            seed=args.seed,
            n_train=args.train_queries,
            n_test=args.test_queries,
            k=args.k,
            certainty=args.certainty,
            batch_size=args.batch,
            unique_queries=args.unique,
            repeats=args.repeats,
            concurrency=args.concurrency,
            replica_counts=counts,
            failover_requests=args.failover_requests,
        )
    )
    print(format_bench_cluster(document))
    return finish(document, args.out)


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.metasearch.metasearcher import Metasearcher, MetasearcherConfig

    context = _context(args)
    searcher = Metasearcher(
        context.mediator,
        MetasearcherConfig(
            train_workers=args.workers,
            train_checkpoint_every=args.checkpoint_every,
        ),
        analyzer=context.analyzer,
    )
    mode = (
        "sequential"
        if args.workers == 1
        else f"parallel, {args.workers} workers"
    )
    print(f"Training (offline sampling, {mode})...", flush=True)
    searcher.train(
        context.train_queries,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )
    searcher.save(args.output)
    probes = context.mediator.total_probes()
    print(f"Saved trained state to {args.output} ({probes} offline probes).")
    return 0


def _cmd_bench_train(args: argparse.Namespace) -> int:
    from repro.bench import finish
    from repro.service.bench import (
        BenchTrainConfig,
        format_bench_train,
        run_bench_train,
    )

    print(
        f"Benchmarking ED training (scale={args.scale}, "
        f"{args.queries} queries, {args.workers} workers)...",
        flush=True,
    )
    document = run_bench_train(
        BenchTrainConfig(
            scale=args.scale,
            seed=args.seed,
            n_train=args.train_queries,
            n_test=args.test_queries,
            train_queries=args.queries,
            workers=args.workers,
            samples_per_type=args.samples_per_type,
            mean_latency_ms=args.latency_ms,
            error_rate=args.error_rate,
            timeout_ms=args.timeout_ms,
            max_retries=args.retries,
        )
    )
    print(format_bench_train(document))
    _write_metrics(document["results"]["metrics"], args.metrics_out)
    return finish(document)


def _cmd_bench_drift(args: argparse.Namespace) -> int:
    from repro.adapt.bench import (
        BenchDriftConfig,
        format_bench_drift,
        run_bench_drift,
    )
    from repro.bench import finish

    print(
        f"Benchmarking drift adaptation (scale={args.scale}, "
        f"{args.queries_per_phase} queries/phase, "
        f"drift fraction {args.drift_fraction})...",
        flush=True,
    )
    document = run_bench_drift(
        BenchDriftConfig(
            scale=args.scale,
            seed=args.seed,
            n_train=args.train_queries,
            n_test=args.test_queries,
            queries_per_phase=args.queries_per_phase,
            k=args.k,
            certainty=args.certainty,
            batch_size=args.batch,
            max_probes=args.max_probes,
            drift_fraction=args.drift_fraction,
        )
    )
    print(format_bench_drift(document))
    return finish(document, args.out)


def _cmd_bench_scale(args: argparse.Namespace) -> int:
    from repro.bench import finish
    from repro.experiments.bench_scale import (
        BenchScaleConfig,
        format_bench_scale,
        run_bench_scale,
    )

    sizes = _parse_int_list(args.sizes, "--sizes")
    print(
        f"Benchmarking selection at scale (sizes={list(sizes)}, "
        f"k={args.k}, t={args.certainty})...",
        flush=True,
    )
    document = run_bench_scale(
        BenchScaleConfig(
            sizes=sizes,
            seed=args.seed,
            n_train=args.train_queries,
            queries=args.queries,
            repeats=args.repeats,
            k=args.k,
            certainty=args.certainty,
        )
    )
    print(format_bench_scale(document))
    return finish(document, args.out)


def _cmd_bench_index(args: argparse.Namespace) -> int:
    from repro.bench import finish
    from repro.experiments.bench_index import (
        build_bench_index,
        format_bench_index,
    )

    document = build_bench_index(args.dir)
    print(format_bench_index(document))
    return finish(document, args.out)


#: The arguments naming a file a command writes: (dest, flag).
_OUTPUT_ARGUMENTS = (
    ("output", "output"),
    ("checkpoint", "--checkpoint"),
    ("out", "--out"),
    ("metrics_out", "--metrics-out"),
    ("trace", "--trace"),
    ("snapshot", "--snapshot"),
)


def _check_output_paths(args: argparse.Namespace) -> None:
    """Refuse an output path whose directory is missing, before the run.

    A write into a missing directory would otherwise fail only after
    the training or benchmark it reports on.
    """
    for dest, flag in _OUTPUT_ARGUMENTS:
        path = getattr(args, dest, None)
        # ``cluster --trace`` is an on/off flag, not a path.
        if not isinstance(path, str):
            continue
        directory = Path(path).parent
        if not directory.is_dir():
            raise ReproError(
                f"{flag} {path}: directory {directory} does not exist"
            )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "fig": _cmd_fig,
        "train": _cmd_train,
        "serve": _cmd_serve,
        "gateway": _cmd_gateway,
        "bench-serve": _cmd_bench_serve,
        "bench-train": _cmd_bench_train,
        "bench-gateway": _cmd_bench_gateway,
        "bench-drift": _cmd_bench_drift,
        "cluster": _cmd_cluster,
        "bench-cluster": _cmd_bench_cluster,
        "bench-scale": _cmd_bench_scale,
        "bench-index": _cmd_bench_index,
    }
    try:
        _check_output_paths(args)
        return handlers[args.command](args)
    except (ReproError, OSError) as error:
        # A bad path (query file, --out, a train output) is bad input
        # like an invalid config value: a one-line error, not a
        # traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
