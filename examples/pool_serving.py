"""Serving with the multiprocess selection tier.

Trains a small health testbed, then serves the same deterministic
query stream twice — in-process and on a `SelectionPool` of worker
processes — and shows that the pool changes throughput accounting
(`pool_dispatch`, `stage_pool_ms`) but not a single answer: same
selections, same probe orders, same certainties.

Run:  python examples/pool_serving.py

Environment knobs (used by CI to smoke-run at a tiny scale):
REPRO_EXAMPLE_SCALE, REPRO_EXAMPLE_TRAIN, REPRO_POOL_WORKERS (the pool
size). REPRO_POOL_WORKERS is the variable `ServiceConfig` reads, but
this example defaults it to 2 where `ServiceConfig` defaults it to 0
(no pool), and passes the value explicitly. The knob table is
"Environment knobs" in docs/API.md.

See "Execution tiers" in docs/PERFORMANCE.md for when the pool wins:
threads overlap probe I/O, processes parallelize the CPU-bound
RD/APro math across queries.
"""

from __future__ import annotations

import os

from repro import (
    Mediator,
    Metasearcher,
    MetasearcherConfig,
    MetasearchService,
    ServiceConfig,
    build_health_testbed,
)
from repro.corpus import default_topic_registry
from repro.corpus.zipf import ZipfVocabulary
from repro.querylog import QueryTraceGenerator
from repro.text.analyzer import Analyzer

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "0.1"))
N_TRAIN = int(os.environ.get("REPRO_EXAMPLE_TRAIN", "300"))
POOL_WORKERS = int(os.environ.get("REPRO_POOL_WORKERS", "2"))
N_SERVE = 12


def main() -> None:
    analyzer = Analyzer()
    print("Indexing the health/science/news testbed...")
    mediator = Mediator.from_documents(
        build_health_testbed(scale=SCALE), analyzer=analyzer
    )
    trace = QueryTraceGenerator(
        default_topic_registry(seed=2004),
        ZipfVocabulary(4000, seed=2005),
        analyzer=analyzer,
        seed=17,
    )
    searcher = Metasearcher(
        mediator, MetasearcherConfig(samples_per_type=50), analyzer=analyzer
    )
    print(f"Training on {N_TRAIN} trace queries...")
    searcher.train(trace.generate(N_TRAIN))
    queries = list(trace.generate(N_SERVE))

    def serve_all(pool_workers: int):
        config = ServiceConfig(
            max_workers=4,
            batch_size=2,
            cache_enabled=False,
            pool_workers=pool_workers,
        )
        with MetasearchService(searcher, config=config) as service:
            answers = [
                service.serve(q, k=3, certainty=0.9) for q in queries
            ]
            counters = service.metrics.snapshot()["counters"]
        return answers, counters

    print(f"\nServing {N_SERVE} queries in-process...")
    baseline, _ = serve_all(pool_workers=0)
    print(f"Serving the same {N_SERVE} on a {POOL_WORKERS}-worker pool...")
    pooled, counters = serve_all(pool_workers=POOL_WORKERS)

    identical = all(
        a.selected == b.selected
        and a.probe_order == b.probe_order
        and abs(a.certainty - b.certainty) <= 1e-9
        for a, b in zip(baseline, pooled)
    )
    print(f"\n  answers bit-identical across tiers: {identical}")
    print(f"  pool_dispatch:       {counters['pool_dispatch']}")
    print(f"  pool_fallback_total: {counters['pool_fallback_total']}")
    for answer in pooled[:3]:
        print(
            f"  {' '.join(answer.query.terms)!r}: "
            f"{', '.join(answer.selected)} "
            f"(certainty {answer.certainty:.2f}, {answer.probes} probes)"
        )
    if not identical:
        raise SystemExit("pool answers diverged from in-process answers")


if __name__ == "__main__":
    main()
