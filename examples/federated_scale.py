"""Selection at federated scale: exact candidate pruning.

The paper's testbed mediates 20 databases; this example grows a
heterogeneous 128-database federation and answers the same queries
two ways — the classic full-width RD/APro loop and bound-based exact
pruning (identical answers, provably) — then tabulates latency,
pruned counts, and agreement. The committed ``BENCH_scale.json``
carries the gated version of this experiment at 64/256/1024 databases;
see "Selection at scale" in docs/PERFORMANCE.md.

Run:  python examples/federated_scale.py

Environment knobs (used by CI to smoke-run at a tiny scale):
REPRO_EXAMPLE_DBS, REPRO_EXAMPLE_TRAIN, REPRO_EXAMPLE_QUERIES.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.corpus.topics import default_topic_registry
from repro.corpus.zipf import ZipfVocabulary
from repro.experiments.bench_scale import (
    BenchScaleConfig,
    _build_mediator,
    _topic_queries,
)
from repro.experiments.reporting import format_table
from repro.metasearch.metasearcher import Metasearcher, MetasearcherConfig
from repro.text.analyzer import Analyzer


def main() -> None:
    n_databases = int(os.environ.get("REPRO_EXAMPLE_DBS", "128"))
    n_train = int(os.environ.get("REPRO_EXAMPLE_TRAIN", "60"))
    n_queries = int(os.environ.get("REPRO_EXAMPLE_QUERIES", "6"))
    config = BenchScaleConfig(
        sizes=(34, max(n_databases, 35)), n_train=n_train
    )

    print(f"Building a {n_databases}-database federation...")
    shared = {
        "registry": default_topic_registry(seed=config.seed),
        "background": ZipfVocabulary(
            config.background_vocab_size, seed=config.seed + 1
        ),
        "analyzer": Analyzer(),
    }
    mediator = _build_mediator(n_databases, config, shared)
    rng = np.random.default_rng(config.seed + 11)
    train_queries = _topic_queries(config.n_train, shared, rng)
    queries = _topic_queries(n_queries, shared, rng)

    print(f"Training once ({config.n_train} queries), cloning for exact...")
    base = Metasearcher(
        mediator,
        MetasearcherConfig(
            samples_per_type=config.samples_per_type, prune_mode="off"
        ),
        analyzer=shared["analyzer"],
    )
    base.train(train_queries)
    runners = {
        "unpruned": base,
        "exact": Metasearcher.from_trained(
            base,
            MetasearcherConfig(
                samples_per_type=config.samples_per_type,
                prune_mode="exact",
            ),
        ),
    }

    rows = []
    reference: list[tuple[str, ...]] = []
    for name, searcher in runners.items():
        times, pruned, agree = [], [], 0
        for i, query in enumerate(queries):
            started = time.perf_counter()
            session = searcher.select(query, k=3, certainty=0.9)
            times.append((time.perf_counter() - started) * 1000.0)
            pruned.append(session.pruned_databases)
            if name == "unpruned":
                reference.append(session.final.names)
            elif session.final.names == reference[i]:
                agree += 1
        rows.append(
            (
                name,
                f"{np.median(times):.1f}",
                f"{np.mean(pruned):.1f}",
                "—" if name == "unpruned" else f"{agree}/{len(queries)}",
            )
        )

    print()
    print(f"k=3, certainty 0.9, {len(queries)} queries:")
    print(
        format_table(
            (
                "mode",
                "median ms/query",
                "databases pruned",
                "selections == unpruned",
            ),
            rows,
        )
    )
    print(
        "\nExact pruning is answer-identical by construction (the bench "
        "gates it).\nIt is plain config — REPRO_PREFILTER=exact turns it "
        "on anywhere."
    )


if __name__ == "__main__":
    main()
