"""``bench-scale``: selection cost versus federated database count.

The paper's testbed has 20 databases; a federated deployment mediates
hundreds to thousands. This benchmark grows a synthetic federation
(64 → 256 → 1024 databases by default), trains one metasearcher per
size, and times the same query workload through two selection paths:

* ``unpruned`` — the classic full-width RD/APro loop;
* ``exact`` — bound-based candidate pruning (:mod:`repro.core.pruning`),
  answer-identical by construction and verified per size here.

The federation is deliberately heterogeneous: each topic gets a couple
of strong, focused databases and a long tail of small diffuse ones —
the regime where adding databases should *not* add selection cost,
because bounds prove the tail out before any belief math runs.

Two workloads per size, because correctness and scaling answer
different questions:

* **Natural runs** (threshold-driven, the product path) supply the
  identity evidence — exact mode must reproduce the unpruned
  selections, probe trajectories, and certainties.
* **Fixed-budget runs** (``force_probes == max_probes``) supply the
  wall-clock numbers. Probe count per query is the workload's own
  hardness and grows with federation size (more near-ties need more
  probes to certify); pinning the budget isolates the per-query
  selection machinery.

:func:`scale_gates` judges a run: the identity gates are deterministic
and the exact-mode speedup at the largest size is a paired ratio (each
round times both variants on the same query), so every gate is judged
on any host.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import bench
from repro.corpus.generator import DatabaseSpec, DocumentGenerator
from repro.corpus.topics import TopicRegistry, default_topic_registry
from repro.corpus.zipf import ZipfVocabulary
from repro.exceptions import ConfigurationError
from repro.hiddenweb.mediator import Mediator
from repro.metasearch.metasearcher import Metasearcher, MetasearcherConfig
from repro.text.analyzer import Analyzer
from repro.types import Query

__all__ = [
    "BenchScaleConfig",
    "scale_specs",
    "run_bench_scale",
    "scale_gates",
    "format_bench_scale",
]

#: Identity tolerance for certainties (matches the backend/incremental
#: equality contract): exact-mode runs must agree with unpruned runs to
#: this bound at every size.
CERTAINTY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class BenchScaleConfig:
    """Knobs of the scale benchmark.

    ``sizes`` must be ascending; the growth figures compare the first
    and last entries. The remaining defaults are calibrated so the full
    default run finishes in a few minutes on one core.
    """

    sizes: tuple[int, ...] = (64, 256, 1024)
    seed: int = 2004
    n_train: int = 60
    samples_per_type: int = 8
    queries: int = 4
    repeats: int = 2
    k: int = 3
    certainty: float = 0.9
    probe_budget: int = 8
    background_vocab_size: int = 1500
    min_speedup: float = 2.0

    def __post_init__(self) -> None:
        if len(self.sizes) < 2 or any(
            b <= a for a, b in zip(self.sizes, self.sizes[1:])
        ):
            raise ConfigurationError(
                f"sizes must be ascending with >= 2 entries, "
                f"got {self.sizes}"
            )
        if self.sizes[0] < 2 * len(default_topic_registry(seed=self.seed)):
            raise ConfigurationError(
                f"smallest size {self.sizes[0]} must cover every topic "
                f"at least twice"
            )
        if self.queries < 1 or self.repeats < 1 or self.n_train < 1:
            raise ConfigurationError("counts must be >= 1")
        if self.k < 1:
            raise ConfigurationError("need k >= 1")
        if self.probe_budget < 1:
            raise ConfigurationError("probe_budget must be >= 1")
        if not 0.0 <= self.certainty <= 1.0:
            raise ConfigurationError("certainty must be in [0, 1]")


def scale_specs(
    n_databases: int,
    registry: TopicRegistry,
    seed: int,
) -> list[DatabaseSpec]:
    """*n_databases* heterogeneous recipes cycling the topic catalogue.

    Rank 0 of each topic is a large focused database, rank 1 a medium
    one, and every later rank a small diffuse mixture — a couple of
    strong candidates per topic plus a long weak tail, the realistic
    shape of a growing federation (and the regime where bound pruning
    proves the tail out).
    """
    topics = registry.names()
    specs: list[DatabaseSpec] = []
    for i in range(n_databases):
        dominant = topics[i % len(topics)]
        rank = i // len(topics)
        near = topics[(i + 3) % len(topics)]
        far = topics[(i + 7) % len(topics)]
        if rank == 0:
            size, mixture = 90, {dominant: 9.0, near: 1.0}
        elif rank == 1:
            size, mixture = 45, {dominant: 6.0, near: 2.0, far: 1.0}
        else:
            size = max(12, 30 - 2 * rank)
            mixture = {dominant: 2.0, near: 2.0, far: 1.5}
        specs.append(
            DatabaseSpec(
                name=f"db{i:04d}",
                size=size,
                topic_mixture=mixture,
                background_fraction=0.45,
                mean_length=24,
                seed=seed + 7000 + i,
            )
        )
    return specs


def _build_mediator(
    n_databases: int, config: BenchScaleConfig, shared: dict
) -> Mediator:
    generator = DocumentGenerator(shared["registry"], shared["background"])
    corpora = {
        spec.name: generator.generate(spec)
        for spec in scale_specs(
            n_databases, shared["registry"], config.seed
        )
    }
    return Mediator.from_documents(corpora, analyzer=shared["analyzer"])


def _topic_queries(
    count: int,
    shared: dict,
    rng: np.random.Generator,
    width: int = 3,
) -> list[Query]:
    """Deterministic topical keyword queries over the anchor vocabulary."""
    registry: TopicRegistry = shared["registry"]
    analyzer: Analyzer = shared["analyzer"]
    names = registry.names()
    out: list[Query] = []
    seen: set[tuple[str, ...]] = set()
    while len(out) < count:
        topic = registry[names[int(rng.integers(len(names)))]]
        picked = rng.choice(
            topic.anchors, size=min(width, len(topic.anchors)), replace=False
        )
        terms = tuple(
            dict.fromkeys(
                term for word in picked for term in analyzer.analyze(word)
            )
        )
        if terms and terms not in seen:
            seen.add(terms)
            out.append(Query(terms=terms))
    return out


def _identity(sessions_a, sessions_b) -> tuple[bool, bool, float]:
    """(same selections, same probe trajectories, max certainty Δ)."""
    same_selections = True
    same_orders = True
    max_delta = 0.0
    for a, b in zip(sessions_a, sessions_b):
        if a.final.names != b.final.names:
            same_selections = False
        if [(r.index, r.observed) for r in a.records] != [
            (r.index, r.observed) for r in b.records
        ]:
            same_orders = False
        max_delta = max(
            max_delta,
            abs(
                a.final.expected_correctness
                - b.final.expected_correctness
            ),
        )
    return same_selections, same_orders, max_delta


def run_bench_scale(
    config: BenchScaleConfig | None = None,
) -> dict[str, object]:
    """Run the scale benchmark; returns the ``bench/v1`` document."""
    config = config or BenchScaleConfig()
    registry = default_topic_registry(seed=config.seed)
    shared = {
        "registry": registry,
        "background": ZipfVocabulary(
            config.background_vocab_size, seed=config.seed + 1
        ),
        "analyzer": Analyzer(),
    }
    rng = np.random.default_rng(config.seed + 11)
    train_queries = _topic_queries(config.n_train, shared, rng)
    eval_queries = _topic_queries(config.queries, shared, rng)

    sizes_out: list[dict[str, object]] = []
    for n_databases in config.sizes:
        mediator = _build_mediator(n_databases, config, shared)
        base = Metasearcher(
            mediator,
            MetasearcherConfig(
                samples_per_type=config.samples_per_type,
                prune_mode="off",
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
        # Natural (threshold-driven) runs: the product path, used for
        # the identity evidence.
        natural = {
            name: [
                searcher.select(
                    query, k=config.k, certainty=config.certainty
                )
                for query in eval_queries
            ]
            for name, searcher in runners.items()
        }
        same_sel, same_ord, max_delta = _identity(
            natural["unpruned"], natural["exact"]
        )
        # Fixed-budget runs: per-query wall-clock with the probe count
        # pinned, the variants interleaved on each query, so the
        # numbers measure the selection machinery rather than the
        # workload's own hardness growth.
        samples: dict[str, list[float]] = {name: [] for name in runners}
        for query in eval_queries:
            fns = {
                name: (
                    lambda searcher=searcher, query=query: searcher.select(
                        query,
                        k=config.k,
                        certainty=config.certainty,
                        max_probes=config.probe_budget,
                        force_probes=config.probe_budget,
                    )
                )
                for name, searcher in runners.items()
            }
            for name, values in bench.time_interleaved(
                fns, config.repeats
            ).items():
                samples[name] += values
        sizes_out.append(
            {
                "databases": n_databases,
                "timing_ms": {
                    name: bench.latency_summary(values)
                    for name, values in samples.items()
                },
                "speedup_exact": bench.paired_ratio(
                    samples["unpruned"], samples["exact"]
                ),
                "identical_selections": same_sel,
                "identical_probe_orders": same_ord,
                "max_certainty_delta": max_delta,
                "probe_budget": config.probe_budget,
                "natural_probes_per_query": round(
                    sum(s.num_probes for s in natural["unpruned"])
                    / len(eval_queries),
                    2,
                ),
                "pruned_mean": {
                    "exact": round(
                        sum(s.pruned_databases for s in natural["exact"])
                        / len(eval_queries),
                        1,
                    )
                },
            }
        )

    results = {
        "sizes": sizes_out,
        "growth": {
            "span": config.sizes[-1] / config.sizes[0],
            "p50_ratio_last_over_first": {
                name: round(
                    sizes_out[-1]["timing_ms"][name]["p50_ms"]
                    / sizes_out[0]["timing_ms"][name]["p50_ms"],
                    3,
                )
                for name in runners
            },
        },
    }
    report_config = {
        "sizes": list(config.sizes),
        "seed": config.seed,
        "n_train": config.n_train,
        "samples_per_type": config.samples_per_type,
        "queries": config.queries,
        "repeats": config.repeats,
        "k": config.k,
        "certainty": config.certainty,
        "probe_budget": config.probe_budget,
        "min_speedup": config.min_speedup,
    }
    return bench.report(
        "bench-scale",
        report_config,
        results,
        scale_gates(results, report_config),
    )


def scale_gates(
    results: dict[str, object], config: dict[str, object]
) -> list[dict[str, object]]:
    """The verdicts of one bench-scale run.

    Per size, exact mode must reproduce the unpruned selections, probe
    orders and certainties (to ``CERTAINTY_TOLERANCE``); exact mode's
    speedup at the largest size is a paired unpruned/exact ratio on one
    host — all judged on any host.
    """
    gates: list[dict[str, object]] = []
    for entry in results["sizes"]:
        n = entry["databases"]
        gates += [
            bench.gate(
                f"{n}db.exact.identical_selections",
                entry["identical_selections"],
                True,
                "==",
            ),
            bench.gate(
                f"{n}db.exact.identical_probe_orders",
                entry["identical_probe_orders"],
                True,
                "==",
            ),
            bench.gate(
                f"{n}db.exact.max_certainty_delta",
                entry["max_certainty_delta"],
                CERTAINTY_TOLERANCE,
                "<=",
            ),
        ]
    return gates + [
        bench.gate(
            "exact.speedup_at_max_size",
            results["sizes"][-1]["speedup_exact"],
            config["min_speedup"],
            ">=",
        ),
    ]


def format_bench_scale(document: dict[str, object]) -> str:
    """Human-readable rendering of a bench-scale report."""
    results = document["results"]
    lines = [
        "bench-scale: selection cost vs federated database count",
        f"  probe budget: {document['config']['probe_budget']} "
        f"probes/query (timing workload pinned across sizes)",
        "",
        "   size     unpruned        exact  speedup  pruned(exact)",
    ]
    for entry in results["sizes"]:
        timing = entry["timing_ms"]
        lines.append(
            f"  {entry['databases']:>5}"
            f"  {timing['unpruned']['p50_ms']:>9.1f}ms"
            f"  {timing['exact']['p50_ms']:>9.1f}ms"
            f"  {entry['speedup_exact']:>6.2f}x"
            f"  {entry['pruned_mean']['exact']:>9.1f}"
        )
    growth = results["growth"]
    ratios = growth["p50_ratio_last_over_first"]
    lines.append(
        f"  growth over {growth['span']}x span: unpruned "
        f"{ratios['unpruned']}x, exact {ratios['exact']}x"
    )
    return "\n".join(lines)
