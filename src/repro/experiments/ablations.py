"""Ablations of the design choices DESIGN.md calls out.

* probe-policy comparison — greedy usefulness vs. random vs.
  max-uncertainty (and, on toy instances, the exact optimal policy);
* query-type tree ablation — full tree vs. no estimate split vs. the
  paper's single-threshold tree;
* ED sampling-size impact on end-to-end selection correctness;
* the Fig. 3 demonstration that uniform errors keep ranking correct
  while non-uniform errors break it.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.core.policies import (
    GreedyUsefulnessPolicy,
    MaxUncertaintyPolicy,
    ProbePolicy,
    RandomPolicy,
)
from repro.core.probing import APro
from repro.core.query_types import QueryTypeClassifier
from repro.core.topk import CorrectnessMetric
from repro.experiments.harness import (
    TrainedPipeline,
    evaluate_selector_fn,
    train_pipeline,
)
from repro.experiments.setup import ExperimentContext

__all__ = [
    "PolicyComparisonResult",
    "compare_probing_policies",
    "QueryTypeAblationResult",
    "query_type_ablation",
    "SummaryAblationResult",
    "sampled_summary_ablation",
    "TrainingSizeAblationResult",
    "training_size_ablation",
]


@dataclass(frozen=True)
class PolicyComparisonResult:
    """Probe efficiency of one policy at one threshold."""

    policy: str
    threshold: float
    k: int
    avg_probes: float
    avg_correctness: float
    num_queries: int


def compare_probing_policies(
    context: ExperimentContext,
    pipeline: TrainedPipeline | None = None,
    k: int = 1,
    threshold: float = 0.8,
    metric: CorrectnessMetric = CorrectnessMetric.ABSOLUTE,
    num_queries: int | None = 80,
    policies: Sequence[tuple[str, ProbePolicy]] | None = None,
) -> list[PolicyComparisonResult]:
    """Average probes needed per policy to reach *threshold*.

    The paper's claim: the greedy policy reaches the same certainty with
    fewer probes than naive orders.
    """
    pipeline = pipeline or train_pipeline(context)
    queries = context.test_queries
    if num_queries is not None:
        queries = queries[:num_queries]
    if policies is None:
        policies = (
            ("greedy-usefulness", GreedyUsefulnessPolicy()),
            ("random", RandomPolicy(seed=7)),
            ("max-uncertainty", MaxUncertaintyPolicy()),
        )
    results = []
    for name, policy in policies:
        apro = APro(pipeline.rd_selector, policy=policy)
        probes = []
        correct = []
        for query in queries:
            session = apro.run(query, k=k, threshold=threshold, metric=metric)
            probes.append(session.num_probes)
            cor_a, cor_p = context.golden.score(query, session.final.names, k)
            correct.append(
                cor_a if metric is CorrectnessMetric.ABSOLUTE else cor_p
            )
        results.append(
            PolicyComparisonResult(
                policy=name,
                threshold=threshold,
                k=k,
                avg_probes=float(np.mean(probes)),
                avg_correctness=float(np.mean(correct)),
                num_queries=len(queries),
            )
        )
    return results


@dataclass(frozen=True)
class QueryTypeAblationResult:
    """Selection quality of one query-type tree variant."""

    variant: str
    k: int
    avg_absolute: float
    avg_partial: float


def query_type_ablation(
    context: ExperimentContext,
    k_values: Sequence[int] = (1, 3),
    metric: CorrectnessMetric = CorrectnessMetric.ABSOLUTE,
) -> list[QueryTypeAblationResult]:
    """RD-based selection under different query-type trees.

    Variants: the default multi-band tree, the paper's single θ = 10
    split, and no estimate split at all (per-term-count EDs only) —
    quantifying §4.1's claim that estimate-based separation matters.
    """
    variants = (
        ("multi-band (default)", QueryTypeClassifier()),
        (
            "paper single threshold",
            QueryTypeClassifier(
                estimate_thresholds=QueryTypeClassifier.PAPER_THRESHOLDS
            ),
        ),
        ("no estimate split", QueryTypeClassifier(split_on_estimate=False)),
    )
    results = []
    for name, classifier in variants:
        pipeline = train_pipeline(context, classifier=classifier)
        for k in k_values:
            quality = evaluate_selector_fn(
                context,
                name,
                lambda query, kk: pipeline.rd_selector.select(
                    query, kk, metric
                ).names,
                k,
            )
            results.append(
                QueryTypeAblationResult(
                    variant=name,
                    k=k,
                    avg_absolute=quality.avg_absolute,
                    avg_partial=quality.avg_partial,
                )
            )
    return results


@dataclass(frozen=True)
class SummaryAblationResult:
    """Selection quality with exact vs. sampled content summaries."""

    summaries: str
    method: str
    k: int
    avg_absolute: float
    avg_partial: float


def sampled_summary_ablation(
    context: ExperimentContext,
    k: int = 1,
    target_documents: int = 60,
    metric: CorrectnessMetric = CorrectnessMetric.ABSOLUTE,
    num_queries: int | None = None,
) -> list[SummaryAblationResult]:
    """Exact-export vs. query-based-sampling summaries (§2.2 realism).

    The paper (via [8]/Callan-style sampling) assumes summaries may be
    approximate; this ablation retrains the whole pipeline on summaries
    built by sampling each database through its own search interface and
    compares downstream selection quality. Expected shape: sampling
    degrades both methods, and the probabilistic model keeps (or grows)
    its edge because it learns the *combined* estimation error.
    """
    from repro.summaries.builder import SampledSummaryBuilder
    from repro.summaries.estimators import TermIndependenceEstimator

    queries = context.test_queries
    if num_queries is not None:
        queries = queries[:num_queries]
    results: list[SummaryAblationResult] = []
    estimator = TermIndependenceEstimator()

    seed_terms: list[str] = []
    for topic in context.registry.in_domain("health"):
        seed_terms.extend(context.analyzer.analyze(topic.words[0]))

    sampler = SampledSummaryBuilder(
        seed_terms=seed_terms,
        target_documents=target_documents,
        max_probes=target_documents * 4,
        analyzer=context.analyzer,
    )
    for label, summaries in (
        ("exact", None),
        (
            f"sampled({target_documents} docs)",
            {db.name: sampler.build(db) for db in context.mediator},
        ),
    ):
        pipeline = train_pipeline(
            context, estimator=estimator, summaries=summaries
        )
        for method, select in (
            ("baseline", pipeline.baseline.select),
            (
                "RD-based",
                lambda q, kk, p=pipeline: p.rd_selector.select(
                    q, kk, metric
                ).names,
            ),
        ):
            quality = evaluate_selector_fn(
                context, method, select, k, queries=queries
            )
            results.append(
                SummaryAblationResult(
                    summaries=label,
                    method=method,
                    k=k,
                    avg_absolute=quality.avg_absolute,
                    avg_partial=quality.avg_partial,
                )
            )
    return results


@dataclass(frozen=True)
class TrainingSizeAblationResult:
    """Selection quality as a function of per-type training samples."""

    samples_per_type: int
    k: int
    avg_absolute: float
    avg_partial: float


def training_size_ablation(
    context: ExperimentContext,
    sample_caps: Sequence[int] = (5, 10, 20, 50),
    k: int = 1,
    metric: CorrectnessMetric = CorrectnessMetric.ABSOLUTE,
) -> list[TrainingSizeAblationResult]:
    """End-to-end effect of the ED sampling size (§4.2, consequence)."""
    results = []
    for cap in sample_caps:
        pipeline = train_pipeline(context, samples_per_type=cap)
        quality = evaluate_selector_fn(
            context,
            f"samples_per_type={cap}",
            lambda query, kk: pipeline.rd_selector.select(
                query, kk, metric
            ).names,
            k,
        )
        results.append(
            TrainingSizeAblationResult(
                samples_per_type=cap,
                k=k,
                avg_absolute=quality.avg_absolute,
                avg_partial=quality.avg_partial,
            )
        )
    return results
