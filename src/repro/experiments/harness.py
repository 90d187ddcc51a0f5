"""Shared evaluation loops: selection quality over a test set (Fig. 15).

Evaluates any selector — estimation-based baselines and the RD-based
method — over the test queries, producing the Avg(Cor_a) / Avg(Cor_p)
rows of the paper's Fig. 15 table.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.core.correctness import GoldenStandard
from repro.core.selection import RDBasedSelector
from repro.core.topk import CorrectnessMetric
from repro.core.training import EDTrainer, ErrorModel
from repro.experiments.setup import ExperimentContext
from repro.hiddenweb.database import RelevancyDefinition
from repro.metasearch.baselines import EstimationBasedSelector
from repro.summaries.builder import ExactSummaryBuilder
from repro.summaries.estimators import (
    RelevancyEstimator,
    TermIndependenceEstimator,
)
from repro.summaries.summary import ContentSummary
from repro.types import Query

__all__ = [
    "SelectionQualityResult",
    "TrainedPipeline",
    "train_pipeline",
    "evaluate_selector_fn",
    "evaluate_selection_quality",
]

#: A selector under evaluation: query, k -> selected database names.
SelectorFn = Callable[[Query, int], Sequence[str]]


@dataclass(frozen=True)
class SelectionQualityResult:
    """One Fig. 15 cell group: a method's average correctness at one k."""

    method: str
    k: int
    avg_absolute: float
    avg_partial: float
    num_queries: int


@dataclass
class TrainedPipeline:
    """Summaries + error model + selectors trained on one context."""

    summaries: dict[str, ContentSummary]
    error_model: ErrorModel
    rd_selector: RDBasedSelector
    baseline: EstimationBasedSelector
    estimator: RelevancyEstimator


def train_pipeline(
    context: ExperimentContext,
    estimator: RelevancyEstimator | None = None,
    samples_per_type: int | None = 50,
    classifier=None,
    definition: RelevancyDefinition | None = None,
    summaries: dict[str, ContentSummary] | None = None,
) -> TrainedPipeline:
    """Train the error model on Q_train and build both selectors.

    *summaries* default to exact ones built here; *definition* defaults
    to the context's relevancy definition.
    """
    estimator = estimator or TermIndependenceEstimator()
    definition = definition or context.config.definition
    if summaries is None:
        builder = ExactSummaryBuilder()
        summaries = {db.name: builder.build(db) for db in context.mediator}
    trainer = EDTrainer(
        mediator=context.mediator,
        summaries=summaries,
        estimator=estimator,
        classifier=classifier,
        definition=definition,
        samples_per_type=samples_per_type,
    )
    error_model = trainer.train(context.train_queries)
    rd_selector = RDBasedSelector(
        mediator=context.mediator,
        summaries=summaries,
        estimator=estimator,
        error_model=error_model,
        classifier=classifier,
        definition=definition,
    )
    baseline = EstimationBasedSelector(context.mediator, summaries, estimator)
    return TrainedPipeline(
        summaries=summaries,
        error_model=error_model,
        rd_selector=rd_selector,
        baseline=baseline,
        estimator=estimator,
    )


def evaluate_selector_fn(
    context: ExperimentContext,
    method: str,
    select: SelectorFn,
    k: int,
    queries: Sequence[Query] | None = None,
    golden: GoldenStandard | None = None,
) -> SelectionQualityResult:
    """Average (tie-tolerant) correctness of *select* over the test set,
    scored against *golden* (default: the context's)."""
    queries = list(queries if queries is not None else context.test_queries)
    golden = golden if golden is not None else context.golden
    total_abs = 0.0
    total_part = 0.0
    for query in queries:
        names = select(query, k)
        cor_a, cor_p = golden.score(query, names, k)
        total_abs += cor_a
        total_part += cor_p
    count = max(len(queries), 1)
    return SelectionQualityResult(
        method=method,
        k=k,
        avg_absolute=total_abs / count,
        avg_partial=total_part / count,
        num_queries=len(queries),
    )


def evaluate_selection_quality(
    context: ExperimentContext,
    pipeline: TrainedPipeline | None = None,
    k_values: Sequence[int] = (1, 3),
    metric: CorrectnessMetric = CorrectnessMetric.ABSOLUTE,
) -> list[SelectionQualityResult]:
    """The full Fig. 15 table: baseline vs. RD-based for each k."""
    pipeline = pipeline or train_pipeline(context)
    results: list[SelectionQualityResult] = []
    for k in k_values:
        results.append(
            evaluate_selector_fn(
                context,
                "term-independence estimator (baseline)",
                pipeline.baseline.select,
                k,
            )
        )
        results.append(
            evaluate_selector_fn(
                context,
                "RD-based, no probing",
                lambda query, kk: pipeline.rd_selector.select(
                    query, kk, metric
                ).names,
                k,
            )
        )
    return results
