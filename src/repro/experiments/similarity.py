"""The document-similarity relevancy track (paper §2.1, second bullet).

The paper's experiments use the document-frequency definition but state
that all techniques apply to the document-similarity definition as well
(r(db, q) = cosine similarity of the database's best document). This
driver runs the Fig. 15 comparison under that definition — baseline
ranking by the max-similarity estimate vs. RD-based selection on
similarity-valued RDs — closing the loop on the paper's claim.
"""

from __future__ import annotations

from repro.core.correctness import GoldenStandard
from repro.core.topk import CorrectnessMetric
from repro.experiments.harness import (
    SelectionQualityResult,
    evaluate_selector_fn,
    train_pipeline,
)
from repro.experiments.setup import ExperimentContext
from repro.hiddenweb.database import RelevancyDefinition
from repro.summaries.estimators import MaxSimilarityEstimator

__all__ = ["similarity_selection_quality"]


def similarity_selection_quality(
    context: ExperimentContext,
    k_values: tuple[int, ...] = (1, 3),
    samples_per_type: int | None = 50,
    num_queries: int | None = None,
) -> list[SelectionQualityResult]:
    """Fig. 15-style table under the document-similarity definition."""
    definition = RelevancyDefinition.DOCUMENT_SIMILARITY
    pipeline = train_pipeline(
        context,
        estimator=MaxSimilarityEstimator(),
        samples_per_type=samples_per_type,
        definition=definition,
    )
    golden = GoldenStandard(context.mediator, definition)
    queries = context.test_queries[:num_queries]
    results: list[SelectionQualityResult] = []
    for k in k_values:
        for method, select in (
            ("max-similarity estimator (baseline)", pipeline.baseline.select),
            (
                "RD-based, no probing",
                lambda q, kk: pipeline.rd_selector.select(
                    q, kk, CorrectnessMetric.ABSOLUTE
                ).names,
            ),
        ):
            results.append(
                evaluate_selector_fn(
                    context, method, select, k, queries=queries, golden=golden
                )
            )
    return results
