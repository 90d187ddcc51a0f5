"""Content summaries and estimation-based relevancy estimators.

A content summary is the classic per-database statistic — (term, document
frequency) pairs plus the database size — that metasearchers keep locally
(GlOSS, CORI, STARTS). Builders produce summaries either exactly (the
publisher exports statistics) or approximately via query-based sampling.
Estimators turn a summary plus a query into an estimated relevancy r̂.
"""

from repro.summaries.builder import ExactSummaryBuilder, SampledSummaryBuilder
from repro.summaries.estimators import (
    CoriEstimator,
    GlossEstimator,
    MaxSimilarityEstimator,
    RelevancyEstimator,
    TermIndependenceEstimator,
)
from repro.summaries.summary import ContentSummary
from repro.summaries.zero_index import CertainZeroIndex

__all__ = [
    "CertainZeroIndex",
    "ContentSummary",
    "CoriEstimator",
    "ExactSummaryBuilder",
    "GlossEstimator",
    "MaxSimilarityEstimator",
    "RelevancyEstimator",
    "SampledSummaryBuilder",
    "TermIndependenceEstimator",
]
