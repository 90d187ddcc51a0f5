"""The paper's contribution: probabilistic relevancy + adaptive probing.

Pipeline: the estimator's relative error on each (database, query-type)
pair is learned offline as an :class:`ErrorDistribution`; at query time
the point estimate r̂ and the ED combine into a
:class:`RelevancyDistribution`; expected correctness of any candidate
answer set is computed exactly from the RDs; and the :class:`APro` loop
probes databases (greedy usefulness policy) until the user-required
certainty is met.
"""

from repro.core.backend import (
    ArrayBackend,
    available_backends,
    default_backend_name,
    get_backend,
)
from repro.core.correctness import (
    GoldenStandard,
    absolute_correctness,
    partial_correctness,
    true_topk,
)
from repro.core.errors import DEFAULT_ERROR_EDGES, ErrorDistribution, relative_error
from repro.core.policies import (
    GreedyUsefulnessPolicy,
    LookaheadPolicy,
    MaxUncertaintyPolicy,
    ProbePolicy,
    RandomPolicy,
)
from repro.core.probing import APro, ProbeSession
from repro.core.query_types import QueryType, QueryTypeClassifier
from repro.core.relevancy import PackedRDs, RelevancyDistribution, derive_rd
from repro.core.selection import RDBasedSelector, SelectionResult
from repro.core.topk import CorrectnessMetric, TopKComputer
from repro.core.training import EDTable, EDTrainer, ErrorModel

__all__ = [
    "APro",
    "ArrayBackend",
    "CorrectnessMetric",
    "DEFAULT_ERROR_EDGES",
    "EDTable",
    "EDTrainer",
    "ErrorDistribution",
    "ErrorModel",
    "GoldenStandard",
    "GreedyUsefulnessPolicy",
    "LookaheadPolicy",
    "MaxUncertaintyPolicy",
    "PackedRDs",
    "ProbePolicy",
    "ProbeSession",
    "QueryType",
    "QueryTypeClassifier",
    "RDBasedSelector",
    "RandomPolicy",
    "RelevancyDistribution",
    "SelectionResult",
    "TopKComputer",
    "absolute_correctness",
    "available_backends",
    "default_backend_name",
    "derive_rd",
    "get_backend",
    "partial_correctness",
    "relative_error",
    "true_topk",
]
