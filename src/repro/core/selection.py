"""RD-based database selection (paper §3.3, §6.2).

The selector turns a query into one RD per database (estimate → query
type → ED → RD) and returns the k-set with the highest expected
correctness — no probing involved. It is both the paper's "RD-based, no
probing" method and the starting state of the adaptive-probing loop.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.backend import ArrayBackend
from repro.core.query_types import QueryTypeClassifier
from repro.core.relevancy import RelevancyDistribution, derive_rd, derive_rds
from repro.core.topk import CorrectnessMetric, TopKComputer
from repro.core.training import ErrorModel
from repro.exceptions import SelectionError
from repro.hiddenweb.database import RelevancyDefinition
from repro.hiddenweb.mediator import Mediator
from repro.stats.distribution import DiscreteDistribution
from repro.summaries.estimators import RelevancyEstimator
from repro.summaries.summary import ContentSummary
from repro.summaries.zero_index import CertainZeroIndex
from repro.types import Query

__all__ = ["SelectionResult", "RDBasedSelector"]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selection: the set, its certainty, and the RDs."""

    indices: tuple[int, ...]
    names: tuple[str, ...]
    expected_correctness: float
    computer: TopKComputer

    @property
    def k(self) -> int:
        """Size of the answer set."""
        return len(self.indices)


class RDBasedSelector:
    """Probability-aware database selection.

    Parameters
    ----------
    mediator:
        The mediated databases (selection itself never probes them).
    summaries:
        Per-database content summaries.
    estimator:
        Point estimator r̂ whose errors the model corrects.
    error_model:
        Trained per-(database, query-type) error distributions.
    classifier:
        The query-type decision tree (must match the one used to train).
    definition:
        Relevancy definition for derived RDs.
    """

    def __init__(
        self,
        mediator: Mediator,
        summaries: Mapping[str, ContentSummary],
        estimator: RelevancyEstimator,
        error_model: ErrorModel,
        classifier: QueryTypeClassifier | None = None,
        definition: RelevancyDefinition = RelevancyDefinition.DOCUMENT_FREQUENCY,
    ) -> None:
        missing = [db.name for db in mediator if db.name not in summaries]
        if missing:
            raise SelectionError(f"missing summaries for databases: {missing}")
        self._mediator = mediator
        self._summaries = dict(summaries)
        self._estimator = estimator
        self._error_model = error_model
        self._classifier = classifier or QueryTypeClassifier()
        self._definition = definition
        self._names = [db.name for db in mediator]
        self._positions = {name: i for i, name in enumerate(self._names)}
        self._zero_index = CertainZeroIndex(
            [self._summaries[name] for name in self._names], definition
        )

    def with_error_model(self, error_model: ErrorModel) -> "RDBasedSelector":
        """This selector over *error_model*, sharing everything else.

        The mediator, summaries and certain-zero index do not depend on
        the error model, so a model swap reuses them instead of
        rebuilding the index.
        """
        clone = copy.copy(self)
        clone._error_model = error_model
        return clone

    @property
    def mediator(self) -> Mediator:
        """The mediated databases."""
        return self._mediator

    @property
    def definition(self) -> RelevancyDefinition:
        """Relevancy definition the selector operates under."""
        return self._definition

    @property
    def summaries(self) -> Mapping[str, ContentSummary]:
        """Per-database content summaries (read-only view)."""
        return dict(self._summaries)

    @property
    def estimator(self) -> RelevancyEstimator:
        """The point estimator r̂."""
        return self._estimator

    @property
    def error_model(self) -> ErrorModel:
        """The trained error model."""
        return self._error_model

    @property
    def classifier(self) -> QueryTypeClassifier:
        """The query-type decision tree."""
        return self._classifier

    # -- RD construction ----------------------------------------------------------

    def estimate(self, database_name: str, query: Query) -> float:
        """r̂(db, q) for one database."""
        return self._estimator.estimate(self._summaries[database_name], query)

    def nonzero(self, query: Query) -> np.ndarray:
        """Ascending mediation indices whose r(db, q) is not provably 0.

        An exact summary with a zero-df query term proves r = 0
        (conjunctive semantics); every other database is a candidate
        (see :class:`~repro.summaries.zero_index.CertainZeroIndex`).
        Read-only.
        """
        return self._zero_index.nonzero(query)

    def build_rd(self, database_name: str, query: Query) -> RelevancyDistribution:
        """The relevancy distribution of one database for *query*.

        Short-circuits: a database :meth:`nonzero` excludes yields an
        impulse at zero without any ED. A database with no usable ED
        falls back to trusting the estimate (impulse at r̂) — the
        behaviour of a plain estimator.
        """
        summary = self._summaries[database_name]
        if self._positions[database_name] not in self.nonzero(query):
            return DiscreteDistribution.impulse(0.0)
        estimate = self._estimator.estimate(summary, query)
        query_type = self._classifier.classify(query, estimate)
        ed = self._error_model.lookup(database_name, query_type)
        if ed is None:
            return DiscreteDistribution.impulse(self._point_value(estimate))
        return derive_rd(
            estimate,
            ed,
            definition=self._definition,
            estimate_floor=self._error_model.estimate_floor,
        )

    def build_rds(
        self,
        query: Query,
        backend: "str | ArrayBackend | None" = None,
        indices: "Sequence[int] | None" = None,
    ) -> list[RelevancyDistribution]:
        """RDs of every database, in mediation order.

        Only the :meth:`nonzero` candidates are visited: every other
        slot holds one shared ``impulse(0.0)`` (distributions are
        immutable and APro replaces slots rather than changing them,
        and at federated scale most databases are certain zeros for
        any one query). The candidates' "no usable ED" short-circuit
        runs first; the remaining ED→RD derivations go through one
        :func:`~repro.core.relevancy.derive_rds` call — one batched
        kernel on a vectorized backend, the per-database route on the
        ``python`` oracle — so the result matches the :meth:`build_rd`
        loop bitwise on every backend.

        ``indices`` restricts construction further to those mediation
        indices: the other slots get the same shared zero impulse so the
        list keeps its length-n index math. This is what makes a hard
        candidate cut (``APro(... keep=...)``, the prefilter tier)
        sublinear per query — the caller guarantees the placeholder
        slots are never consulted.
        """
        zero = DiscreteDistribution.impulse(0.0)
        rds: list[RelevancyDistribution] = [zero] * len(self._names)
        visit = self.nonzero(query)
        if indices is not None:
            visit = np.intersect1d(visit, np.asarray(indices, dtype=np.intp))
        pending: list[tuple[int, float, object]] = []
        for idx in visit.tolist():
            name = self._names[idx]
            estimate = self._estimator.estimate(self._summaries[name], query)
            query_type = self._classifier.classify(query, estimate)
            ed = self._error_model.lookup(name, query_type)
            if ed is None:
                rds[idx] = DiscreteDistribution.impulse(
                    self._point_value(estimate)
                )
                continue
            pending.append((idx, estimate, ed))
        derived = derive_rds(
            [estimate for _idx, estimate, _ed in pending],
            [ed for _idx, _estimate, ed in pending],
            definition=self._definition,
            estimate_floor=self._error_model.estimate_floor,
            backend=backend,
        )
        for (idx, _estimate, _ed), rd in zip(pending, derived):
            rds[idx] = rd
        return rds

    def _point_value(self, estimate: float) -> float:
        if self._definition is RelevancyDefinition.DOCUMENT_FREQUENCY:
            return float(max(0, round(estimate)))
        return min(1.0, max(0.0, estimate))

    # -- selection ---------------------------------------------------------------

    def select(
        self,
        query: Query,
        k: int,
        metric: CorrectnessMetric = CorrectnessMetric.ABSOLUTE,
    ) -> SelectionResult:
        """Select the k-set with maximal expected correctness (no probes)."""
        computer = TopKComputer(self.build_rds(query), k)
        indices, expected = computer.best_set(metric)
        return SelectionResult(
            indices=indices,
            names=tuple(self._mediator[i].name for i in indices),
            expected_correctness=expected,
            computer=computer,
        )
