"""RD-based database selection (paper §3.3, §6.2).

The selector turns a query into one RD per database (estimate → query
type → ED → RD) and returns the k-set with the highest expected
correctness — no probing involved. It is both the paper's "RD-based, no
probing" method and the starting state of the adaptive-probing loop.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from collections.abc import Mapping

import numpy as np

from repro.core.backend import ArrayBackend, get_backend
from repro.core.query_types import QueryTypeClassifier
from repro.core.relevancy import (
    PackedRDs,
    RelevancyDistribution,
    derive_packed,
    derive_rd,
    segment_index,
)
from repro.core.topk import CorrectnessMetric, TopKComputer
from repro.core.training import EDTable, ErrorModel
from repro.exceptions import SelectionError
from repro.hiddenweb.database import RelevancyDefinition
from repro.hiddenweb.mediator import Mediator
from repro.stats.distribution import DiscreteDistribution
from repro.summaries.estimators import (
    RelevancyEstimator,
    TermIndependenceEstimator,
)
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
        self._ordered = [self._summaries[name] for name in self._names]
        self._sizes = np.array([float(s.size) for s in self._ordered])
        self._zero_index = CertainZeroIndex(self._ordered, definition)
        self._table = error_model.compile(self._names, self._classifier)

    def with_error_model(self, error_model: ErrorModel) -> "RDBasedSelector":
        """This selector over *error_model*, sharing everything else.

        The mediator, summaries and certain-zero index do not depend on
        the error model, so a model swap reuses them instead of
        rebuilding the index; only the compiled ED table is rebuilt.
        """
        clone = copy.copy(self)
        clone._error_model = error_model
        clone._table = error_model.compile(clone._names, clone._classifier)
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
        if self._positions[database_name] not in self.nonzero(query):
            return DiscreteDistribution.impulse(0.0)
        return self._candidate_rd(database_name, query)

    def build_rds(
        self,
        query: Query,
        backend: "str | ArrayBackend | None" = None,
    ) -> PackedRDs:
        """RDs of every database, in mediation order, as one :class:`PackedRDs`.

        Only the :meth:`nonzero` candidates are visited: every other
        item reads as one shared ``impulse(0.0)`` (at federated scale
        most databases are certain zeros for any one query). APro
        assigns observed impulses into the returned sequence, so each
        call returns a fresh one.

        On a vectorized backend the candidates go through array passes,
        whatever the estimator: estimates, estimate bands, the compiled
        ED table's slots and one batched
        :func:`~repro.core.relevancy.derive_packed`. The ``python``
        oracle builds each candidate's RD as :meth:`build_rd` does
        (``estimate``, ``classify``, ``lookup``,
        :func:`~repro.core.relevancy.derive_rd`). Both equal the
        :meth:`build_rd` loop bitwise.
        """
        candidates = self.nonzero(query)
        if get_backend(backend).vectorized:
            rows, rds = self._table_rds(query, candidates)
        else:
            rows, rds = candidates, PackedRDs.of(
                self._candidate_rd(self._names[i], query)
                for i in candidates.tolist()
            )
        return PackedRDs.scattered(len(self._names), rows, rds)

    def _candidate_rd(
        self, database_name: str, query: Query
    ) -> RelevancyDistribution:
        """A candidate's RD: estimate → query type → ED → RD.

        With no usable ED, an impulse at the estimate's point value.
        """
        estimate = self._estimator.estimate(
            self._summaries[database_name], query
        )
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

    def _table_rds(
        self, query: Query, candidates: np.ndarray
    ) -> tuple[np.ndarray, PackedRDs]:
        """``(rows, rds)``: the candidates' RDs from array passes.

        The term-independence estimate multiplies ``df / size`` into
        ``float(size)`` once per query term, in query order — the
        scalar estimator's arithmetic, so the same bits; any other
        estimator is called once per candidate. Candidates without a
        usable ED come last, as impulses at their point values.
        """
        ordered = [self._ordered[i] for i in candidates.tolist()]
        if type(self._estimator) is TermIndependenceEstimator:
            sizes = self._sizes[candidates]
            estimates = sizes.copy()
            for term in query.terms:
                frequencies = np.fromiter(
                    (s.document_frequency(term) for s in ordered),
                    dtype=np.float64,
                    count=len(ordered),
                )
                estimates *= frequencies / sizes
        else:
            estimates = np.fromiter(
                (self._estimator.estimate(s, query) for s in ordered),
                dtype=np.float64,
                count=len(ordered),
            )
        table = self._compiled_table()
        ids = table.slot[
            candidates,
            table.term_slot[self._classifier.term_count_of(query)],
            self._classifier.bands_of(estimates),
        ]
        usable = ids >= 0
        if not usable.all():
            unusable = ~usable
            points = [
                self._point_value(float(e)) for e in estimates[unusable]
            ]
            candidates = np.concatenate(
                (candidates[usable], candidates[unusable])
            )
            ids, estimates = ids[usable], estimates[usable]
        else:
            points = []
        index, bounds = segment_index(table.starts, ids)
        values, probs, starts = derive_packed(
            estimates,
            np.diff(bounds),
            table.values[index],
            table.probs[index],
            self._definition,
            self._error_model.estimate_floor,
        )
        if points:
            values = np.concatenate((values, points))
            probs = np.concatenate((probs, np.ones(len(points))))
            starts = np.concatenate(
                (starts, starts[-1] + np.arange(1, len(points) + 1))
            )
        return candidates, PackedRDs(
            values, probs, starts, np.arange(len(candidates))
        )

    def _compiled_table(self) -> EDTable:
        """The compiled ED table, recompiled if the model observed since."""
        table = self._table
        if table.version != self._error_model.version:
            table = self._table = self._error_model.compile(
                self._names, self._classifier
            )
        return table

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
