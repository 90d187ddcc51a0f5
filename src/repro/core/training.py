"""Offline ED training by database sampling (paper §4, Example 2).

Before user queries arrive, the metasearcher issues training queries to
every database, compares each observed true relevancy against the
estimator's prediction, and accumulates the relative errors into one
:class:`~repro.core.errors.ErrorDistribution` per (database, query-type)
pair. The resulting :class:`ErrorModel` serves EDs at query time, with a
pooled-fallback chain for sparsely sampled types.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.errors import (
    DEFAULT_ERROR_EDGES,
    DEFAULT_ESTIMATE_FLOOR,
    ErrorDistribution,
    relative_error,
)
from repro.core.query_types import QueryType, QueryTypeClassifier
from repro.exceptions import TrainingError
from repro.hiddenweb.database import RelevancyDefinition
from repro.hiddenweb.mediator import Mediator
from repro.summaries.estimators import RelevancyEstimator
from repro.summaries.summary import ContentSummary
from repro.summaries.zero_index import CertainZeroIndex
from repro.types import Query

__all__ = [
    "ERROR_MODEL_STATE_VERSION",
    "EDTable",
    "ErrorModel",
    "EDTrainer",
    "PlannedProbe",
]

#: Schema version written into :meth:`ErrorModel.state_dict`. Bump on
#: any incompatible change; :meth:`ErrorModel.from_state_dict` accepts
#: version-less dicts (the pre-versioning format) as version 1.
ERROR_MODEL_STATE_VERSION = 1


@dataclass(frozen=True, slots=True)
class PlannedProbe:
    """One probe the training loop has decided to issue.

    Planning is separated from probing so that executing a query's
    probes concurrently (see
    :class:`repro.service.training.ParallelEDTrainer`) cannot change
    *which* probes are issued: within one query no database's
    observation can alter another database's skip decision (the
    early-stop check reads only the exact (database, type) slice), so a
    plan computed up front is identical to the paper's interleaved
    probe-then-decide loop.
    """

    index: int
    database_name: str
    estimate: float
    query_type: QueryType


@dataclass(frozen=True)
class EDTable:
    """An :class:`ErrorModel`'s fallback chain, resolved for every slot.

    ``slot[d, c, b]`` is the id of the ED ``lookup`` returns for the
    d-th database (mediation order), the c-th of the classifier's term
    counts (``term_slot`` maps a term count to c) and estimate band b;
    -1 where it returns ``None``. ED e's atoms (its
    ``to_distribution()``) are ``values[starts[e]:starts[e + 1]]`` with
    ``probs`` alongside, stored once however many slots share it.
    ``version`` is the model's :attr:`ErrorModel.version` when it was
    compiled. Built by :meth:`ErrorModel.compile`.
    """

    slot: np.ndarray
    term_slot: dict[int, int]
    starts: np.ndarray
    values: np.ndarray
    probs: np.ndarray
    version: int


class ErrorModel:
    """Trained error distributions with a pooled-fallback hierarchy.

    Lookup order for (database, query-type):

    1. the exact (database, type) ED, if it has >= *min_samples*;
    2. the database's ED pooled over term counts but keeping the
       estimate band (a 3-term high-estimate query errs like a 2-term
       high-estimate one far more than like a low-estimate one);
    3. the database's pooled ED over all types;
    4. the global pooled ED over all databases and types;
    5. ``None`` — the caller should fall back to trusting the estimate.
    """

    def __init__(
        self,
        edges: Sequence[float] = DEFAULT_ERROR_EDGES,
        min_samples: int = 5,
        estimate_floor: float = DEFAULT_ESTIMATE_FLOOR,
    ) -> None:
        if min_samples < 1:
            raise TrainingError(f"min_samples must be >= 1, got {min_samples}")
        self._edges = tuple(edges)
        self._min_samples = min_samples
        self.estimate_floor = estimate_floor
        self._per_type: dict[tuple[str, QueryType], ErrorDistribution] = {}
        self._per_flag: dict[tuple[str, int], ErrorDistribution] = {}
        self._per_db: dict[str, ErrorDistribution] = {}
        self._global = ErrorDistribution(self._edges)
        self._version = 0

    # -- training-side interface ------------------------------------------------

    @property
    def version(self) -> int:
        """Count of :meth:`observe` calls: an :class:`EDTable` compiled at
        another version may no longer match :meth:`lookup`."""
        return self._version

    def observe(
        self, database_name: str, query_type: QueryType, error: float
    ) -> None:
        """Record one training error for (database, type)."""
        self._version += 1
        key = (database_name, query_type)
        ed = self._per_type.get(key)
        if ed is None:
            ed = self._per_type[key] = ErrorDistribution(self._edges)
        ed.observe(error)
        flag_key = (database_name, query_type.estimate_band)
        flag_ed = self._per_flag.get(flag_key)
        if flag_ed is None:
            flag_ed = self._per_flag[flag_key] = ErrorDistribution(self._edges)
        flag_ed.observe(error)
        db_ed = self._per_db.get(database_name)
        if db_ed is None:
            db_ed = self._per_db[database_name] = ErrorDistribution(self._edges)
        db_ed.observe(error)
        self._global.observe(error)

    def sample_count(
        self, database_name: str, query_type: QueryType
    ) -> int:
        """Training samples accumulated for the exact (db, type) pair."""
        ed = self._per_type.get((database_name, query_type))
        return ed.sample_count if ed else 0

    def slice_counts(self) -> dict[tuple[str, QueryType], int]:
        """Sample counts of every trained (database, type) slice."""
        return {
            key: ed.sample_count for key, ed in self._per_type.items()
        }

    # -- query-side interface -----------------------------------------------------

    def lookup(
        self, database_name: str, query_type: QueryType
    ) -> ErrorDistribution | None:
        """The best available ED for (database, type), or ``None``."""
        ed = self._per_type.get((database_name, query_type))
        if ed is not None and ed.sample_count >= self._min_samples:
            return ed
        flag_ed = self._per_flag.get((database_name, query_type.estimate_band))
        if flag_ed is not None and flag_ed.sample_count >= self._min_samples:
            return flag_ed
        db_ed = self._per_db.get(database_name)
        if db_ed is not None and db_ed.sample_count >= self._min_samples:
            return db_ed
        if self._global.sample_count >= self._min_samples:
            return self._global
        return None

    def compile(
        self, names: Sequence[str], classifier: QueryTypeClassifier
    ) -> "EDTable":
        """:meth:`lookup` for every (database, query type) slot, as arrays.

        *names* gives the databases in mediation order, *classifier*
        the types a query can take. Built from the trained slices
        instead of one ``lookup`` per slot: every slot of a database
        starts at the first qualifying fallback level — band-pooled,
        then database-pooled, then global — and a qualifying exact
        slice overrides its own slot, the chain ``lookup`` walks.
        """
        version = self._version
        position = {name: d for d, name in enumerate(names)}
        term_slot = {count: c for c, count in enumerate(classifier.term_counts)}
        bands = classifier.num_bands
        eds: list[ErrorDistribution] = []

        def usable(ed: ErrorDistribution) -> bool:
            return ed.sample_count >= self._min_samples

        def ed_id(ed: ErrorDistribution) -> int:
            eds.append(ed)
            return len(eds) - 1

        fallback = np.full(
            (len(names), bands),
            ed_id(self._global) if usable(self._global) else -1,
            dtype=np.intp,
        )
        for name, ed in self._per_db.items():
            d = position.get(name)
            if d is not None and usable(ed):
                fallback[d] = ed_id(ed)
        for (name, band), ed in self._per_flag.items():
            d = position.get(name)
            if d is not None and band < bands and usable(ed):
                fallback[d, band] = ed_id(ed)
        slot = np.repeat(fallback[:, None, :], len(term_slot), axis=1)
        for (name, query_type), ed in self._per_type.items():
            d = position.get(name)
            c = term_slot.get(query_type.num_terms)
            band = query_type.estimate_band
            if d is not None and c is not None and band < bands and usable(ed):
                slot[d, c, band] = ed_id(ed)
        # Keep only the EDs some slot resolves to, numbered densely; the
        # trailing -1 of ``dense`` maps "no usable ED" onto itself.
        used = np.flatnonzero(np.bincount(slot[slot >= 0], minlength=len(eds)))
        dense = np.full(len(eds) + 1, -1, dtype=np.intp)
        dense[used] = np.arange(len(used))
        distributions = [eds[e].to_distribution() for e in used.tolist()]
        return EDTable(
            slot=dense[slot],
            term_slot=term_slot,
            starts=np.cumsum([0] + [d.support_size for d in distributions]),
            values=np.concatenate(
                [np.empty(0)] + [d.values for d in distributions]
            ),
            probs=np.concatenate(
                [np.empty(0)] + [d.probs for d in distributions]
            ),
            version=version,
        )

    def exact(
        self, database_name: str, query_type: QueryType
    ) -> ErrorDistribution | None:
        """The exact (db, type) ED regardless of sample count."""
        return self._per_type.get((database_name, query_type))

    def database_ed(self, database_name: str) -> ErrorDistribution | None:
        """The ED pooled over every query type of one database.

        The drift detector compares recent serve-time errors against
        this per-database slice: it aggregates all the training mass
        for the database, so a recent-vs-trained χ² over it is the
        best-powered per-database test available.
        """
        return self._per_db.get(database_name)

    def types_for(self, database_name: str) -> list[QueryType]:
        """Query types with a trained ED for *database_name*."""
        return sorted(
            qt for (name, qt) in self._per_type if name == database_name
        )

    # -- persistence ----------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the whole trained model."""
        return {
            "version": ERROR_MODEL_STATE_VERSION,
            "edges": [float(e) for e in self._edges],
            "min_samples": self._min_samples,
            "estimate_floor": self.estimate_floor,
            "per_type": [
                {
                    "database": name,
                    "num_terms": qt.num_terms,
                    "estimate_band": qt.estimate_band,
                    "ed": ed.state(),
                }
                for (name, qt), ed in sorted(self._per_type.items())
            ],
            "per_flag": [
                {"database": name, "estimate_band": band, "ed": ed.state()}
                for (name, band), ed in sorted(self._per_flag.items())
            ],
            "per_db": [
                {"database": name, "ed": ed.state()}
                for name, ed in sorted(self._per_db.items())
            ],
            "global": self._global.state(),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "ErrorModel":
        """Reconstruct a trained model from :meth:`state_dict` output.

        Version-less dicts (written before the schema was versioned)
        load as version 1; any other version is refused.
        """
        version = state.get("version", ERROR_MODEL_STATE_VERSION)
        if version != ERROR_MODEL_STATE_VERSION:
            raise TrainingError(
                f"unsupported ErrorModel state version {version!r} "
                f"(this build reads version {ERROR_MODEL_STATE_VERSION})"
            )
        model = cls(
            edges=state["edges"],
            min_samples=state["min_samples"],
            estimate_floor=state["estimate_floor"],
        )
        for entry in state["per_type"]:
            key = (
                entry["database"],
                QueryType(entry["num_terms"], entry["estimate_band"]),
            )
            model._per_type[key] = ErrorDistribution.from_state(entry["ed"])
        for entry in state["per_flag"]:
            key = (entry["database"], entry["estimate_band"])
            model._per_flag[key] = ErrorDistribution.from_state(entry["ed"])
        for entry in state["per_db"]:
            model._per_db[entry["database"]] = ErrorDistribution.from_state(
                entry["ed"]
            )
        model._global = ErrorDistribution.from_state(state["global"])
        return model

    def __repr__(self) -> str:
        return (
            f"ErrorModel(slices={len(self._per_type)}, "
            f"total_samples={self._global.sample_count})"
        )


class EDTrainer:
    """Samples databases with training queries to build an ErrorModel.

    Parameters
    ----------
    mediator:
        The mediated databases (training probes are metered).
    summaries:
        Per-database content summaries feeding the estimator.
    estimator:
        The relevancy estimator whose errors are being modelled.
    classifier:
        Query-type classifier; one ED is learned per (db, type).
    definition:
        Relevancy definition used for the observed true values.
    samples_per_type:
        Stop probing a (db, type) slice once it holds this many samples
        (the paper settles on 50); ``None`` uses every training query.
    edges:
        Error-histogram bin edges.
    estimate_floor:
        Error-normalization floor (must match RD derivation).
    """

    def __init__(
        self,
        mediator: Mediator,
        summaries: Mapping[str, ContentSummary],
        estimator: RelevancyEstimator,
        classifier: QueryTypeClassifier | None = None,
        definition: RelevancyDefinition = RelevancyDefinition.DOCUMENT_FREQUENCY,
        samples_per_type: int | None = 50,
        edges: Sequence[float] = DEFAULT_ERROR_EDGES,
        estimate_floor: float = DEFAULT_ESTIMATE_FLOOR,
        min_samples: int = 5,
    ) -> None:
        missing = [db.name for db in mediator if db.name not in summaries]
        if missing:
            raise TrainingError(f"missing summaries for databases: {missing}")
        if samples_per_type is not None and samples_per_type < 1:
            raise TrainingError("samples_per_type must be >= 1 or None")
        self._mediator = mediator
        self._summaries = dict(summaries)
        self._estimator = estimator
        self._classifier = classifier or QueryTypeClassifier()
        self._definition = definition
        self._zero_index = CertainZeroIndex(
            [self._summaries[db.name] for db in mediator], definition
        )
        self._samples_per_type = samples_per_type
        self._edges = tuple(edges)
        self._estimate_floor = estimate_floor
        self._min_samples = min_samples

    def train(self, queries: Iterable[Query]) -> ErrorModel:
        """Probe databases with *queries* and return the trained model.

        Queries whose true relevancy is already certain from an exact
        summary (a query term with zero document frequency under
        conjunctive semantics) are skipped — no probe can add
        information there, and the query-time selector short-circuits
        the same case to an impulse at zero.
        """
        model = self.new_model()
        for query in queries:
            for planned in self.plan_query(model, query):
                actual = self._mediator[planned.index].probe_relevancy(
                    query, self._definition
                )
                self.apply_observation(model, planned, actual)
        return model

    def new_model(self) -> ErrorModel:
        """A fresh, empty model with this trainer's configuration."""
        return ErrorModel(
            edges=self._edges,
            min_samples=self._min_samples,
            estimate_floor=self._estimate_floor,
        )

    def plan_query(
        self, model: ErrorModel, query: Query
    ) -> list[PlannedProbe]:
        """The probes the sequential loop would issue for *query*.

        Returned in mediator order — the order observations must be
        applied in for bit-identical training (see
        :class:`PlannedProbe`). Only the databases whose relevancy an
        exact summary cannot prove zero are visited (the certain-zero
        index the query-time selector uses); of those, the ones whose
        (database, type) slice already holds ``samples_per_type``
        samples are skipped.
        """
        plan: list[PlannedProbe] = []
        for index in self._zero_index.nonzero(query).tolist():
            name = self._mediator[index].name
            estimate = self._estimator.estimate(self._summaries[name], query)
            query_type = self._classifier.classify(query, estimate)
            if (
                self._samples_per_type is not None
                and model.sample_count(name, query_type)
                >= self._samples_per_type
            ):
                continue
            plan.append(PlannedProbe(index, name, estimate, query_type))
        return plan

    def apply_observation(
        self, model: ErrorModel, planned: PlannedProbe, actual: float
    ) -> None:
        """Record the observed relevancy for one planned probe."""
        error = relative_error(
            actual, planned.estimate, estimate_floor=self._estimate_floor
        )
        model.observe(planned.database_name, planned.query_type, error)

    def __repr__(self) -> str:
        return (
            f"EDTrainer(databases={len(self._mediator)}, "
            f"samples_per_type={self._samples_per_type})"
        )
