"""The end-to-end metasearcher.

One object owning the whole pipeline of Fig. 1:

1. ``train(queries)`` — build content summaries, learn the error model
   by sampling every database with the training queries;
2. ``select(text, k, certainty)`` — RD-based selection plus adaptive
   probing until the requested certainty;
3. ``search(text, k, certainty)`` — select, forward the query to the
   chosen databases, and fuse their result pages.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.core.policies import GreedyUsefulnessPolicy, ProbePolicy
from repro.core.probing import APro, ProbeSession
from repro.core.query_types import QueryTypeClassifier
from repro.core.selection import RDBasedSelector, SelectionResult
from repro.core.topk import CorrectnessMetric
from repro.core.training import EDTrainer, ErrorModel
from repro.exceptions import ConfigurationError, ReproError
from repro.hiddenweb.database import RelevancyDefinition
from repro.hiddenweb.mediator import Mediator
from repro.metasearch.fusion import FusedHit, merge_results
from repro.summaries.builder import ExactSummaryBuilder, SampledSummaryBuilder
from repro.summaries.estimators import (
    RelevancyEstimator,
    TermIndependenceEstimator,
)
from repro.summaries.summary import ContentSummary
from repro.text.analyzer import Analyzer
from repro.types import Query

__all__ = [
    "MetasearcherConfig",
    "Metasearcher",
    "MetasearchAnswer",
    "PREFILTER_ENV",
]

#: Environment knob selecting the candidate-pruning mode when
#: ``MetasearcherConfig.prune_mode`` is left unset. Empty/``"0"``/
#: ``"off"`` disable pruning, ``"1"``/``"exact"`` enable the
#: answer-identical bound pruning.
PREFILTER_ENV = "REPRO_PREFILTER"

_PRUNE_MODE_ALIASES = {
    "": "off",
    "0": "off",
    "off": "off",
    "1": "exact",
    "exact": "exact",
}


@dataclass(frozen=True)
class MetasearcherConfig:
    """Tunables of the pipeline; defaults follow the paper.

    Parameters
    ----------
    definition:
        Relevancy definition (document-frequency by default, as in the
        paper's experiments).
    metric:
        Correctness metric guaranteed by ``certainty``.
    samples_per_type:
        Training probes per (database, query-type) slice (paper: 50).
    estimate_thresholds:
        Estimate band cut points of the query-type tree (the paper's
        tree is the single threshold ``(10.0,)``).
    summary_sampling:
        ``None`` builds exact summaries; otherwise query-based sampling
        with this many target documents per database.
    summary_seed_terms:
        Initial probe vocabulary for query-based sampling. The default
        spreads one recognizable term per catalogue topic so sampling
        gets a foothold on any topical database.
    max_probes:
        Optional hard probe budget per query.
    probe_batch_size:
        Probes issued concurrently per APro decision round (the
        latency extension of :meth:`repro.core.probing.APro.run`).
        ``1`` is the paper's strictly sequential loop; widths above 1
        trade a little probe efficiency for wall-clock latency and are
        what the serving layer's executor overlaps (``--batch`` on the
        CLI).
    train_workers:
        Worker-pool width for the offline training phase. ``1`` keeps
        the paper's sequential :class:`~repro.core.training.EDTrainer`;
        widths above 1 route training probes through
        :class:`~repro.service.training.ParallelEDTrainer` (same
        trained state, bit-identical, for any width — see
        ``docs/TRAINING.md``).
    train_checkpoint_every:
        Queries between training checkpoints when :meth:`train` is
        given a ``checkpoint_path``.
    prune_mode:
        Candidate-pruning mode in front of RD/APro — ``"off"`` or
        ``"exact"`` (bound-based pruning, selections and probe orders
        identical to the unpruned path; see
        :mod:`repro.core.pruning`). ``None`` (the default) reads the
        ``REPRO_PREFILTER`` environment variable, defaulting to
        ``"off"``.
    prefilter_top_m:
        Inert: nothing reads or validates it. It sized a top-M
        prefilter mode that has been removed; the field stays only
        because the repository benchmark pins every config field, and
        it goes at the next change to that benchmark.
    """

    DEFAULT_SEED_TERMS: tuple[str, ...] = (
        "health", "medical", "cancer", "heart", "brain", "virus", "diet",
        "child", "drug", "depression", "gene", "surgery", "quantum",
        "galaxy", "climate", "molecule", "election", "market", "game",
        "study", "report",
    )

    definition: RelevancyDefinition = RelevancyDefinition.DOCUMENT_FREQUENCY
    metric: CorrectnessMetric = CorrectnessMetric.ABSOLUTE
    samples_per_type: int | None = 50
    estimate_thresholds: tuple[float, ...] = QueryTypeClassifier.DEFAULT_THRESHOLDS
    summary_sampling: int | None = None
    summary_seed_terms: tuple[str, ...] = DEFAULT_SEED_TERMS
    max_probes: int | None = None
    probe_batch_size: int = 1
    train_workers: int = 1
    train_checkpoint_every: int = 25
    prune_mode: str | None = None
    prefilter_top_m: int = 16

    def __post_init__(self) -> None:
        if self.prune_mode is None:
            raw = os.environ.get(PREFILTER_ENV, "").strip().lower()
            resolved = _PRUNE_MODE_ALIASES.get(raw)
            if resolved is None:
                raise ConfigurationError(
                    f"{PREFILTER_ENV}={raw!r} is not a valid prune mode; "
                    f"use one of {sorted(set(_PRUNE_MODE_ALIASES.values()))}"
                )
            object.__setattr__(self, "prune_mode", resolved)
        elif self.prune_mode not in ("off", "exact"):
            raise ConfigurationError(
                f"prune_mode must be 'off' or 'exact', "
                f"got {self.prune_mode!r}"
            )
        if self.probe_batch_size < 1:
            raise ConfigurationError(
                f"probe_batch_size must be >= 1, got {self.probe_batch_size}"
            )
        if self.max_probes is not None and self.max_probes < 0:
            raise ConfigurationError(
                f"max_probes must be >= 0, got {self.max_probes}"
            )
        if self.train_workers < 1:
            raise ConfigurationError(
                f"train_workers must be >= 1, got {self.train_workers}"
            )
        if self.train_checkpoint_every < 1:
            raise ConfigurationError(
                f"train_checkpoint_every must be >= 1, got "
                f"{self.train_checkpoint_every}"
            )


@dataclass(frozen=True)
class MetasearchAnswer:
    """What :meth:`Metasearcher.search` returns to the user."""

    query: Query
    selected: tuple[str, ...]
    certainty: float
    probes_used: int
    hits: list[FusedHit] = field(default_factory=list)


class Metasearcher:
    """Facade over the full probabilistic metasearching pipeline.

    Parameters
    ----------
    mediator:
        The Hidden-Web databases to mediate.
    config:
        Pipeline tunables.
    estimator:
        Relevancy estimator (term-independence by default, as in the
        paper).
    policy:
        Probe-order policy (greedy usefulness by default).
    analyzer:
        Analyzer for free-text user queries; should be the same instance
        used to index the databases.
    """

    def __init__(
        self,
        mediator: Mediator,
        config: MetasearcherConfig | None = None,
        estimator: RelevancyEstimator | None = None,
        policy: ProbePolicy | None = None,
        analyzer: Analyzer | None = None,
    ) -> None:
        self._mediator = mediator
        self._config = config or MetasearcherConfig()
        self._estimator = estimator or TermIndependenceEstimator()
        self._policy = policy or GreedyUsefulnessPolicy()
        self._analyzer = analyzer or Analyzer()
        self._classifier = QueryTypeClassifier(
            estimate_thresholds=self._config.estimate_thresholds
        )
        self._summaries: dict[str, ContentSummary] | None = None
        self._error_model: ErrorModel | None = None
        self._selector: RDBasedSelector | None = None
        self._apro: APro | None = None

    # -- training ---------------------------------------------------------------

    def train(
        self,
        training_queries: Sequence[Query],
        checkpoint_path=None,
        resume: bool = False,
    ) -> None:
        """Build summaries and learn the error model (offline phase).

        With ``config.train_workers > 1`` or a *checkpoint_path*,
        training runs through the serving layer's
        :class:`~repro.service.training.ParallelEDTrainer` —
        concurrent, fault-tolerant, periodically checkpointed and
        resumable with ``resume=True`` — producing the bit-identical
        trained state of the sequential path.
        """
        if not training_queries:
            raise ConfigurationError("training requires at least one query")
        self._summaries = self._build_summaries()
        self._error_model = self._train_error_model(
            training_queries, checkpoint_path, resume
        )
        self._selector = RDBasedSelector(
            mediator=self._mediator,
            summaries=self._summaries,
            estimator=self._estimator,
            error_model=self._error_model,
            classifier=self._classifier,
            definition=self._config.definition,
        )
        self._finish_setup()

    def _finish_setup(self) -> None:
        """Build the APro runner over the selector.

        Shared by :meth:`train`, :meth:`load` and :meth:`from_trained`:
        exact bound pruning is an APro flag.
        """
        self._apro = APro(
            self._selector,
            policy=self._policy,
            prune=self._config.prune_mode == "exact",
        )

    def _train_error_model(
        self, training_queries: Sequence[Query], checkpoint_path, resume: bool
    ) -> ErrorModel:
        assert self._summaries is not None
        if self._config.train_workers == 1 and checkpoint_path is None:
            if resume:
                raise ConfigurationError(
                    "resume=True requires a checkpoint_path"
                )
            trainer = EDTrainer(
                mediator=self._mediator,
                summaries=self._summaries,
                estimator=self._estimator,
                classifier=self._classifier,
                definition=self._config.definition,
                samples_per_type=self._config.samples_per_type,
            )
            self._train_metrics = None
            return trainer.train(training_queries)
        # Imported here: repro.service imports this module at its top.
        from repro.service.training import ParallelEDTrainer

        with ParallelEDTrainer(
            mediator=self._mediator,
            summaries=self._summaries,
            estimator=self._estimator,
            classifier=self._classifier,
            definition=self._config.definition,
            samples_per_type=self._config.samples_per_type,
            max_workers=self._config.train_workers,
            checkpoint_path=checkpoint_path,
            checkpoint_every=self._config.train_checkpoint_every,
        ) as trainer:
            model = trainer.train(training_queries, resume=resume)
        self._train_metrics = trainer.metrics
        return model

    @property
    def train_metrics(self):
        """Metrics of the last parallel training run (``None`` otherwise)."""
        return getattr(self, "_train_metrics", None)

    def _build_summaries(self) -> dict[str, ContentSummary]:
        sampling = self._config.summary_sampling
        if sampling is None:
            builder = ExactSummaryBuilder()
            return {db.name: builder.build(db) for db in self._mediator}
        seed_terms = [
            term
            for word in self._config.summary_seed_terms
            for term in self._analyzer.analyze(word)
        ]
        sampled_builder = SampledSummaryBuilder(
            seed_terms=seed_terms,
            target_documents=sampling,
            analyzer=self._analyzer,
        )
        return {db.name: sampled_builder.build(db) for db in self._mediator}

    @property
    def is_trained(self) -> bool:
        """Whether :meth:`train` has completed."""
        return self._apro is not None

    @property
    def config(self) -> MetasearcherConfig:
        """The pipeline configuration."""
        return self._config

    @property
    def policy(self) -> ProbePolicy:
        """The probe-order policy."""
        return self._policy

    @property
    def mediator(self) -> Mediator:
        """The mediated databases."""
        return self._mediator

    @property
    def selector(self) -> RDBasedSelector:
        """The trained RD-based selector (raises before training)."""
        self._require_trained()
        assert self._selector is not None
        return self._selector

    @property
    def error_model(self) -> ErrorModel:
        """The trained error model (raises before training)."""
        self._require_trained()
        assert self._error_model is not None
        return self._error_model

    @property
    def summaries(self) -> dict[str, ContentSummary]:
        """Per-database content summaries (raises before training)."""
        self._require_trained()
        assert self._summaries is not None
        return self._summaries

    def _require_trained(self) -> None:
        if self._apro is None:
            raise ReproError("call train() before querying the metasearcher")

    @classmethod
    def from_trained(
        cls,
        trained: "Metasearcher",
        config: MetasearcherConfig | None = None,
    ) -> "Metasearcher":
        """A new query-ready metasearcher sharing *trained*'s state.

        The trained artifacts (summaries, error model, selector) are
        referenced, not copied — training is deterministic and
        read-only at query time, so clones are answer-identical to the
        original under the same config. This is how the benches compare
        prune modes over one training run instead of retraining per
        mode.
        """
        trained._require_trained()
        clone = cls(
            trained._mediator,
            config or trained._config,
            estimator=trained._estimator,
            policy=trained._policy,
            analyzer=trained._analyzer,
        )
        clone._classifier = trained._classifier
        clone._summaries = trained._summaries
        clone._error_model = trained._error_model
        clone._selector = trained._selector
        clone._finish_setup()
        return clone

    # -- persistence ------------------------------------------------------------

    def save(self, path) -> None:
        """Persist the trained state (summaries + error model) to JSON.

        The databases themselves are not stored; see
        :mod:`repro.persistence`.
        """
        from repro.persistence import TrainedState, save_trained_state

        self._require_trained()
        assert self._summaries is not None and self._error_model is not None
        state = TrainedState(
            summaries=self._summaries,
            error_model=self._error_model,
            estimate_thresholds=self._classifier.estimate_thresholds,
            term_counts=self._classifier.term_counts,
            definition=self._config.definition,
        )
        save_trained_state(state, path)

    def load(self, path) -> None:
        """Restore a :meth:`save` file, making the instance query-ready.

        The mediator's databases must all have summaries in the file.
        """
        from repro.persistence import load_trained_state

        state = load_trained_state(path)
        self._summaries = state.summaries
        self._error_model = state.error_model
        self._classifier = state.classifier()
        self._selector = state.selector(self._mediator, self._estimator)
        self._finish_setup()

    # -- querying -------------------------------------------------------------

    def analyze(self, query: Query | str) -> Query:
        """Normalize free text into a :class:`~repro.types.Query`.

        Already-analyzed queries pass through unchanged; the serving
        layer uses this to build cache keys.
        """
        if isinstance(query, Query):
            return query
        return self._analyzer.query(query)

    # Backwards-compatible private alias.
    _as_query = analyze

    def select(
        self,
        query: Query | str,
        k: int,
        certainty: float = 0.0,
        batch_size: int | None = None,
        max_probes: int | None = None,
        force_probes: int | None = None,
    ) -> ProbeSession:
        """Select k databases, probing until *certainty* is reached.

        ``certainty=0`` yields pure RD-based selection (zero probes).
        *batch_size* and *max_probes* override the configured values
        for this call; *force_probes* floors the probe count (setting
        both to the same value pins the probe budget exactly, which is
        how ``bench-scale`` holds the workload constant across
        federation sizes).
        """
        self._require_trained()
        assert self._apro is not None
        return self._apro.run(
            self._as_query(query),
            k=k,
            threshold=certainty,
            metric=self._config.metric,
            max_probes=(
                self._config.max_probes
                if max_probes is None
                else max_probes
            ),
            force_probes=force_probes,
            batch_size=(
                self._config.probe_batch_size
                if batch_size is None
                else batch_size
            ),
        )

    def select_without_probing(
        self, query: Query | str, k: int
    ) -> SelectionResult:
        """Pure RD-based selection (paper §6.2), returning RD internals."""
        self._require_trained()
        assert self._selector is not None
        return self._selector.select(
            self._as_query(query), k, self._config.metric
        )

    def search(
        self,
        query: Query | str,
        k: int,
        certainty: float = 0.0,
        limit: int = 10,
    ) -> MetasearchAnswer:
        """Full metasearch: select databases, query them, fuse results."""
        analyzed = self._as_query(query)
        session = self.select(analyzed, k, certainty)
        results = {
            name: self._mediator[name].probe(analyzed)
            for name in session.final.names
        }
        return MetasearchAnswer(
            query=analyzed,
            selected=session.final.names,
            certainty=session.final.expected_correctness,
            probes_used=session.num_probes,
            hits=merge_results(results, limit=limit),
        )

    def __repr__(self) -> str:
        return (
            f"Metasearcher(databases={len(self._mediator)}, "
            f"trained={self.is_trained})"
        )
