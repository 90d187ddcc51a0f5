"""Paper-experiment setup (§6.1): testbed, query sets, golden standard.

Assembles, deterministically from a single config:

* the 20-database health-web mediator (synthetic stand-in for the
  paper's CompletePlanet databases),
* a simulated Web query trace filtered to health-care queries with at
  least two domain-vocabulary terms (the paper's MedLinePlus filter),
* disjoint Q_train / Q_test sets,
* the golden standard (true top-k per test query).

:func:`build_trained_testbed` adds a metasearcher trained on that
setup's training queries: the front half of every serving entry point.

Test queries are additionally required to match at least
``min_matching_databases`` databases; a query matching nothing anywhere
has no meaningful "most relevant database" and the paper's real-user
trace against real large databases did not contain such queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.correctness import GoldenStandard
from repro.exceptions import ConfigurationError
from repro.hiddenweb.database import RelevancyDefinition
from repro.hiddenweb.mediator import Mediator
from repro.metasearch.metasearcher import Metasearcher, MetasearcherConfig
from repro.corpus.collections import testbed_specs
from repro.corpus.generator import DocumentGenerator
from repro.corpus.topics import TopicRegistry, default_topic_registry
from repro.corpus.zipf import ZipfVocabulary
from repro.querylog.generator import QueryTraceGenerator, TraceConfig
from repro.querylog.vocabulary import domain_vocabulary, is_domain_query
from repro.text.analyzer import Analyzer
from repro.types import Query

__all__ = [
    "PaperSetupConfig",
    "ExperimentContext",
    "build_paper_context",
    "build_trained_testbed",
]


@dataclass(frozen=True)
class PaperSetupConfig:
    """Knobs of the paper-experiment setup.

    The defaults are a laptop-scale rendition of §6.1 (the paper used
    1000 + 1000 training queries and 1000 + 1000 test queries against
    databases of up to ~10^5 documents; scale and counts here default
    smaller so a full reproduction run finishes in minutes).
    """

    scale: float = 0.3
    seed: int = 2004
    n_train: int = 1600
    n_test: int = 300
    min_matching_databases: int = 3
    background_vocab_size: int = 4000
    definition: RelevancyDefinition = RelevancyDefinition.DOCUMENT_FREQUENCY
    trace: TraceConfig = field(default_factory=TraceConfig)

    def __post_init__(self) -> None:
        if self.n_train <= 0 or self.n_test <= 0:
            raise ConfigurationError("query counts must be positive")
        if self.min_matching_databases < 0:
            raise ConfigurationError("min_matching_databases must be >= 0")


@dataclass
class ExperimentContext:
    """Everything an experiment needs, built once."""

    config: PaperSetupConfig
    registry: TopicRegistry
    analyzer: Analyzer
    mediator: Mediator
    train_queries: list[Query]
    test_queries: list[Query]
    golden: GoldenStandard

    @property
    def num_databases(self) -> int:
        """Number of mediated databases."""
        return len(self.mediator)


def build_paper_context(
    config: PaperSetupConfig | None = None,
) -> ExperimentContext:
    """Materialize the full §6.1 experimental setup deterministically."""
    config = config or PaperSetupConfig()
    registry = default_topic_registry(seed=config.seed)
    background = ZipfVocabulary(
        config.background_vocab_size, seed=config.seed + 1
    )
    generator = DocumentGenerator(registry, background)
    analyzer = Analyzer()
    corpora = {
        spec.name: generator.generate(spec)
        for spec in testbed_specs(config.scale)
    }
    mediator = Mediator.from_documents(corpora, analyzer=analyzer)

    health_vocab = domain_vocabulary(registry, "health", analyzer)
    trace = QueryTraceGenerator(
        registry,
        background,
        analyzer=analyzer,
        config=config.trace,
        seed=config.seed + 2,
    )
    golden = GoldenStandard(mediator, config.definition)

    train_queries: list[Query] = []
    test_queries: list[Query] = []
    seen: set[Query] = set()
    # Generate in chunks until both sets are filled; the domain filter
    # and (for the test set) the match-count filter reject candidates.
    budget = 200 * (config.n_train + config.n_test)
    while (
        len(train_queries) < config.n_train
        or len(test_queries) < config.n_test
    ):
        if budget <= 0:
            raise ConfigurationError(
                "query generation budget exhausted; filters too strict "
                f"(have {len(train_queries)} train / {len(test_queries)} test)"
            )
        budget -= 1
        query = trace.next_query()
        if query in seen or not is_domain_query(query, health_vocab):
            continue
        seen.add(query)
        if len(train_queries) < config.n_train:
            train_queries.append(query)
            continue
        matching = sum(1 for r in golden.relevancies(query) if r > 0)
        if matching >= config.min_matching_databases:
            test_queries.append(query)
    return ExperimentContext(
        config=config,
        registry=registry,
        analyzer=analyzer,
        mediator=mediator,
        train_queries=train_queries,
        test_queries=test_queries,
        golden=golden,
    )


def build_trained_testbed(
    scale: float = 0.05,
    seed: int = 2004,
    n_train: int = 200,
    n_test: int = 80,
    batch_size: int = 16,
    train_queries_cap: int | None = None,
    context: ExperimentContext | None = None,
) -> tuple[ExperimentContext, Metasearcher]:
    """Build the paper testbed and a trained metasearcher over it.

    The shared front half of every serving entry point (the ``demo``,
    ``serve`` and ``gateway`` CLI commands and each cluster replica):
    construct the scaled paper context, train a metasearcher on its
    training queries (optionally capped), and return ``(context,
    metasearcher)``. Pass *context* to reuse an already-built testbed.
    """
    if context is None:
        context = build_paper_context(
            PaperSetupConfig(
                scale=scale, seed=seed, n_train=n_train, n_test=n_test
            )
        )
    metasearcher = Metasearcher(
        context.mediator,
        MetasearcherConfig(probe_batch_size=batch_size),
        analyzer=context.analyzer,
    )
    train = context.train_queries
    if train_queries_cap is not None:
        train = train[:train_queries_cap]
    metasearcher.train(train)
    return context, metasearcher
