"""The systems under test, built with every knob pinned.

Shared by the benchmark entry point (``run.py``) and the gateway server
process (``server.py``). Every ``MetasearcherConfig``, ``ServiceConfig``
and ``GatewayConfig`` field a workload depends on is set here
explicitly; inherited ``REPRO_*`` environment knobs are cleared by
:func:`clean_environment` before any of these configs is built, so a
knob left over in the caller's shell cannot change the workload.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Environment set for the benchmark and every process it starts: one
#: BLAS thread, so library threads do not compete with the two pool
#: workers for the host's cores.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def clean_environment() -> list[str]:
    """Drop inherited ``REPRO_*`` knobs, pin BLAS threads, expose ``src``.

    Must run before ``repro`` is imported. Returns the cleared names.
    """
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    os.environ.update(PINNED_ENV)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
    return cleared


#: ``REPRO_*`` knobs found in the inherited environment and cleared.
CLEARED = clean_environment()

import numpy as np  # noqa: E402

from repro.core.correctness import GoldenStandard  # noqa: E402
from repro.core.query_types import QueryTypeClassifier  # noqa: E402
from repro.core.topk import CorrectnessMetric  # noqa: E402
from repro.corpus.generator import DocumentGenerator  # noqa: E402
from repro.corpus.topics import default_topic_registry  # noqa: E402
from repro.corpus.zipf import ZipfVocabulary  # noqa: E402
from repro.experiments.bench_scale import scale_specs  # noqa: E402
from repro.experiments.setup import (  # noqa: E402
    PaperSetupConfig,
    build_paper_context,
)
from repro.gateway.gateway import GatewayConfig  # noqa: E402
from repro.hiddenweb.database import RelevancyDefinition  # noqa: E402
from repro.hiddenweb.mediator import Mediator  # noqa: E402
from repro.metasearch.metasearcher import (  # noqa: E402
    Metasearcher,
    MetasearcherConfig,
)
from repro.service.faults import FaultInjector  # noqa: E402
from repro.service.resilience import RetryPolicy  # noqa: E402
from repro.service.server import MetasearchService, ServiceConfig  # noqa: E402
from repro.text.analyzer import Analyzer  # noqa: E402
from repro.types import Query  # noqa: E402

#: The testbed seed; the workload seed only orders and draws queries.
TESTBED_SEED = 2004
CERTAINTY = 0.9
#: Queries kept outside every measured set, served before timing so
#: lazy set-up (imports, first-use allocations) is not measured.
WARMUP_QUERIES = 4

PAPER_SETUP = dict(scale=0.05, seed=TESTBED_SEED, n_train=200)
#: Test queries the gateway's Zipf draws range over.
GATEWAY_UNIVERSE = 2000

FEDERATION_DATABASES = 1024
FEDERATION_TRAIN_QUERIES = 60
FEDERATION_SAMPLES_PER_TYPE = 8
FEDERATION_VOCAB = 1500
#: Term sets left out of the federation query set: the ``python``
#: oracle reaches certainty exactly 0.9 after one probe and stops while
#: the ``numpy`` backend lands one ulp lower and probes again, so the
#: oracle check would fail on them at every run (see WORKLOADS.md).
FEDERATION_EXCLUDED = (frozenset({"forest", "speci", "pollut"}),)

#: Injected probe latency on gateway-zipf: mean 4 ms, uniform +-50%,
#: so every delay (at most 6 ms) stays far below the probe timeout.
PROBE_LATENCY_S = 0.004
PROBE_TIMEOUT_S = 0.25
GATEWAY_POOL_WORKERS = 2
#: Span ring-buffer size for the traced gateway run: large enough that
#: no measured request's spans are evicted.
TRACE_BUFFER = 100_000


def metasearcher_config(
    prune_mode: str, samples_per_type: int
) -> MetasearcherConfig:
    """Every ``MetasearcherConfig`` field, explicit."""
    return MetasearcherConfig(
        definition=RelevancyDefinition.DOCUMENT_FREQUENCY,
        metric=CorrectnessMetric.ABSOLUTE,
        samples_per_type=samples_per_type,
        estimate_thresholds=QueryTypeClassifier.DEFAULT_THRESHOLDS,
        summary_sampling=None,
        summary_seed_terms=MetasearcherConfig.DEFAULT_SEED_TERMS,
        max_probes=None,
        probe_batch_size=1,
        train_workers=1,
        train_checkpoint_every=25,
        prune_mode=prune_mode,
        prefilter_top_m=16,
    )


def service_config(
    backend: str,
    pool_workers: int = 0,
    cache_enabled: bool = True,
    trace: bool = False,
) -> ServiceConfig:
    """Every ``ServiceConfig`` field, explicit (cache on, adapt off)."""
    return ServiceConfig(
        max_workers=8,
        batch_size=1,
        retry=RetryPolicy(
            timeout_s=PROBE_TIMEOUT_S,
            max_retries=2,
            backoff_base_s=0.01,
            backoff_multiplier=2.0,
            jitter=0.5,
        ),
        cache_ttl_s=300.0,
        cache_entries=4096,
        cache_enabled=cache_enabled,
        cache_tier=None,
        cache_tier_timeout_s=1.0,
        pool_workers=pool_workers,
        pool_mode="query",
        pool_tasks_per_worker=None,
        pool_lease_timeout_s=5.0,
        pool_max_pending=64,
        adapt=False,
        adapt_window=256,
        adapt_check_every=64,
        adapt_significance=0.01,
        adapt_min_samples=48,
        adapt_auto_swap=False,
        trace=trace,
        trace_stderr=False,
        trace_buffer=TRACE_BUFFER if trace else 2048,
        backend=backend,
    )


def gateway_service_config(trace: bool) -> ServiceConfig:
    """gateway-zipf's service: the two-worker pool, spans on if traced."""
    return service_config(
        "numpy", pool_workers=GATEWAY_POOL_WORKERS, trace=trace
    )


def gateway_config() -> GatewayConfig:
    """Every ``GatewayConfig`` field, explicit (the defaults, pinned).

    With ``max_inflight`` above the pool width, cache hits do not queue
    behind misses; misses wait for a pool lease instead. The queue is
    deep enough that nothing is shed at the workload's rate.
    """
    return GatewayConfig(
        host="127.0.0.1",
        port=0,
        max_inflight=8,
        max_queue=256,
        shed_retry_after_ms=50.0,
        default_deadline_ms=None,
        coalesce=True,
        drain_timeout_s=5.0,
        max_line_bytes=64 * 1024,
        cursor_ttl_s=300.0,
        cursor_entries=512,
        cursor_page_limit=1024,
    )


def probe_injector() -> FaultInjector:
    """Seeded probe latency for gateway-zipf; no errors, no blackouts."""
    return FaultInjector(
        seed=TESTBED_SEED,
        mean_latency_s=PROBE_LATENCY_S,
        latency_jitter=0.5,
        error_rate=0.0,
        blackouts={},
    )


@dataclass
class Testbed:
    """A trained metasearcher plus its query set and ground truth."""

    metasearcher: Metasearcher
    queries: list[Query]
    warmup: list[Query]
    golden: GoldenStandard

    def service(
        self, backend: str = "numpy", cache_enabled: bool = True
    ) -> MetasearchService:
        """An in-process service (no pool, no injected latency)."""
        return MetasearchService(
            self.metasearcher,
            config=service_config(backend, cache_enabled=cache_enabled),
        )


def build_paper(n_queries: int) -> Testbed:
    """The paper's 20-database testbed, trained on 200 queries.

    ``queries`` is the first *n_queries* test queries (a prefix of the
    deterministic test stream, whatever its length); the warm-up
    queries follow them.
    """
    context = build_paper_context(
        PaperSetupConfig(**PAPER_SETUP, n_test=n_queries + WARMUP_QUERIES)
    )
    searcher = Metasearcher(
        context.mediator,
        metasearcher_config("off", samples_per_type=50),
        analyzer=context.analyzer,
    )
    searcher.train(context.train_queries)
    return Testbed(
        metasearcher=searcher,
        queries=context.test_queries[:n_queries],
        warmup=context.test_queries[n_queries:],
        golden=context.golden,
    )


def _topic_queries(registry, analyzer, rng):
    """Endless stream of distinct three-anchor topical keyword queries."""
    names = registry.names()
    seen: set[tuple[str, ...]] = set()
    while True:
        topic = registry[names[int(rng.integers(len(names)))]]
        picked = rng.choice(
            topic.anchors, size=min(3, len(topic.anchors)), replace=False
        )
        terms = tuple(
            dict.fromkeys(
                term for word in picked for term in analyzer.analyze(word)
            )
        )
        if terms and terms not in seen:
            seen.add(terms)
            yield Query(terms=terms)


def build_federation(n_queries: int) -> Testbed:
    """The 1024-database heterogeneous federation, exact pruning on."""
    registry = default_topic_registry(seed=TESTBED_SEED)
    background = ZipfVocabulary(FEDERATION_VOCAB, seed=TESTBED_SEED + 1)
    analyzer = Analyzer()
    stream = _topic_queries(
        registry, analyzer, np.random.default_rng(TESTBED_SEED + 11)
    )
    train = list(itertools.islice(stream, FEDERATION_TRAIN_QUERIES))
    tail = list(
        itertools.islice(
            (
                query
                for query in stream
                if frozenset(query.terms) not in FEDERATION_EXCLUDED
            ),
            n_queries + WARMUP_QUERIES,
        )
    )
    generator = DocumentGenerator(registry, background)
    corpora = {
        spec.name: generator.generate(spec)
        for spec in scale_specs(FEDERATION_DATABASES, registry, TESTBED_SEED)
    }
    mediator = Mediator.from_documents(corpora, analyzer=analyzer)
    config = metasearcher_config(
        "exact", samples_per_type=FEDERATION_SAMPLES_PER_TYPE
    )
    searcher = Metasearcher(mediator, config, analyzer=analyzer)
    searcher.train(train)
    return Testbed(
        metasearcher=searcher,
        queries=tail[:n_queries],
        warmup=tail[n_queries:],
        golden=GoldenStandard(mediator, config.definition),
    )


def jsonable(value):
    """Configs and enums as plain JSON values."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def host_facts() -> dict:
    """What a reader needs to judge the numbers: cores, Python, numpy, BLAS."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        **PINNED_ENV,
    }
