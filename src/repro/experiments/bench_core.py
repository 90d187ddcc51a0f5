"""``repro-metasearch bench-core``: timings of the per-query hot path.

Measures the core operations a deployment pays for on every uncached
query — RD construction, ``best_set`` for k=1/k=3, ``marginals``, a
full greedy usefulness sweep, and an end-to-end APro batch over the
first ``apro_queries`` test queries — on the paper testbed, and writes
the result as ``BENCH_core.json`` so the perf trajectory is tracked
in-repo (see docs/PERFORMANCE.md).

The usefulness sweep and the APro run are measured on **two
variants**, the ``python`` oracle backend and the ``numpy`` tensor
backend, running the same algorithm, with :func:`repro.bench.
time_interleaved` (python, numpy, python, …) so neither variant enjoys
warmer CPU caches than the other. The speedup is the paired
python/numpy ratio of :func:`repro.bench.paired_ratio`.

:func:`core_gates` judges a run: the tensor backend must match the
``python`` oracle on probe orders, answer sets, and certainties to
1e-9 (judged everywhere); against a committed reference, a paired
ratio may not fall below ``reference / tolerance`` when the benchmark
configuration matches, and a scenario median may not exceed
``tolerance × reference`` when host and configuration both match —
absolute milliseconds do not transfer between machines, so on another
host those gates are recorded unjudged.

Timing scenarios mirror ``benchmarks/bench_micro_core.py`` (the
pytest-benchmark variant of the same hot path) without requiring
pytest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import bench
from repro.core.policies import GreedyUsefulnessPolicy
from repro.core.probing import APro
from repro.core.topk import CorrectnessMetric, TopKComputer
from repro.exceptions import ConfigurationError
from repro.experiments.harness import train_pipeline
from repro.experiments.setup import PaperSetupConfig, build_paper_context

__all__ = [
    "FAMILY",
    "BenchCoreConfig",
    "run_bench_core",
    "core_gates",
    "format_bench_core",
]

FAMILY = "bench-core"

#: Scenario names every report contains.
_SHARED_SCENARIOS = ("rd_build", "best_set_k1", "best_set_k3", "marginals_k3")
_COMPARED_SCENARIOS = ("usefulness_sweep", "apro_run")

#: Timed backends of each compared scenario, in round-robin order.
_VARIANTS = ("python", "numpy")

#: Config keys that must match for timings to be comparable at all.
_COMPARABLE_CONFIG_KEYS = (
    "scale",
    "seed",
    "n_train",
    "n_test",
    "k",
    "threshold",
    "apro_queries",
    "databases",
)


@dataclass(frozen=True)
class BenchCoreConfig:
    """Knobs of the core benchmark (defaults = the paper testbed at 0.1)."""

    scale: float = 0.1
    seed: int = 2004
    n_train: int = 300
    n_test: int = 40
    repeats: int = 20
    k: int = 1
    threshold: float = 0.8
    apro_queries: int = 10
    context: object | None = field(default=None, compare=False)
    pipeline: object | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
        if self.apro_queries < 1:
            raise ConfigurationError("apro_queries must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigurationError("threshold must be in [0, 1]")


def _agreement(
    selector, queries, config: BenchCoreConfig
) -> dict[str, object]:
    """Tensor-backend-vs-``python``-oracle trajectory checks."""
    tensor = APro(selector, backend="numpy")
    oracle = APro(selector, backend="python")
    orders = sets = True
    delta = 0.0
    for query in queries:
        a = tensor.run(query, k=config.k, threshold=config.threshold)
        b = oracle.run(query, k=config.k, threshold=config.threshold)
        orders &= [(r.index, r.observed) for r in a.records] == [
            (r.index, r.observed) for r in b.records
        ]
        sets &= [p.names for p in a.trajectory] == [
            p.names for p in b.trajectory
        ]
        for pa, pb in zip(a.trajectory, b.trajectory):
            delta = max(
                delta, abs(pa.expected_correctness - pb.expected_correctness)
            )
    return {
        "queries": len(queries),
        "identical_probe_orders": orders,
        "identical_answer_sets": sets,
        "max_certainty_delta": float(delta),
        "backend_matches_python": orders and sets and delta <= 1e-9,
    }


def run_bench_core(
    config: BenchCoreConfig | None = None,
    reference: dict[str, object] | None = None,
    tolerance: float = 1.5,
) -> dict[str, object]:
    """Run every scenario; returns the ``bench/v1`` document, gated
    against *reference* (a committed bench-core report) when given."""
    config = config or BenchCoreConfig()
    if tolerance <= 1.0:
        raise ConfigurationError("tolerance must be > 1.0")
    context = config.context
    if context is None:
        context = build_paper_context(
            PaperSetupConfig(
                scale=config.scale,
                seed=config.seed,
                n_train=config.n_train,
                n_test=config.n_test,
            )
        )
    pipeline = config.pipeline
    if pipeline is None:
        pipeline = train_pipeline(context)
    selector = pipeline.rd_selector
    if not context.test_queries:
        raise ConfigurationError("testbed produced no test queries")
    sample_query = context.test_queries[0]
    apro_queries = context.test_queries[: config.apro_queries]
    rds = selector.build_rds(sample_query)
    n = len(rds)
    repeats = config.repeats

    single = {
        "rd_build": lambda: selector.build_rds(sample_query),
        "best_set_k1": lambda: TopKComputer(rds, 1).best_set(
            CorrectnessMetric.ABSOLUTE
        ),
        "best_set_k3": lambda: TopKComputer(rds, min(3, n)).best_set(
            CorrectnessMetric.ABSOLUTE
        ),
        "marginals_k3": lambda: TopKComputer(rds, min(3, n)).marginals(),
    }
    samples = bench.time_interleaved(single, repeats)
    scenarios: dict[str, object] = {
        name: bench.latency_summary(samples[name]) for name in single
    }

    def sweep_on(backend: str) -> None:
        # One fresh computer per sweep: the usefulness of every
        # database, exactly what one APro policy round evaluates.
        computer = TopKComputer(rds, config.k, backend=backend)
        policy = GreedyUsefulnessPolicy()
        for database in range(n):
            policy.usefulness(computer, database, CorrectnessMetric.ABSOLUTE)

    def apro_batch(runner: APro) -> None:
        # A batch over the first ``apro_queries`` test queries, not a
        # single cherry-picked one: per-query round counts vary a lot
        # (some queries satisfy the threshold from the prior, others
        # probe half the mediator), so a single query's fixed costs
        # would dominate whichever way it leans. The batch is the
        # workload a deployment actually pays for.
        for query in apro_queries:
            runner.run(query, k=config.k, threshold=config.threshold)

    runners = {name: APro(selector, backend=name) for name in _VARIANTS}
    workloads = {
        "usefulness_sweep": (
            {name: (lambda name=name: sweep_on(name)) for name in _VARIANTS},
            repeats,
        ),
        "apro_run": (
            {
                name: (lambda runner=runner: apro_batch(runner))
                for name, runner in runners.items()
            },
            max(1, repeats // 2),
        ),
    }
    for name, (fns, rounds) in workloads.items():
        samples = bench.time_interleaved(fns, rounds)
        scenarios[name] = {
            **{v: bench.latency_summary(samples[v]) for v in _VARIANTS},
            "speedup": bench.paired_ratio(
                samples["python"], samples["numpy"]
            ),
            "repeat_order": list(_VARIANTS),
        }

    report_config = {
        "scale": config.scale,
        "seed": config.seed,
        "n_train": config.n_train,
        "n_test": config.n_test,
        "repeats": repeats,
        "k": config.k,
        "threshold": config.threshold,
        "apro_queries": config.apro_queries,
        "databases": n,
    }
    results = {
        "scenarios": scenarios,
        "agreement": _agreement(selector, apro_queries, config),
    }
    return bench.report(
        FAMILY,
        report_config,
        results,
        core_gates(results, report_config, reference, tolerance),
    )


def core_gates(
    results: dict[str, object],
    config: dict[str, object],
    reference: dict[str, object] | None = None,
    tolerance: float = 1.5,
) -> list[dict[str, object]]:
    """The verdicts of one bench-core run.

    The backend-vs-oracle agreement is judged everywhere. Against
    *reference*: each paired python/numpy ratio must stay at or above
    ``reference / tolerance`` when the benchmark configuration matches
    (the per-round ratios divide out machine state, so they transfer
    between hosts — a drop means the tensor kernels got *relatively*
    slower); each scenario median must stay at or below ``tolerance ×
    reference`` when host and configuration both match. Gates without
    a comparable reference are recorded with a null target.
    """
    gates = [
        bench.gate(
            "backend_matches_python",
            _lookup(results, ("agreement", "backend_matches_python")),
            True,
            "==",
        )
    ]
    same_config = reference is not None and all(
        config.get(key) == _lookup(reference, ("config", key))
        for key in _COMPARABLE_CONFIG_KEYS
    )
    same_host = same_config and (
        _lookup(reference, ("environment", "host_fingerprint"))
        == bench.host_fingerprint()
    )
    scenarios = results.get("scenarios")
    ref_scenarios = _lookup(reference, ("results", "scenarios"))
    timed = [(name,) for name in _SHARED_SCENARIOS] + [
        (name, variant)
        for name in _COMPARED_SCENARIOS
        for variant in _VARIANTS
    ]
    for path in timed:
        path += ("p50_ms",)
        ref = _lookup(ref_scenarios, path) if same_host else None
        gates.append(
            bench.gate(
                ".".join(path),
                _lookup(scenarios, path),
                None if ref is None else round(tolerance * ref, 6),
                "<=",
            )
        )
    for name in _COMPARED_SCENARIOS:
        ref = _lookup(ref_scenarios, (name, "speedup"))
        ref = ref if same_config else None
        gates.append(
            bench.gate(
                f"{name}.speedup",
                _lookup(scenarios, (name, "speedup")),
                None if ref is None else round(ref / tolerance, 3),
                ">=",
            )
        )
    return gates


def _lookup(tree: object, path: tuple[str, ...]) -> object:
    """``tree[path[0]][path[1]]...``, or ``None`` where a level is missing."""
    for key in path:
        tree = tree.get(key) if isinstance(tree, dict) else None
    return tree


def format_bench_core(document: dict[str, object]) -> str:
    """Human-readable summary of a bench-core report."""
    scenarios = document["results"]["scenarios"]
    agreement = document["results"]["agreement"]
    environment = document["environment"]
    lines = [
        f"databases            : {document['config']['databases']}",
        f"repeats              : {document['config']['repeats']}",
        (
            "environment          : "
            f"numpy {environment['numpy']} ({environment['blas']}), "
            f"backend {environment['backend']}"
        ),
    ]
    for name in _SHARED_SCENARIOS:
        entry = scenarios[name]
        lines.append(
            f"{name:<21}: {entry['p50_ms']:.3f} ms median "
            f"({entry['p95_ms']:.3f} ms p95)"
        )
    for name in _COMPARED_SCENARIOS:
        entry = scenarios[name]
        lines.append(
            f"{name:<21}: {entry['numpy']['p50_ms']:.3f} ms median "
            f"(python {entry['python']['p50_ms']:.3f} ms, "
            f"numpy {entry['speedup']:.2f}x faster, paired)"
        )
    lines.append(
        "backend==python      : "
        f"{agreement['backend_matches_python']} "
        f"(max certainty delta {agreement['max_certainty_delta']:.2e} "
        f"over {agreement['queries']} queries)"
    )
    return "\n".join(lines)
