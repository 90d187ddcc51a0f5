"""``repro-metasearch bench-core``: timings of the per-query hot path.

Measures the core operations a deployment pays for on every uncached
query — RD construction, ``best_set`` for k=1/k=3, ``marginals``, a
full greedy usefulness sweep, and an end-to-end APro batch over the
first ``apro_queries`` test queries — on the paper testbed, and writes
the result as ``BENCH_core.json`` so the perf trajectory is tracked
in-repo (see docs/PERFORMANCE.md).

The usefulness sweep and the APro run are measured on **two
variants**, the ``python`` oracle backend and the ``numpy`` tensor
backend, running the same algorithm. Their repeats are **interleaved**
(python, numpy, python, …) rather than run as back-to-back blocks, so
neither variant enjoys warmer CPU caches / branch predictors than the
other; the round-robin order is recorded in the scenario's
``repeat_order``. The speedup is the median of *per-round*
python/numpy ratios — the two samples of a round saw the same machine
state, so frequency drift and noisy neighbours cancel instead of
skewing a ratio of independent medians.

The agreement block doubles as an end-to-end correctness check — the
tensor backend must match the ``python`` oracle on probe orders,
answer sets, and certainties to 1e-9 — and :func:`check_bench_core`
turns a committed report into a CI perf-regression gate: an agreement
violation is a hard failure everywhere, while timing regressions are
hard failures only when the report and the reference were produced on
the same host with the same benchmark configuration (and soft warnings
otherwise, since absolute timings do not transfer across machines).

Timing scenarios mirror ``benchmarks/bench_micro_core.py`` (the
pytest-benchmark variant of the same hot path) without requiring
pytest.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.backend import default_backend_name
from repro.core.policies import GreedyUsefulnessPolicy
from repro.core.probing import APro
from repro.core.topk import CorrectnessMetric, TopKComputer
from repro.exceptions import ConfigurationError, ReproError
from repro.experiments.harness import train_pipeline
from repro.experiments.setup import PaperSetupConfig, build_paper_context

__all__ = [
    "BENCH_CORE_SCHEMA",
    "BenchCoreConfig",
    "run_bench_core",
    "format_bench_core",
    "validate_bench_core",
    "read_bench_core",
    "check_bench_core",
]

#: Schema tag embedded in (and asserted over) ``BENCH_core.json``.
BENCH_CORE_SCHEMA = "bench-core/v3"

#: Scenario names every report must contain.
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


def _summarize(samples: list[float]) -> dict[str, float]:
    ordered = sorted(samples)
    p95_index = min(len(ordered), max(1, round(0.95 * len(ordered)))) - 1
    return {
        "median_ms": round(statistics.median(ordered), 6),
        "p95_ms": round(ordered[p95_index], 6),
        "repeats": len(samples),
    }


def _timeit(fn: Callable[[], object], repeats: int) -> dict[str, float]:
    """Median/p95 wall-clock of *fn* over *repeats* runs, in milliseconds."""
    samples: list[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - started) * 1000.0)
    return _summarize(samples)


def _timeit_interleaved(
    fns: dict[str, Callable[[], object]], repeats: int
) -> dict[str, dict[str, float]]:
    """Time several variants round-robin instead of back-to-back.

    Block timing hands later blocks caches and branch predictors warmed
    by the earlier ones; interleaving gives every variant the same
    context on every round, so the medians are comparable. Insertion
    order of *fns* is the round-robin order.
    """
    names = list(fns)
    samples: dict[str, list[float]] = {name: [] for name in names}
    for _ in range(repeats):
        for name in names:
            started = time.perf_counter()
            fns[name]()
            samples[name].append((time.perf_counter() - started) * 1000.0)
    return {name: _summarize(samples[name]) for name in names}, samples


def _paired_speedup(samples: dict[str, list[float]]) -> float:
    """Median of per-round python/numpy ratios.

    Rounds are interleaved, so the two samples of one round saw the
    same machine state; their ratio cancels frequency drift and noisy
    neighbours that a ratio of independent medians would conflate with
    the code's actual speedup.
    """
    ratios = [
        p / q if q > 0 else float("inf")
        for p, q in zip(samples["python"], samples["numpy"])
    ]
    return round(statistics.median(ratios), 3)


def _blas_info() -> str:
    """Best-effort name of the BLAS numpy was built against."""
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name", "unknown")
        version = blas.get("version") or ""
        return f"{name} {version}".strip()
    except Exception:  # pragma: no cover - numpy build variations
        return "unknown"


def _collect_environment() -> dict[str, object]:
    """Hardware/software context a perf number is only meaningful in."""
    host_key = "|".join(
        (platform.node(), platform.machine(), platform.processor())
    )
    return {
        "numpy": np.__version__,
        "blas": _blas_info(),
        "backend": default_backend_name(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 0,
        "host_fingerprint": hashlib.sha256(
            host_key.encode("utf-8")
        ).hexdigest()[:16],
    }


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


def run_bench_core(config: BenchCoreConfig | None = None) -> dict[str, object]:
    """Run every scenario and return the JSON-able report."""
    config = config or BenchCoreConfig()
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

    scenarios: dict[str, object] = {}
    scenarios["rd_build"] = _timeit(
        lambda: selector.build_rds(sample_query), repeats
    )
    scenarios["best_set_k1"] = _timeit(
        lambda: TopKComputer(rds, 1).best_set(CorrectnessMetric.ABSOLUTE),
        repeats,
    )
    scenarios["best_set_k3"] = _timeit(
        lambda: TopKComputer(rds, min(3, n)).best_set(
            CorrectnessMetric.ABSOLUTE
        ),
        repeats,
    )
    scenarios["marginals_k3"] = _timeit(
        lambda: TopKComputer(rds, min(3, n)).marginals(), repeats
    )

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
        times, samples = _timeit_interleaved(fns, rounds)
        scenarios[name] = {
            **times,
            "speedup_median": _paired_speedup(samples),
            "repeat_order": list(_VARIANTS),
        }

    report: dict[str, object] = {
        "schema": BENCH_CORE_SCHEMA,
        "config": {
            "scale": config.scale,
            "seed": config.seed,
            "n_train": config.n_train,
            "n_test": config.n_test,
            "repeats": repeats,
            "k": config.k,
            "threshold": config.threshold,
            "apro_queries": config.apro_queries,
            "databases": n,
        },
        "environment": _collect_environment(),
        "scenarios": scenarios,
        "agreement": _agreement(selector, apro_queries, config),
    }
    return report


def validate_bench_core(report: dict[str, object]) -> None:
    """Assert the report matches the bench-core/v3 schema.

    Raises :class:`~repro.exceptions.ReproError` on any violation —
    the CI smoke step runs this plus the agreement flag.
    """
    if report.get("schema") != BENCH_CORE_SCHEMA:
        raise ReproError(
            f"unexpected schema {report.get('schema')!r}, "
            f"wanted {BENCH_CORE_SCHEMA!r}"
        )
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, dict):
        raise ReproError("report has no scenarios mapping")
    for name in _SHARED_SCENARIOS:
        entry = scenarios.get(name)
        if not isinstance(entry, dict) or not {
            "median_ms",
            "p95_ms",
            "repeats",
        } <= set(entry):
            raise ReproError(f"scenario {name!r} malformed: {entry!r}")
    for name in _COMPARED_SCENARIOS:
        entry = scenarios.get(name)
        if not isinstance(entry, dict) or not (
            set(_VARIANTS) | {"speedup_median", "repeat_order"}
        ) <= set(entry):
            raise ReproError(f"scenario {name!r} malformed: {entry!r}")
    agreement = report.get("agreement")
    if not isinstance(agreement, dict) or (
        "backend_matches_python" not in agreement
    ):
        raise ReproError("report has no complete agreement section")
    environment = report.get("environment")
    if not isinstance(environment, dict) or not {
        "numpy",
        "blas",
        "backend",
        "host_fingerprint",
    } <= set(environment):
        raise ReproError("report has no complete environment section")


def read_bench_core(path: str) -> dict[str, object]:
    """Load a committed bench-core/v3 report.

    Raises :class:`~repro.exceptions.ReproError` when the file is
    unreadable or carries any other schema tag.
    """
    import json

    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read bench report {path!r}: {exc}") from exc
    if not isinstance(report, dict):
        raise ReproError(f"bench report {path!r} is not a JSON object")
    schema = report.get("schema")
    if schema != BENCH_CORE_SCHEMA:
        raise ReproError(
            f"bench report {path!r} has unsupported schema {schema!r}"
        )
    return report


def _median_of(entry: object) -> float | None:
    if isinstance(entry, dict) and isinstance(
        entry.get("median_ms"), (int, float)
    ):
        return float(entry["median_ms"])
    return None


def check_bench_core(
    report: dict[str, object],
    reference: dict[str, object] | None,
    tolerance: float = 1.5,
) -> tuple[list[str], list[str]]:
    """Diff a fresh report against a committed reference.

    Returns ``(failures, warnings)``. Failures (CI exits non-zero):

    * the agreement flag in *report* is false — the tensor backend
      diverged from the ``python`` oracle, which no amount of hardware
      variance excuses;
    * a scenario median regressed beyond ``tolerance ×`` the reference
      *and* the reference was produced on the same host with the same
      benchmark configuration (fingerprint + config keys match);
    * a paired python/numpy ratio fell below ``reference / tolerance``
      with the same benchmark configuration (any host). The per-round
      ratios divide out machine state, so unlike absolute milliseconds
      they do transfer — a drop means the tensor kernels got
      *relatively* slower, which is an algorithmic regression.

    On different or unknown hardware the absolute-time regressions come
    back as warnings instead: milliseconds do not transfer between
    machines, so they gate nothing but stay visible in the CI log.
    """
    if tolerance <= 1.0:
        raise ConfigurationError("tolerance must be > 1.0")
    failures: list[str] = []
    warnings: list[str] = []

    agreement = report.get("agreement")
    if not isinstance(agreement, dict) or not agreement.get(
        "backend_matches_python", False
    ):
        failures.append("agreement flag backend_matches_python is false")

    if reference is None:
        return failures, warnings

    report_env = report.get("environment")
    ref_env = reference.get("environment")
    same_host = bool(
        isinstance(report_env, dict)
        and isinstance(ref_env, dict)
        and report_env.get("host_fingerprint")
        and report_env.get("host_fingerprint")
        == ref_env.get("host_fingerprint")
    )
    report_config = report.get("config") or {}
    ref_config = reference.get("config") or {}
    same_config = all(
        report_config.get(key) == ref_config.get(key)
        for key in _COMPARABLE_CONFIG_KEYS
    )
    gate_perf = same_host and same_config

    def compare(label: str, ref_entry: object, new_entry: object) -> None:
        ref_median = _median_of(ref_entry)
        new_median = _median_of(new_entry)
        if ref_median is None or new_median is None or ref_median <= 0:
            return
        if new_median > tolerance * ref_median:
            message = (
                f"{label}: {new_median:.3f} ms vs reference "
                f"{ref_median:.3f} ms (> {tolerance:.2f}x)"
            )
            (failures if gate_perf else warnings).append(message)

    def compare_ratio(label: str, ref_entry: dict, new_entry: dict) -> None:
        ref_ratio = ref_entry.get("speedup_median")
        new_ratio = new_entry.get("speedup_median")
        if not isinstance(ref_ratio, (int, float)) or not isinstance(
            new_ratio, (int, float)
        ):
            return
        if float(new_ratio) < float(ref_ratio) / tolerance:
            message = (
                f"{label}/speedup_median: {float(new_ratio):.2f}x vs "
                f"reference {float(ref_ratio):.2f}x (< 1/{tolerance:.2f})"
            )
            (failures if same_config else warnings).append(message)

    ref_scenarios = reference.get("scenarios")
    new_scenarios = report.get("scenarios")
    if isinstance(ref_scenarios, dict) and isinstance(new_scenarios, dict):
        for name in _SHARED_SCENARIOS:
            compare(name, ref_scenarios.get(name), new_scenarios.get(name))
        for name in _COMPARED_SCENARIOS:
            ref_entry = ref_scenarios.get(name)
            new_entry = new_scenarios.get(name)
            if not isinstance(ref_entry, dict) or not isinstance(
                new_entry, dict
            ):
                continue
            for variant in _VARIANTS:
                compare(
                    f"{name}/{variant}",
                    ref_entry.get(variant),
                    new_entry.get(variant),
                )
            compare_ratio(name, ref_entry, new_entry)
    return failures, warnings


def format_bench_core(report: dict[str, object]) -> str:
    """Human-readable summary of a bench-core report."""
    scenarios = report["scenarios"]
    agreement = report["agreement"]
    environment = report.get("environment", {})
    lines = [
        f"databases            : {report['config']['databases']}",
        f"repeats              : {report['config']['repeats']}",
        (
            "environment          : "
            f"numpy {environment.get('numpy', '?')} "
            f"({environment.get('blas', '?')}), "
            f"backend {environment.get('backend', '?')}"
        ),
    ]
    for name in _SHARED_SCENARIOS:
        entry = scenarios[name]
        lines.append(
            f"{name:<21}: {entry['median_ms']:.3f} ms median "
            f"({entry['p95_ms']:.3f} ms p95)"
        )
    for name in _COMPARED_SCENARIOS:
        entry = scenarios[name]
        lines.append(
            f"{name:<21}: {entry['numpy']['median_ms']:.3f} ms median "
            f"(python {entry['python']['median_ms']:.3f} ms, "
            f"numpy {entry['speedup_median']:.2f}x faster, paired)"
        )
    lines.append(
        "backend==python      : "
        f"{agreement['backend_matches_python']} "
        f"(max certainty delta {agreement['max_certainty_delta']:.2e} "
        f"over {agreement['queries']} queries)"
    )
    return "\n".join(lines)
