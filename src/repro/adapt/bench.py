"""``bench-drift``: online adaptation vs. a frozen model under drift.

The benchmark replays a deterministic query stream against a testbed
whose content shifts mid-stream — every database is regenerated from a
*rotated* topic mixture and a fresh random stream, the sharpest drift
the corpus generator can produce — and measures, phase by phase, how an
adapting service and a frozen one cope with the same shift:

* ``pre`` — the stream before the switch, scored against the original
  content (both services are freshly trained, so this phase doubles as
  the identical-starting-point check);
* ``post_early`` — immediately after the switch: the adapted service is
  still accumulating evidence, so both should degrade;
* ``post_late`` — after the adapted service has had time to detect
  drift and hot-swap refreshed EDs: the benchmark's claim is that its
  selection quality and certainty calibration recover here while the
  frozen service stays degraded.

Content switching happens *under a live service* through
:class:`_SwitchableDatabase` proxies: the mediator the metasearcher was
trained over holds proxies whose targets are flipped between the
original and drifted corpora, exactly like a hidden-web database
changing out from under a deployed metasearcher. Summaries stay stale
throughout — serve-time adaptation can refresh error distributions,
not summaries — so the adapted service wins by learning the *new error
pattern* of its stale estimates, which is precisely the paper's ED
mechanism pointed at drift.

Scoring uses golden standards built over the *current* content of each
phase; certainty calibration is the mean absolute gap between an
answer's reported certainty and its actual correctness.
:func:`drift_gates` records the headline claims as gates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro import bench
from repro.core.correctness import GoldenStandard
from repro.corpus.collections import testbed_specs
from repro.corpus.generator import DocumentGenerator
from repro.corpus.zipf import ZipfVocabulary
from repro.exceptions import ConfigurationError
from repro.experiments.setup import PaperSetupConfig, build_paper_context
from repro.hiddenweb.mediator import Mediator
from repro.metasearch.metasearcher import Metasearcher, MetasearcherConfig
from repro.service.server import MetasearchService, ServiceConfig
from repro.types import Query

__all__ = [
    "BenchDriftConfig",
    "run_bench_drift",
    "drift_gates",
    "format_bench_drift",
]

_PHASES = ("pre", "post_early", "post_late")


class _SwitchableDatabase:
    """A database proxy whose target can be swapped out mid-stream.

    Presents the full :class:`HiddenWebDatabase` surface by delegation;
    only ``name`` is pinned (mediator identity must survive a content
    switch, like a real endpoint whose URL outlives its corpus).
    """

    def __init__(self, name: str, target) -> None:
        self._name = name
        self._target = target

    @property
    def name(self) -> str:
        return self._name

    def switch(self, target) -> None:
        self._target = target

    def __getattr__(self, attribute):
        return getattr(self._target, attribute)

    def __repr__(self) -> str:
        return f"_SwitchableDatabase({self._name!r})"


@dataclass(frozen=True)
class BenchDriftConfig:
    """Knobs of the drift benchmark.

    The adaptation knobs are deliberately more aggressive than the
    serving defaults (small window, low sample floor, loose
    significance, ``auto_swap`` on): the benchmark compresses days of
    drift into a few hundred queries, so the loop must react within
    one phase's worth of observations.

    The certainty target defaults to the probe-frugal regime (0.5,
    ~7 probes over 20 databases) rather than the paper's high-accuracy
    settings: with a generous probe budget APro probes its way to the
    truth regardless of model quality and the adapted/frozen gap
    vanishes. Adaptation earns its keep exactly when the model — not
    the probes — carries the answer.
    """

    scale: float = 0.05
    seed: int = 2004
    n_train: int = 200
    n_test: int = 80
    queries_per_phase: int = 60
    k: int = 3
    certainty: float = 0.5
    batch_size: int = 8
    max_probes: int | None = None
    train_queries_cap: int | None = 120
    drift_seed: int = 10_000
    drift_fraction: float = 0.5
    adapt_window: int = 192
    adapt_check_every: int = 48
    adapt_significance: float = 0.05
    adapt_min_samples: int = 12
    context: object | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.queries_per_phase < 1:
            raise ConfigurationError("queries_per_phase must be >= 1")
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")
        if not 0.0 < self.drift_fraction <= 1.0:
            raise ConfigurationError("drift_fraction must be in (0, 1]")


def _drifted_specs(config: BenchDriftConfig, setup: PaperSetupConfig):
    """The testbed recipes of the post-switch world.

    A deterministic ``drift_fraction`` subset of databases has its
    topic mixture rotated to the next drifted database's mixture and
    its content seed shifted — same names, same sizes, different
    content. Partial drift is the realistic (and interesting) regime:
    serve-time adaptation refreshes error distributions, not
    summaries, so its recovery path is *demoting* databases whose
    stale estimates went bad and letting still-accurate ones absorb
    the demand; with every database drifted there is nowhere accurate
    left to shift to and both legs stay pinned near the floor.
    """
    specs = testbed_specs(setup.scale)
    count = max(2, round(len(specs) * config.drift_fraction))
    rng = random.Random(config.seed + 77)
    chosen = sorted(rng.sample(range(len(specs)), min(count, len(specs))))
    rotated = {
        index: specs[chosen[(position + 1) % len(chosen)]].topic_mixture
        for position, index in enumerate(chosen)
    }
    return [
        replace(
            spec,
            topic_mixture=rotated[i],
            seed=spec.seed + config.drift_seed,
        )
        if i in rotated
        else spec
        for i, spec in enumerate(specs)
    ]


def _phase_stream(
    queries: list[Query], phase_index: int, config: BenchDriftConfig
) -> list[Query]:
    """The same unique queries, replayed in a phase-specific order.

    Reusing one query set across phases keeps the quality comparison
    apples-to-apples: any per-phase difference comes from the content
    switch and the model, never from easier or harder queries.
    """
    stream = list(queries)
    random.Random(config.seed + 1000 + phase_index).shuffle(stream)
    return stream


def _replay_phase(
    service: MetasearchService,
    stream: list[Query],
    golden: GoldenStandard,
    config: BenchDriftConfig,
) -> dict:
    total_abs = total_part = total_probes = total_gap = 0.0
    answered = 0
    for query in stream:
        answer = service.serve(query, k=config.k, certainty=config.certainty)
        answered += 1
        cor_a, cor_p = golden.score(query, answer.selected, config.k)
        total_abs += cor_a
        total_part += cor_p
        total_probes += answer.probes
        total_gap += abs(answer.certainty - cor_a)
    count = max(answered, 1)
    return {
        "queries": len(stream),
        "answered": answered,
        "avg_absolute": round(total_abs / count, 6),
        "avg_partial": round(total_part / count, 6),
        "avg_probes": round(total_probes / count, 3),
        "calibration_error": round(total_gap / count, 6),
    }


def _run_leg(
    adapt: bool,
    metasearcher: Metasearcher,
    proxies: list[_SwitchableDatabase],
    mediators: dict[str, Mediator],
    goldens: dict[str, GoldenStandard],
    unique: list[Query],
    config: BenchDriftConfig,
) -> dict:
    """Replay all three phases through one service (adapted or frozen)."""
    for proxy in proxies:
        proxy.switch(mediators["original"][proxy.name])
    service_config = ServiceConfig(
        max_workers=1,
        batch_size=config.batch_size,
        cache_enabled=False,
        pool_workers=0,
        adapt=adapt,
        adapt_window=config.adapt_window,
        adapt_check_every=config.adapt_check_every,
        adapt_significance=config.adapt_significance,
        adapt_min_samples=config.adapt_min_samples,
        adapt_auto_swap=True,
    )
    with MetasearchService(metasearcher, config=service_config) as service:
        initial_fingerprint = service.state_fingerprint
        phases: dict[str, dict] = {}
        for phase_index, phase in enumerate(_PHASES):
            if phase == "post_early":
                # The drift moment: every database's content flips to
                # the rotated-topic corpus under the live service.
                for proxy in proxies:
                    proxy.switch(mediators["drifted"][proxy.name])
            content = "original" if phase == "pre" else "drifted"
            phases[phase] = _replay_phase(
                service,
                _phase_stream(unique, phase_index, config),
                goldens[content],
                config,
            )
        counters = service.snapshot()["counters"]
        adaptation = service.adaptation
        return {
            "adapt": adapt,
            "phases": phases,
            "fingerprints": {
                "initial": initial_fingerprint,
                "final": service.state_fingerprint,
            },
            "drift": {
                "observations": int(counters["adapt_observations_total"]),
                "checks": int(counters["adapt_drift_checks"]),
                "flagged": int(counters["adapt_drift_flagged"]),
                "swaps": int(counters["adapt_swaps_total"]),
                "flagged_databases": (
                    sorted(
                        {
                            name
                            for report in adaptation.swaps
                            for name in report.drifted
                        }
                    )
                    if adaptation is not None
                    else []
                ),
            },
            "lost_requests": sum(
                phase["queries"] - phase["answered"]
                for phase in phases.values()
            ),
        }


def run_bench_drift(
    config: BenchDriftConfig | None = None,
) -> dict[str, object]:
    """Run the drift benchmark; returns the ``bench/v1`` document
    committed as ``BENCH_drift.json``."""
    config = config or BenchDriftConfig()
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
    setup = context.config

    background = ZipfVocabulary(
        setup.background_vocab_size, seed=setup.seed + 1
    )
    generator = DocumentGenerator(context.registry, background)
    drifted_corpora = {
        spec.name: generator.generate(spec)
        for spec in _drifted_specs(config, setup)
    }
    mediators = {
        "original": context.mediator,
        "drifted": Mediator.from_documents(
            drifted_corpora, analyzer=context.analyzer
        ),
    }
    goldens = {
        "original": context.golden,
        "drifted": GoldenStandard(mediators["drifted"], setup.definition),
    }

    # The metasearcher trains over switchable proxies pointed at the
    # original content; the drift moment later flips their targets
    # under the live service.
    proxies = [
        _SwitchableDatabase(name, mediators["original"][name])
        for name in mediators["original"].names
    ]
    switchable = Mediator(proxies)
    metasearcher = Metasearcher(
        switchable,
        MetasearcherConfig(
            probe_batch_size=config.batch_size,
            max_probes=config.max_probes,
        ),
        analyzer=context.analyzer,
    )
    train = context.train_queries
    if config.train_queries_cap is not None:
        train = train[: config.train_queries_cap]
    metasearcher.train(train)

    unique = context.test_queries[: config.queries_per_phase]
    if not unique:
        raise ConfigurationError("testbed produced no test queries")

    legs = {
        "adapted": _run_leg(
            True, metasearcher, proxies, mediators, goldens, unique, config
        ),
        "frozen": _run_leg(
            False, metasearcher, proxies, mediators, goldens, unique, config
        ),
    }

    adapted_late = legs["adapted"]["phases"]["post_late"]
    frozen_late = legs["frozen"]["phases"]["post_late"]
    results = {
        "phases": list(_PHASES),
        "runs": legs,
        "post_late": {
            "quality_delta": round(
                adapted_late["avg_absolute"] - frozen_late["avg_absolute"], 6
            ),
            "calibration_delta": round(
                frozen_late["calibration_error"]
                - adapted_late["calibration_error"],
                6,
            ),
        },
    }
    return bench.report(
        "bench-drift",
        {
            "scale": config.scale,
            "seed": config.seed,
            "queries_per_phase": config.queries_per_phase,
            "k": config.k,
            "certainty": config.certainty,
            "batch_size": config.batch_size,
            "max_probes": config.max_probes,
            "drift_seed": config.drift_seed,
            "drift_fraction": config.drift_fraction,
            "adapt_window": config.adapt_window,
            "adapt_check_every": config.adapt_check_every,
            "adapt_significance": config.adapt_significance,
            "adapt_min_samples": config.adapt_min_samples,
            "databases": len(mediators["original"]),
        },
        results,
        drift_gates(results),
    )


def drift_gates(results: dict[str, object]) -> list[dict[str, object]]:
    """The benchmark's headline claims, as recorded gates.

    Both legs replay every phase without losing a request; the frozen
    leg never swaps or changes its model; the adapted leg flags drift
    and hot-swaps a changed model; and by ``post_late`` it has
    recovered — strictly better calibrated and no worse on selection
    quality than the frozen leg. Missing measurements fail their gate.
    """
    runs = results.get("runs") or {}
    gates: list[dict[str, object]] = []
    for leg in ("adapted", "frozen"):
        run = runs.get(leg) or {}
        gates += [
            bench.gate(
                f"{leg}.phases",
                sum(phase in run.get("phases", {}) for phase in _PHASES),
                len(_PHASES),
                "==",
            ),
            bench.gate(
                f"{leg}.lost_requests", run.get("lost_requests"), 0, "=="
            ),
        ]
    adapted, frozen = runs.get("adapted") or {}, runs.get("frozen") or {}

    def model_changed(run: dict) -> bool | None:
        fingerprints = run.get("fingerprints")
        if not fingerprints:
            return None
        return fingerprints.get("initial") != fingerprints.get("final")

    post_late = results.get("post_late") or {}
    return gates + [
        bench.gate(
            "frozen.swaps", frozen.get("drift", {}).get("swaps"), 0, "=="
        ),
        bench.gate("frozen.model_changed", model_changed(frozen), False, "=="),
        bench.gate(
            "adapted.drift_flagged",
            adapted.get("drift", {}).get("flagged"),
            1,
            ">=",
        ),
        bench.gate(
            "adapted.swaps", adapted.get("drift", {}).get("swaps"), 1, ">="
        ),
        bench.gate(
            "adapted.model_changed", model_changed(adapted), True, "=="
        ),
        bench.gate(
            "post_late.recovery.calibration_delta",
            post_late.get("calibration_delta"),
            0,
            ">",
        ),
        bench.gate(
            "post_late.recovery.quality_delta",
            post_late.get("quality_delta"),
            0,
            ">=",
        ),
    ]


def format_bench_drift(document: dict[str, object]) -> str:
    """Human-readable phase table of a bench-drift document."""
    config, results = document["config"], document["results"]
    lines = [
        f"databases            : {config['databases']}",
        f"queries per phase    : {config['queries_per_phase']} "
        f"(k={config['k']}, certainty={config['certainty']})",
        f"{'run':<8} {'phase':<11} {'Cor_a':>7} {'Cor_p':>7} "
        f"{'probes':>7} {'|cal err|':>10}",
    ]
    for leg in ("adapted", "frozen"):
        for phase in _PHASES:
            row = results["runs"][leg]["phases"][phase]
            lines.append(
                f"{leg:<8} {phase:<11} {row['avg_absolute']:>7.3f} "
                f"{row['avg_partial']:>7.3f} "
                f"{row['avg_probes']:>7.2f} "
                f"{row['calibration_error']:>10.4f}"
            )
    adapted = results["runs"]["adapted"]
    drift = adapted["drift"]
    post_late = results["post_late"]
    lines += [
        f"drift checks/flagged : {drift['checks']} / {drift['flagged']} "
        f"(databases: {', '.join(drift['flagged_databases']) or '-'})",
        f"model swaps          : {drift['swaps']} "
        f"({adapted['fingerprints']['initial']} -> "
        f"{adapted['fingerprints']['final']})",
        f"post-late deltas     : quality "
        f"{post_late['quality_delta']:+.3f}, calibration "
        f"{post_late['calibration_delta']:+.4f} (adapted vs frozen)",
    ]
    return "\n".join(lines)
