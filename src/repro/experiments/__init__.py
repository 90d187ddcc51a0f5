"""Experiment harness reproducing every table and figure of the paper.

Each module is one experiment driver returning plain dataclasses;
``benchmarks/`` wraps them in pytest-benchmark entries and ``examples/``
calls them interactively. :mod:`~repro.experiments.setup` assembles the
paper's testbed (databases, query sets, golden standard) once per run.
"""

from repro.experiments.setup import (
    ExperimentContext,
    PaperSetupConfig,
    build_paper_context,
)
from repro.experiments.calibration import CalibrationResult, calibration_curve
from repro.experiments.drift import DriftResult, drift_robustness
from repro.experiments.efficiency import EfficiencyRow, cost_efficiency
from repro.experiments.harness import (
    SelectionQualityResult,
    evaluate_selection_quality,
)
from repro.experiments.similarity import similarity_selection_quality
from repro.experiments.probing_curves import ProbingCurveResult, probing_curves
from repro.experiments.sampling_size import (
    SamplingGoodnessResult,
    sampling_size_goodness,
)
from repro.experiments.threshold_probes import (
    ThresholdProbesResult,
    probes_per_threshold,
)

__all__ = [
    "CalibrationResult",
    "DriftResult",
    "EfficiencyRow",
    "ExperimentContext",
    "PaperSetupConfig",
    "ProbingCurveResult",
    "SamplingGoodnessResult",
    "SelectionQualityResult",
    "ThresholdProbesResult",
    "build_paper_context",
    "calibration_curve",
    "cost_efficiency",
    "drift_robustness",
    "evaluate_selection_quality",
    "similarity_selection_quality",
    "probes_per_threshold",
    "probing_curves",
    "sampling_size_goodness",
]
