"""The one percentile rule every latency summary in the package uses.

Bench reports (:mod:`repro.bench`), metrics histograms
(:mod:`repro.service.metrics`) and the span tier breakdown
(:mod:`repro.obs.report`) all rank by it, so a p50 means the same
sample wherever it is printed. Imports nothing else from
:mod:`repro`, so any layer may use it.
"""

from __future__ import annotations

__all__ = ["percentile"]


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank *pct* percentile of an ascending, non-empty list."""
    rank = max(1, round(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]
