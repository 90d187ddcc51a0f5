"""Statistics substrate: distributions, histograms, chi-square testing,
and the nearest-rank percentile every latency summary uses.

Everything here is implemented from first principles (the incomplete
gamma function backing the chi-square tail is written out, not imported),
with scipy used only in the test suite as an oracle.
"""

from repro.stats.chisquare import ChiSquareResult, pearson_chi2_test
from repro.stats.distribution import DiscreteDistribution
from repro.stats.histogram import Histogram
from repro.stats.rank import percentile
from repro.stats.special import chi2_sf, regularized_gamma_p, regularized_gamma_q

__all__ = [
    "ChiSquareResult",
    "DiscreteDistribution",
    "Histogram",
    "chi2_sf",
    "pearson_chi2_test",
    "percentile",
    "regularized_gamma_p",
    "regularized_gamma_q",
]
