"""Query-type classification (paper §4.1 and Fig. 9).

Queries with different shapes exhibit different estimator-error
behaviour, so a separate error distribution is kept per *query type*.
The paper's decision tree has two levels:

1. the number of query terms (more terms ⇒ larger independence error);
2. which *band* the initial estimate r̂(db, q) falls into — a cheap,
   database-dependent proxy for "is this query on-topic for this
   database": low estimates usually mean the true count is zero
   (negative error), high estimates usually hide positive term
   correlation (positive error).

The paper uses the single threshold θ = 10 and notes that other
thresholds were studied in its extended version. This implementation
generalizes to a tuple of thresholds (bands); the default uses
log-spaced bands down to 0.1, which matters at laptop-scale database
sizes where the independence product is frequently below one document —
queries with r̂ ≈ 0.5 and r̂ ≈ 0.001 behave very differently and must not
share an ED. Pass ``estimate_thresholds=QueryTypeClassifier.PAPER_THRESHOLDS``
for the paper's exact two-band tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.types import Query

__all__ = ["QueryType", "QueryTypeClassifier"]


@dataclass(frozen=True, slots=True, order=True)
class QueryType:
    """One leaf of the query-type decision tree.

    ``estimate_band`` is 0 for the lowest estimates and increases with
    r̂; band b means the estimate cleared exactly b of the classifier's
    thresholds.
    """

    num_terms: int
    estimate_band: int

    def label(self, thresholds: Sequence[float] | None = None) -> str:
        """Human-readable label, e.g. ``"2-term, band 1 (0.5 <= r̂ < 10)"``."""
        if thresholds is None:
            return f"{self.num_terms}-term, band {self.estimate_band}"
        band = self.estimate_band
        if band == 0:
            bounds = f"r̂ < {thresholds[0]:g}"
        elif band == len(thresholds):
            bounds = f"r̂ >= {thresholds[-1]:g}"
        else:
            bounds = f"{thresholds[band - 1]:g} <= r̂ < {thresholds[band]:g}"
        return f"{self.num_terms}-term, {bounds}"


class QueryTypeClassifier:
    """Maps (query, estimate) to a :class:`QueryType`.

    Parameters
    ----------
    estimate_thresholds:
        Ascending estimate cut points; n thresholds give n + 1 bands.
        Default :attr:`DEFAULT_THRESHOLDS`; the paper's tree is
        :attr:`PAPER_THRESHOLDS`.
    term_counts:
        The term counts with dedicated types; queries outside the range
        are clamped to the nearest listed count (the trace focuses on
        2- and 3-term queries, but the classifier must accept anything).
    split_on_estimate:
        Disable to ablate the second tree level (one ED per term count).
    """

    DEFAULT_THRESHOLDS: tuple[float, ...] = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0)

    #: The paper's original tree: a single split at θ = 10.
    PAPER_THRESHOLDS: tuple[float, ...] = (10.0,)

    def __init__(
        self,
        estimate_thresholds: Sequence[float] | float = DEFAULT_THRESHOLDS,
        term_counts: tuple[int, ...] = (2, 3),
        split_on_estimate: bool = True,
    ) -> None:
        if isinstance(estimate_thresholds, (int, float)):
            estimate_thresholds = (float(estimate_thresholds),)
        thresholds = tuple(float(t) for t in estimate_thresholds)
        if not thresholds:
            raise ConfigurationError("need at least one estimate threshold")
        if any(t <= 0 for t in thresholds):
            raise ConfigurationError(
                f"estimate thresholds must be positive, got {thresholds}"
            )
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ConfigurationError(
                f"estimate thresholds must be strictly ascending: {thresholds}"
            )
        if not term_counts or any(count < 1 for count in term_counts):
            raise ConfigurationError("term_counts must be positive and non-empty")
        self._thresholds = thresholds
        self._thresholds_array = np.asarray(thresholds, dtype=np.float64)
        self._term_counts = tuple(sorted(set(term_counts)))
        self._split_on_estimate = split_on_estimate

    @property
    def estimate_thresholds(self) -> tuple[float, ...]:
        """The band cut points."""
        return self._thresholds

    @property
    def term_counts(self) -> tuple[int, ...]:
        """The term counts with dedicated types."""
        return self._term_counts

    @property
    def num_bands(self) -> int:
        """Number of estimate bands (thresholds + 1; 1 when disabled)."""
        if not self._split_on_estimate:
            return 1
        return len(self._thresholds) + 1

    def _clamp_terms(self, num_terms: int) -> int:
        if num_terms <= self._term_counts[0]:
            return self._term_counts[0]
        if num_terms >= self._term_counts[-1]:
            return self._term_counts[-1]
        # Snap to the nearest listed count (ties toward the smaller).
        return min(
            self._term_counts, key=lambda count: (abs(count - num_terms), count)
        )

    def band_of(self, estimate: float) -> int:
        """The estimate band: how many thresholds *estimate* clears."""
        if not self._split_on_estimate:
            return 0
        band = 0
        for threshold in self._thresholds:
            if estimate >= threshold:
                band += 1
        return band

    def term_count_of(self, query: Query) -> int:
        """The type's term count for *query* (clamped to the listed counts)."""
        return self._clamp_terms(query.num_terms)

    def bands_of(self, estimates: np.ndarray) -> np.ndarray:
        """:meth:`band_of` of every estimate.

        ``band_of`` counts the thresholds at or below the estimate,
        which is ``searchsorted(..., side="right")``.
        """
        if not self._split_on_estimate:
            return np.zeros(len(estimates), dtype=np.intp)
        return np.searchsorted(self._thresholds_array, estimates, side="right")

    def classify(self, query: Query, estimate: float) -> QueryType:
        """Classify *query* given its estimate on one database.

        Note the classification is database-dependent through *estimate*:
        the same query can land in different bands on different databases
        (paper §4.1).
        """
        return QueryType(
            num_terms=self._clamp_terms(query.num_terms),
            estimate_band=self.band_of(estimate),
        )

    def all_types(self) -> list[QueryType]:
        """Every leaf the classifier can produce (training enumerates these)."""
        return [
            QueryType(count, band)
            for count in self._term_counts
            for band in range(self.num_bands)
        ]

    def label(self, query_type: QueryType) -> str:
        """Label *query_type* with this classifier's threshold bounds."""
        if not self._split_on_estimate:
            return f"{query_type.num_terms}-term"
        return query_type.label(self._thresholds)

    def __repr__(self) -> str:
        return (
            f"QueryTypeClassifier(thresholds={self._thresholds}, "
            f"term_counts={self._term_counts}, "
            f"split_on_estimate={self._split_on_estimate})"
        )
