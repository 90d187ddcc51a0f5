"""Finite discrete probability distributions.

The workhorse value type of the probabilistic relevancy model: both error
distributions (over relative-error values) and relevancy distributions
(over relevancy values) reduce to a :class:`DiscreteDistribution`.
Distributions are immutable; atoms are kept sorted by value with
duplicate values merged.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

import numpy as np

from repro.exceptions import DistributionError

__all__ = ["DiscreteDistribution"]

_PROB_TOLERANCE = 1e-9


class DiscreteDistribution:
    """An immutable finite distribution over real values.

    Construct via :meth:`from_pairs`, :meth:`from_samples` or
    :meth:`impulse`. Atom values are unique and ascending; probabilities
    are normalized to sum to exactly 1.0.
    """

    __slots__ = ("_values", "_probs", "_cumulative")

    def __init__(self, values: np.ndarray, probs: np.ndarray) -> None:
        """Internal constructor; prefer the classmethod factories."""
        if values.ndim != 1 or probs.ndim != 1 or len(values) != len(probs):
            raise DistributionError("values and probs must be equal-length 1-D")
        if len(values) == 0:
            raise DistributionError("a distribution needs at least one atom")
        if np.any(probs < -_PROB_TOLERANCE):
            raise DistributionError("negative probability mass")
        total = float(probs.sum())
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
            raise DistributionError(f"probabilities sum to {total}, expected 1")
        if np.any(np.diff(values) <= 0):
            raise DistributionError("values must be strictly ascending")
        self._values = values
        self._probs = np.clip(probs, 0.0, None) / max(total, _PROB_TOLERANCE)
        self._cumulative = None

    # -- factories ----------------------------------------------------------

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[float, float]]
    ) -> "DiscreteDistribution":
        """Build from (value, weight) pairs.

        Weights need not be normalized; equal values are merged;
        zero-weight atoms are dropped.
        """
        merged: dict[float, float] = {}
        for value, weight in pairs:
            if weight < 0:
                raise DistributionError(f"negative weight {weight} for {value}")
            if weight > 0:
                merged[float(value)] = merged.get(float(value), 0.0) + weight
        if not merged:
            raise DistributionError("no positive-weight atoms supplied")
        values = np.array(sorted(merged), dtype=np.float64)
        weights = np.array([merged[v] for v in values], dtype=np.float64)
        return cls(values, weights / weights.sum())

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "DiscreteDistribution":
        """Empirical distribution of *samples* (equal weight each)."""
        sample_list = [float(s) for s in samples]
        if not sample_list:
            raise DistributionError("cannot build a distribution from no samples")
        return cls.from_pairs((value, 1.0) for value in sample_list)

    @classmethod
    def impulse(cls, value: float) -> "DiscreteDistribution":
        """The degenerate distribution concentrated at *value*."""
        # Direct construction: the validating path reproduces exactly
        # these arrays for a single unit atom, and impulses are built in
        # bulk on the probing hot path (one per observation/collapse).
        self = object.__new__(cls)
        self._values = np.array([float(value)], dtype=np.float64)
        self._probs = np.array([1.0], dtype=np.float64)
        self._cumulative = None
        return self

    @classmethod
    def _trusted(
        cls, values: np.ndarray, probs: np.ndarray
    ) -> "DiscreteDistribution":
        """Wrap arrays that already satisfy every invariant, uncopied.

        Internal fast path for packed RD storage
        (:class:`~repro.core.relevancy.PackedRDs`): *values* strictly
        ascending, *probs* exactly what the validating route would
        have stored. Nothing is checked or recomputed, so the atoms
        keep their bits.
        """
        self = object.__new__(cls)
        self._values = values
        self._probs = probs
        self._cumulative = None
        return self

    @staticmethod
    def _normalized_segments(
        weights: np.ndarray, starts: np.ndarray
    ) -> np.ndarray:
        """The probs :meth:`from_pairs` stores, for many merged supports.

        Segment j is ``weights[starts[j]:starts[j + 1]]``: one support's
        merged positive weights, values ascending. Each segment gets
        ``from_pairs``' ``w / w.sum()`` and then ``__init__``'s division
        by the re-summed total (its clip is an identity on positive
        weights), with every sum in ``ndarray.sum``'s order: a left fold
        below 8 elements — the order ``np.bincount`` adds in — and
        numpy's 8-accumulator pairwise sum from 8 up, which those few
        segments get from ``.sum()`` itself. (``np.add.reduceat`` adds
        in neither order.) The result is bitwise the per-support route.
        """
        lengths = np.diff(starts)
        labels = np.repeat(np.arange(len(lengths)), lengths)
        long_segments = np.flatnonzero(lengths >= 8).tolist()

        def segment_sums(terms: np.ndarray) -> np.ndarray:
            sums = np.bincount(labels, weights=terms, minlength=len(lengths))
            for j in long_segments:
                sums[j] = terms[starts[j] : starts[j + 1]].sum()
            return sums

        probs = weights / segment_sums(weights)[labels]
        totals = np.maximum(segment_sums(probs), _PROB_TOLERANCE)
        return probs / totals[labels]

    # -- atoms --------------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """Atom values, ascending (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def probs(self) -> np.ndarray:
        """Atom probabilities aligned with :attr:`values` (read-only)."""
        view = self._probs.view()
        view.flags.writeable = False
        return view

    def atoms(self) -> Iterator[tuple[float, float]]:
        """Iterate (value, probability) pairs, value-ascending."""
        return zip(self._values.tolist(), self._probs.tolist())

    @property
    def support_size(self) -> int:
        """Number of atoms."""
        return len(self._values)

    @property
    def is_impulse(self) -> bool:
        """True when all mass sits on a single value."""
        return len(self._values) == 1

    def _cum(self) -> np.ndarray:
        # Cumulative mass, built on first need: the probing hot path
        # constructs thousands of RDs per second and touches cdf/sample
        # on almost none of them.
        if self._cumulative is None:
            self._cumulative = np.cumsum(self._probs)
        return self._cumulative

    # -- moments and probabilities -------------------------------------------

    def mean(self) -> float:
        """E[X]."""
        return float(self._values @ self._probs)

    def variance(self) -> float:
        """Var[X] (non-negative by clamping tiny numerical negatives)."""
        mean = self.mean()
        return max(0.0, float(((self._values - mean) ** 2) @ self._probs))

    def entropy(self) -> float:
        """Shannon entropy in nats."""
        probs = self._probs[self._probs > 0]
        return float(-(probs * np.log(probs)).sum())

    def cdf(self, x: float) -> float:
        """P[X <= x]."""
        idx = int(np.searchsorted(self._values, x, side="right"))
        if idx == 0:
            return 0.0
        return float(self._cum()[idx - 1])

    def sf(self, x: float) -> float:
        """P[X > x] (strict)."""
        return 1.0 - self.cdf(x)

    def prob_of(self, x: float) -> float:
        """P[X == x] (exact value match)."""
        idx = int(np.searchsorted(self._values, x))
        if idx < len(self._values) and self._values[idx] == x:
            return float(self._probs[idx])
        return 0.0

    # -- transforms ------------------------------------------------------------

    def map(self, fn) -> "DiscreteDistribution":
        """Push the distribution through *fn*, merging collided values."""
        return DiscreteDistribution.from_pairs(
            (fn(value), prob) for value, prob in self.atoms()
        )

    def sample(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """Draw *count* i.i.d. values."""
        positions = np.searchsorted(self._cum(), rng.random(count))
        positions = np.minimum(positions, len(self._values) - 1)
        return self._values[positions]

    # -- comparison ---------------------------------------------------------

    def allclose(self, other: "DiscreteDistribution", atol: float = 1e-9) -> bool:
        """Approximate equality of supports and probabilities."""
        return (
            self.support_size == other.support_size
            and bool(np.allclose(self._values, other._values, atol=atol))
            and bool(np.allclose(self._probs, other._probs, atol=atol))
        )

    def __repr__(self) -> str:
        if self.is_impulse:
            return f"DiscreteDistribution(impulse at {self._values[0]:g})"
        return (
            f"DiscreteDistribution(atoms={self.support_size}, "
            f"mean={self.mean():.4g})"
        )
