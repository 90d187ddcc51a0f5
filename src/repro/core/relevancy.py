"""Relevancy distributions (paper §3.1, Fig. 5).

An RD is the metasearcher's belief about the unknown true relevancy
r(db, q): the point estimate r̂ pushed through the learned error
distribution, ``P[r = r̂·(1 + e)] = ED(e)``. Probing a database collapses
its RD to an impulse at the observed value.

One query's RDs travel as a :class:`PackedRDs`: flat atom arrays from
the RD build to :class:`~repro.core.topk.TopKComputer`, with a
:class:`~repro.stats.distribution.DiscreteDistribution` made only when
an item is read.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.errors import DEFAULT_ESTIMATE_FLOOR, ErrorDistribution
from repro.hiddenweb.database import RelevancyDefinition
from repro.stats.distribution import DiscreteDistribution

__all__ = ["RelevancyDistribution", "PackedRDs", "derive_rd"]

#: An RD is simply a finite discrete distribution over relevancy values.
RelevancyDistribution = DiscreteDistribution


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def segment_index(
    starts: np.ndarray, segments: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(index, bounds)`` gathering CSR *segments*, one after another.

    Segment s spans ``starts[s]:starts[s + 1]`` of some flat array;
    ``array[index]`` holds the listed segments back to back, the j-th
    at ``bounds[j]:bounds[j + 1]``.
    """
    first = starts[segments]
    counts = starts[segments + 1] - first
    bounds = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=bounds[1:])
    index = np.repeat(first - bounds[:-1], counts)
    index += np.arange(bounds[-1])
    return index, bounds


#: The certain zero's RD, shared by every sequence that holds one.
_ZERO = DiscreteDistribution.impulse(0.0)


class PackedRDs(Sequence):
    """A sequence of RDs stored as flat atom arrays.

    Segment s holds the atoms ``values[starts[s]:starts[s + 1]]`` with
    ``probs`` alongside (value-ascending, as every RD), and item i is
    segment ``segment[i]``. Items may share a segment:
    :meth:`~repro.core.selection.RDBasedSelector.build_rds` points
    every certain zero at one ``impulse(0.0)``. Reading item i wraps
    its segment in a :class:`DiscreteDistribution` (one object per
    segment, made on first read). Assigning item i gives it a new
    segment, held as the assigned object until the next array read
    packs it; the arrays themselves are never written, so a
    :meth:`select` view or a computer built earlier keeps its atoms.
    """

    __slots__ = ("_values", "_probs", "_starts", "_segment", "_objects")

    def __init__(
        self,
        values: np.ndarray,
        probs: np.ndarray,
        starts: np.ndarray,
        segment: np.ndarray,
    ) -> None:
        self._values = _frozen(values)
        self._probs = _frozen(probs)
        self._starts = starts
        self._segment = segment
        self._objects: list[DiscreteDistribution | None] = [None] * (
            len(starts) - 1
        )

    @classmethod
    def of(cls, rds: Iterable[DiscreteDistribution]) -> "PackedRDs":
        """*rds* packed, one segment per item (a ``PackedRDs`` as is)."""
        if isinstance(rds, PackedRDs):
            return rds
        rds = list(rds)
        counts = np.fromiter(
            (rd.support_size for rd in rds), dtype=np.intp, count=len(rds)
        )
        starts = np.zeros(len(rds) + 1, dtype=np.intp)
        np.cumsum(counts, out=starts[1:])
        if rds:
            values = np.concatenate([rd.values for rd in rds])
            probs = np.concatenate([rd.probs for rd in rds])
        else:
            values = probs = np.empty(0, dtype=np.float64)
        packed = cls(values, probs, starts, np.arange(len(rds)))
        packed._objects = rds
        return packed

    @classmethod
    def scattered(
        cls, n: int, rows: np.ndarray, rds: "PackedRDs"
    ) -> "PackedRDs":
        """*n* items: ``rds[j]`` at item ``rows[j]``, ``impulse(0.0)`` elsewhere.

        *rds* must hold one segment per item, in item order (as
        :meth:`of` packs them and :func:`derive_packed` returns them).
        Every other item shares segment 0, the zero impulse.
        """
        rds._pack()
        segment = np.zeros(n, dtype=np.intp)
        segment[rows] = np.arange(1, len(rows) + 1)
        packed = cls(
            np.concatenate(([0.0], rds._values)),
            np.concatenate(([1.0], rds._probs)),
            np.concatenate(([0], rds._starts + 1)),
            segment,
        )
        packed._objects[0] = _ZERO
        return packed

    def __len__(self) -> int:
        return len(self._segment)

    def __getitem__(self, i: int) -> DiscreteDistribution:
        s = self._segment.item(i)
        rd = self._objects[s]
        if rd is None:
            lo, hi = self._starts[s], self._starts[s + 1]
            rd = self._objects[s] = DiscreteDistribution._trusted(
                self._values[lo:hi], self._probs[lo:hi]
            )
        return rd

    def __setitem__(self, i: int, rd: DiscreteDistribution) -> None:
        self._segment[i] = len(self._objects)
        self._objects.append(rd)

    def _pack(self) -> None:
        """Append the atoms of segments assigned since the last pack."""
        packed = len(self._starts) - 1
        if packed == len(self._objects):
            return
        assigned = self._objects[packed:]
        self._values = _frozen(
            np.concatenate([self._values] + [rd.values for rd in assigned])
        )
        self._probs = _frozen(
            np.concatenate([self._probs] + [rd.probs for rd in assigned])
        )
        self._starts = np.concatenate(
            (
                self._starts,
                self._starts[-1]
                + np.cumsum([rd.support_size for rd in assigned]),
            )
        )

    def select(self, rows: Sequence[int] | np.ndarray) -> "PackedRDs":
        """Items *rows*, in that order, over the same atom arrays."""
        self._pack()
        view = PackedRDs.__new__(PackedRDs)
        view._values = self._values
        view._probs = self._probs
        view._starts = self._starts
        view._segment = self._segment[np.asarray(rows, dtype=np.intp)]
        view._objects = list(self._objects)
        return view

    def support_sizes(self) -> np.ndarray:
        """Atom count of every item."""
        self._pack()
        return self._starts[self._segment + 1] - self._starts[self._segment]

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Every item's (min, max) support value: its segment's ends."""
        self._pack()
        return (
            self._values[self._starts[self._segment]],
            self._values[self._starts[self._segment + 1] - 1],
        )

    def atoms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(values, probs, bounds)``: every item's atoms, item after item.

        Item i's atoms are ``values[bounds[i]:bounds[i + 1]]`` — the
        arrays ``np.concatenate`` over the items would give, gathered
        in one pass.
        """
        self._pack()
        index, bounds = segment_index(self._starts, self._segment)
        return self._values[index], self._probs[index], bounds

    def __repr__(self) -> str:
        return (
            f"PackedRDs(items={len(self)}, segments={len(self._objects)})"
        )


def derive_rd(
    estimate: float,
    error_distribution: ErrorDistribution,
    definition: RelevancyDefinition = RelevancyDefinition.DOCUMENT_FREQUENCY,
    estimate_floor: float = DEFAULT_ESTIMATE_FLOOR,
) -> RelevancyDistribution:
    """Derive the RD of a database from its estimate and its ED.

    Each ED atom *e* maps to the relevancy value ``r̂'·(1 + e)`` where
    ``r̂' = max(r̂, floor)`` matches the floor used when the errors were
    measured (so training and inference invert each other exactly).
    Under the document-frequency definition values are rounded to whole
    documents and clamped at zero; colliding values merge. Under the
    similarity definition values are clamped into [0, 1].

    Parameters
    ----------
    estimate:
        r̂(db, q) from the relevancy estimator.
    error_distribution:
        The ED of the database for the query's type.
    definition:
        Which relevancy definition the values live in.
    estimate_floor:
        Must equal the floor used during ED training.
    """
    floored = max(estimate, estimate_floor)
    errors = error_distribution.to_distribution()
    if definition is RelevancyDefinition.DOCUMENT_FREQUENCY:
        return errors.map(
            lambda e: float(max(0, round(floored * (1.0 + e))))
        )
    return errors.map(lambda e: min(1.0, max(0.0, floored * (1.0 + e))))


def derive_packed(
    estimates: np.ndarray,
    counts: np.ndarray,
    error_values: np.ndarray,
    error_probs: np.ndarray,
    definition: RelevancyDefinition,
    estimate_floor: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`derive_rd` of every item, from its ED's flat atoms.

    Item i has estimate ``estimates[i]`` and the next ``counts[i]``
    atoms of *error_values* / *error_probs* (an ED's
    ``to_distribution()``). Every atom is mapped as :func:`derive_rd`
    maps it, zero-weight atoms are dropped and colliding values of one
    item merge; each RD's probabilities are then normalized exactly as
    :meth:`DiscreteDistribution.from_pairs` would. Returns ``(values,
    probs, starts)``: RD i is segment i.

    The RDs are bitwise :func:`derive_rd`'s. The map is monotone
    nondecreasing within an item (ED values ascend and the floored
    estimate is positive), so colliding values form adjacent runs, and
    ``np.bincount`` over run labels adds each run's weights one by one
    in atom order, the sum ``from_pairs`` builds (``np.add.reduceat``
    would not: it sums runs of 8+ atoms pairwise).
    """
    owner = np.repeat(np.arange(len(counts)), counts)
    raw = np.repeat(np.maximum(estimates, estimate_floor), counts) * (
        1.0 + error_values
    )
    if definition is RelevancyDefinition.DOCUMENT_FREQUENCY:
        mapped = np.maximum(0.0, np.round(raw))
    else:
        mapped = np.minimum(1.0, np.maximum(0.0, raw))
    # Mirror from_pairs: drop zero-weight atoms before merging.
    keep = error_probs > 0
    if not keep.all():
        mapped, error_probs, owner = mapped[keep], error_probs[keep], owner[keep]
    boundary = np.ones(len(mapped), dtype=bool)
    np.logical_or(
        mapped[1:] != mapped[:-1], owner[1:] != owner[:-1], out=boundary[1:]
    )
    first = np.flatnonzero(boundary)
    weights = np.bincount(np.cumsum(boundary) - 1, weights=error_probs)
    starts = np.searchsorted(owner[first], np.arange(len(counts) + 1))
    return (
        mapped[first],
        DiscreteDistribution._normalized_segments(weights, starts),
        starts,
    )
