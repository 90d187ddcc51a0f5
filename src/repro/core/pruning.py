"""Provable candidate pruning for top-k selection at federated scale.

Every layer above the core pays O(n) RD builds *and* an O(n² · s)
``TopKComputer`` per query, so selection cost grows (super)linearly in
the number of mediated databases. At federated scale (hundreds to
thousands of sources) most databases are obviously irrelevant to any
one query — their entire relevancy support sits below other databases'
*worst case* — and this module computes the cheap per-database bounds
that prove it, so APro can run the expensive belief machinery on the
survivors only.

Soundness (the bound the exact mode rests on)
---------------------------------------------

The belief core ranks atoms by the strict total order

    ``(value, -database)``: higher relevancy wins, and on equal values
    the earlier mediation index wins (``np.lexsort((-dbs, values))`` in
    :mod:`repro.core.topk`).

Write ``best(i) = (max support(RD_i), -i)`` and ``worst(j) =
(min support(RD_j), -j)``. If ``worst(j) > best(i)`` lexicographically,
then *every* atom of database ``j`` outranks *every* atom of database
``i`` — database ``j`` beats ``i`` with certainty, under every
realization and every future probe outcome consistent with the current
belief state. An observation inside the probed database's prior
``[min, max]`` only narrows its bounds — its worst case can only rise
and its best case only fall — so no certain-beat relation weakens and
the survivor set cannot grow; an out-of-support observation can weaken
the certificate, which is why APro re-checks it after such a probe
(:meth:`repro.core.probing.APro.run`).

Therefore, if at least ``k`` databases certainly beat database ``i``,
then ``i`` is in no top-k set with positive probability: its top-k
membership marginal is zero and no best set contains it. Probing it
cannot raise the certainty either, but a policy may still pick it when
no probe can (the greedy tie rule takes the earliest candidate), so
APro drops such a database only once it is settled — an impulse no
policy can pick. Pruning then cannot change the selection, the probe
order, or the certainty beyond the repo's standard floating-point
contract (certainty deltas ≤ 1e-9; in practice the residual is
~1e-15, the probability-normalization ulp — see docs/PERFORMANCE.md
"Selection at scale").

Floor guarantee: the ``k`` databases with the largest ``worst(·)`` keys
are never prunable — for such a database ``i``, any certain better
``j`` satisfies ``worst(j) > best(i) >= worst(i)``, and fewer than
``k`` databases have ``worst(j) > worst(i)`` by construction. Hence
``len(survivors) >= min(k, n)`` always, and the restricted computer is
well-formed.

The test itself is one threshold: at least ``k`` databases certainly
beat ``i`` exactly when the ``k``-th largest ``worst(·)`` key outranks
``best(i)``, so :func:`prunable_mask` finds that key with one
``np.partition`` and compares every ``best(·)`` against it — O(n) array
work, exact float comparisons, no per-database loop however many
bounds tie.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.relevancy import PackedRDs

__all__ = ["support_bounds", "prunable_mask"]


def support_bounds(
    rds: PackedRDs | Sequence,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-database (min, max) support values of *rds*.

    Atoms are stored value-ascending (a
    :class:`~repro.stats.distribution.DiscreteDistribution` invariant),
    so the bounds are each RD's first and last atoms: the ends of its
    segment in a :class:`~repro.core.relevancy.PackedRDs`, gathered
    from the flat values with no probability mass touched. Any other
    sequence of distributions is packed first.
    """
    return PackedRDs.of(rds).bounds()


def prunable_mask(
    mins: np.ndarray, maxs: np.ndarray, k: int
) -> np.ndarray:
    """Boolean mask: ``True`` where a database provably misses the top-k.

    Database ``i`` is prunable iff at least ``k`` databases ``j``
    certainly beat it, i.e. ``(mins[j], -j) > (maxs[i], -i)``
    lexicographically — strictly-higher worst case, or an equal worst
    case from an earlier mediation index (the atom order's tie rule).
    Equivalently, iff the ``k``-th largest worst-case key
    ``(value, -last)`` outranks ``(maxs[i], -i)``: ``value`` is the
    ``k``-th largest of *mins* and ``last`` the mediation index that
    key falls on among the databases whose worst case equals
    ``value``. One partition and three comparisons over the arrays;
    ties — every certain-zero RD sits at ``(0, 0)`` — cost nothing
    extra.
    """
    n = len(mins)
    if n == 0 or k >= n:
        return np.zeros(n, dtype=bool)
    value = np.partition(mins, n - k)[n - k]
    above = np.count_nonzero(mins > value)
    last = np.flatnonzero(mins == value)[k - above - 1]
    return (maxs < value) | ((maxs == value) & (np.arange(n) > last))
