"""The default tensor backend: stacked array kernels, no per-database loops.

Subclasses the row-wise oracle and overrides exactly the kernels where a
whole-matrix formulation wins; inherited kernels (the k > 1 DP chain,
the k > 1 leave-one-out combine) are already a handful of array ops per
call. A compiled backend would subclass this the same way.

Bitwise notes (why the equality contract holds tighter than 1e-9 in
practice):

* ``outrank_structures`` accumulates each database's mass over the
  rank-ordered one-hot matrix. The interleaved zero terms add exactly,
  so the exclusive/inclusive prefix sums — and hence G and L — are
  bitwise identical to the oracle's per-database ``searchsorted`` reads.
* The k = 1 DP chain is a running product; ``np.cumprod`` over the
  start table followed by the rows of 1 − G performs the same
  multiplication sequence as the per-database fold, from the default
  start or from a resumed chain's ``init``.
* The k = 1 leave-one-out combine and override fold reduce to single
  elementwise products, matching the oracle's loop bodies term for term
  up to the sign of a zero: the oracle adds each product to 0.0, which
  turns a −0.0 into +0.0 (the two compare equal).
* The k > 1 override fold is closed-form. Every override row g is
  exactly 0.0 or 1.0, so the oracle folds a leave-one-out table d into
  [d0, d1 + d0·0, …, d_{k−1} + d_{k−2}·0] where g = 0 and into
  [d0·0, d1·0 + d0, …, d_{k−1}·0 + d_{k−2}] where g = 1: the table, or
  the table shifted up one count, each entry up to the sign of a zero.
  Adding a signed zero to a nonzero partial sum changes nothing, and
  numpy's sum, which starts from +0.0, returns +0.0 for a row of
  zeros of either sign. Summing d and [0, d0, …, d_{k−2}] over a count
  axis of the same length k (numpy's pairwise tree depends on that
  length: a ``d[..., :-1]`` sum does not match from k = 8) therefore
  gives the oracle's values bit for bit, and ``where(g, …)`` picks one
  per entry. The stacked batch sums the (n, m, k) leave-one-out stack
  before its (m, m) gather (``rows``).
* ``collapse_column`` reads the same cumulative sums the oracle's
  per-database ``cumsum`` builds: one row per database of a padded
  (database, rank)-sorted layout, summed along the row by
  ``np.cumsum`` (a left fold), with padding that adds exactly 0.
* No other kernel reassociates a sum: the k > 1 leave-one-out combine
  is the oracle's own k-unrolled loop (inherited), so every count's
  terms are added in the oracle's order.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend.python_backend import PythonBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(PythonBackend):
    """Tensor-batched kernels over the concatenated atom layout."""

    name = "numpy"
    vectorized = True

    def outrank_structures(self, probs, dbs, ranks, order, n):
        m = len(probs)
        positions = np.arange(m)
        rank_pos = ranks.astype(np.intp)
        db_of_rank = dbs[order]
        # One-hot mass-by-rank matrix: row j holds database j's atom
        # probabilities at their rank positions, zero elsewhere.
        onehot = np.zeros((n, m), dtype=np.float64)
        onehot[db_of_rank, positions] = probs[order]
        # Exclusive prefix sums along the rank axis: cum[j, p] is the
        # mass of database j at ranks < p — the zero entries add
        # exactly, so these match the oracle's per-database cumulative
        # arrays bitwise.
        cum = np.zeros((n, m + 1), dtype=np.float64)
        np.cumsum(onehot, axis=1, out=cum[:, 1:])
        inclusive = cum[:, 1:]
        less = cum[:, :-1][:, rank_pos]
        greater = (inclusive[:, -1:] - inclusive)[:, rank_pos]
        greater[dbs, positions] = 0.0
        return greater, less

    def dp_chain(self, greater, k, reverse=False, init=None):
        if k != 1:
            return super().dp_chain(greater, k, reverse, init)
        n, m = greater.shape
        out = np.empty((n + 1, m, 1), dtype=np.float64)
        # The chain in fold order: running[j] is forward entry j, or
        # reversed entry n - j, folded from running[j - 1] and rows[j - 1].
        running = out[::-1, :, 0] if reverse else out[:, :, 0]
        rows = greater[::-1] if reverse else greater
        running[0] = 1.0 if init is None else init[:, 0]
        np.subtract(1.0, rows, out=running[1:])
        np.cumprod(running, axis=0, out=running)
        return out

    def loo_combine(self, pre, suf, k):
        if k == 1:
            return pre * suf
        return super().loo_combine(pre, suf, k)

    def override_membership(self, dp_loo, g, k, rows=None):
        if k == 1:
            kept = dp_loo[..., 0]
            return (kept if rows is None else kept[rows]) * (1.0 - g)
        # Every g is 0.0 or 1.0, so each table sums to one of two values:
        # its own counts, or its counts shifted up by one (bitwise
        # notes above). Both reduce the count axis before any gather.
        shifted = np.zeros_like(dp_loo)
        shifted[..., 1:] = dp_loo[..., :-1]
        stay, moved = dp_loo.sum(axis=-1), shifted.sum(axis=-1)
        if rows is not None:
            stay, moved = stay[rows], moved[rows]
        return np.where(g, moved, stay)

    def collapse_column(self, rank0, database, probs, ranks, bounds):
        # The oracle's reads — cum[-1] - cum[right] and cum[left] per
        # database — over one padded layout: spans are contiguous, so
        # one lexsort orders each database's atoms by rank, and row j of
        # the (n, width) matrix holds them, with zero mass and rank +inf
        # past the span's end (see the bitwise notes above).
        n = len(bounds) - 1
        lengths = np.diff(bounds)
        order = np.lexsort((ranks, np.repeat(np.arange(n), lengths)))
        column = np.arange(int(lengths.max()))
        inside = column < lengths[:, None]
        atom = order[np.where(inside, bounds[:-1, None] + column, 0)]
        sorted_ranks = np.where(inside, ranks[atom], np.inf)
        cum = np.zeros((n, len(column) + 1), dtype=np.float64)
        np.cumsum(np.where(inside, probs[atom], 0.0), axis=1, out=cum[:, 1:])
        rows = np.arange(n)
        right = np.count_nonzero(sorted_ranks <= rank0, axis=1)
        left = np.count_nonzero(sorted_ranks < rank0, axis=1)
        greater_col = cum[:, -1] - cum[rows, right]
        less_col = cum[rows, left]
        # Placeholder entries, exactly as the oracle leaves them: the
        # caller overwrites row ``database`` wholesale.
        greater_col[database] = 0.0
        less_col[database] = 0.0
        return greater_col, less_col
