"""The row-wise oracle backend.

This is the legacy numeric path of :mod:`repro.core.topk` — per-database
Python loops over NumPy rows — extracted behind the
:class:`~repro.core.backend.base.ArrayBackend` interface, arithmetic
untouched. It stays registered as ``python`` and is the reference the
equality tests compare every other backend against.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend.base import ArrayBackend

__all__ = ["PythonBackend"]


class PythonBackend(ArrayBackend):
    """Per-database row-wise kernels (the pre-backend arithmetic)."""

    name = "python"
    vectorized = False

    @staticmethod
    def _rank_cumulative(
        ranks: np.ndarray, probs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One database's atom ranks sorted, and its mass below each.

        ``(sorted_ranks, cum)`` with ``cum = [0, cumsum(probs in rank
        order)]``: the database's mass strictly above rank r is
        ``cum[-1] - cum[searchsorted(sorted_ranks, r, "right")]`` and
        strictly below it ``cum[searchsorted(sorted_ranks, r, "left")]``.
        """
        sort = np.argsort(ranks)
        return ranks[sort], np.concatenate(([0.0], np.cumsum(probs[sort])))

    def outrank_structures(self, probs, dbs, ranks, order, n):
        m = len(probs)
        # G[j, t] = P(database j's realization outranks atom t)
        # L[j, t] = P(database j's realization ranks below atom t)
        # (for j == atom_db[t], G + L + P(atom t) == 1).
        greater = np.empty((n, m), dtype=np.float64)
        less = np.empty((n, m), dtype=np.float64)
        for j in range(n):
            mask = dbs == j
            sorted_ranks, cum = self._rank_cumulative(ranks[mask], probs[mask])
            right = np.searchsorted(sorted_ranks, ranks, side="right")
            left = np.searchsorted(sorted_ranks, ranks, side="left")
            greater[j] = cum[-1] - cum[right]
            less[j] = cum[left]
        # Each atom's own database carries no weight in the outrank
        # counts (it is conditioned on, not competing); both the
        # marginal DP and the member product neutralize those entries
        # anyway, so the mask removes a copy per call.
        greater[dbs, np.arange(m)] = 0.0
        return greater, less

    @staticmethod
    def _dp_step(dp: np.ndarray, p_row: np.ndarray) -> np.ndarray:
        """One DP step: fold in a database with outrank probabilities."""
        p = p_row[:, None]
        keep = dp * (1.0 - p)
        keep[:, 1:] += dp[:, :-1] * p
        return keep

    def dp_chain(self, greater, k, reverse=False, init=None):
        n, m = greater.shape
        out = np.empty((n + 1, m, k), dtype=np.float64)
        if init is None:
            init = np.zeros((m, k), dtype=np.float64)
            init[:, 0] = 1.0
        if reverse:
            out[n] = init
            for j in reversed(range(n)):
                out[j] = self._dp_step(out[j + 1], greater[j])
        else:
            out[0] = init
            for j in range(n):
                out[j + 1] = self._dp_step(out[j], greater[j])
        return out

    def loo_combine(self, pre, suf, k):
        out = np.zeros_like(pre)
        for c in range(k):
            for a in range(c + 1):
                out[..., c] += pre[..., a] * suf[..., c - a]
        return out

    def override_membership(self, dp_loo, g, k, rows=None):
        if rows is not None:
            dp_loo = dp_loo[rows]
        p = g[..., None]
        keep = dp_loo * (1.0 - p)
        keep[..., 1:] += dp_loo[..., :-1] * p
        return keep.sum(axis=-1)

    def collapse_column(self, rank0, database, probs, ranks, bounds):
        n = len(bounds) - 1
        greater_col = np.zeros(n, dtype=np.float64)
        less_col = np.zeros(n, dtype=np.float64)
        for j in range(n):
            if j == database:
                # Placeholder: the caller overwrites row ``database``
                # wholesale (and its masked own entry is 0.0 anyway).
                continue
            span = slice(bounds[j], bounds[j + 1])
            sorted_ranks, cum = self._rank_cumulative(ranks[span], probs[span])
            right = int(np.searchsorted(sorted_ranks, rank0, side="right"))
            left = int(np.searchsorted(sorted_ranks, rank0, side="left"))
            greater_col[j] = cum[-1] - cum[right]
            less_col[j] = cum[left]
        return greater_col, less_col
