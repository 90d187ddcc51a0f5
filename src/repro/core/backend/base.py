"""The numeric-kernel contract every array backend implements.

:class:`~repro.core.topk.TopKComputer` keeps all of its
*orchestration* (memoization, collapse bookkeeping, answer-set search)
backend-independent and delegates the numeric kernels — outrank matrix
construction, the Poisson-binomial DP chains, the leave-one-out
convolution, the override membership fold and the collapse column
update — to an :class:`ArrayBackend`.

Two implementations ship in-tree:

* ``python`` (:mod:`repro.core.backend.python_backend`) — the legacy
  row-wise path: per-database Python loops over NumPy rows, exactly the
  arithmetic the pre-backend tree performed. It is the **oracle**: the
  equality tests compare every other backend against it.
* ``numpy`` (:mod:`repro.core.backend.numpy_backend`) — the default
  tensor engine: one stacked array pass per kernel, no per-database
  Python iteration.

A compiled backend later (Cython/C/ISPC) would subclass
:class:`ArrayBackend` (or the numpy backend, overriding only the
kernels the compiled path accelerates) and add one row to the table in
:mod:`repro.core.backend.registry`.

Equality contract
-----------------
All backends must produce **identical answer sets and probe orders**,
with certainty values agreeing to an absolute tolerance of ``1e-9`` —
the same contract the incremental-collapse path satisfies against the
rebuild path. Kernels are free to reassociate floating-point reductions
within that tolerance; they are not free to change tie-breaking, atom
ordering, or support layouts.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["ArrayBackend"]


class ArrayBackend(abc.ABC):
    """Numeric kernels behind :class:`~repro.core.topk.TopKComputer`.

    Attributes
    ----------
    name:
        Registry name (``"numpy"``, ``"python"``, ...).
    vectorized:
        Whether callers take the whole-sweep batched paths
        (:meth:`TopKComputer.usefulness_sweep`, the array-pass RD build
        of :meth:`~repro.core.selection.RDBasedSelector.build_rds`).
        The row-wise oracle reports ``False`` so its callers keep the
        exact legacy control flow.
    """

    name: str = "abstract"
    vectorized: bool = False

    @abc.abstractmethod
    def outrank_structures(
        self,
        probs: np.ndarray,
        dbs: np.ndarray,
        ranks: np.ndarray,
        order: np.ndarray,
        n: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Build the outrank matrices.

        Parameters are the flat atom layout: per-atom probabilities,
        owning database indices, global ranks, and ``order`` (atom
        indices sorted by rank). Returns ``(greater_masked, less)``
        where ``greater_masked[j, t]`` is the mass of database j
        strictly outranking atom t (own-database entries zeroed) and
        ``less[j, t]`` the mass strictly below.
        """

    @abc.abstractmethod
    def dp_chain(
        self,
        greater: np.ndarray,
        k: int,
        reverse: bool = False,
        init: np.ndarray | None = None,
    ) -> np.ndarray:
        """Stacked Poisson-binomial DP chain, shape ``(n+1, m, k)``.

        Entry ``j`` of the forward chain is the truncated outrank-count
        distribution over databases ``0..j-1`` (for every atom); the
        reversed chain's entry ``j`` covers databases ``j..n-1``.

        ``init`` is the ``(m, k)`` start table: entry 0 of the forward
        chain, entry n of the reversed one. It defaults to the empty
        count (all mass on 0). Passing a longer chain's entry resumes
        that chain: ``dp_chain(G[d:], k, init=prefix[d])`` equals
        ``prefix[d:]`` of the chain over all of G, and
        ``dp_chain(G[:d + 1], k, reverse=True, init=suffix[d + 1])``
        equals ``suffix[:d + 2]``, bit for bit, because each step
        multiplies and adds in the same order either way.
        """

    @abc.abstractmethod
    def loo_combine(
        self, pre: np.ndarray, suf: np.ndarray, k: int
    ) -> np.ndarray:
        """Truncated count-distribution convolution along the k axis.

        ``out[..., c] = sum_{a+b=c} pre[..., a] * suf[..., b]`` for
        ``c < k`` — combining a prefix and a suffix DP table into the
        leave-one-out table. Accepts ``(m, k)`` or stacked ``(n, m, k)``
        inputs.
        """

    @abc.abstractmethod
    def override_membership(
        self,
        dp_loo: np.ndarray,
        g: np.ndarray,
        k: int,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fold indicator outrank rows into a leave-one-out table.

        ``dp_loo`` is a (broadcastable) ``(..., m, k)`` leave-one-out
        count table; ``g`` a ``(..., m)`` 0/1 outrank row per
        hypothetical impulse. Returns ``(..., m)``:
        ``P[count <= k-1]`` per atom after folding in the impulse.
        With ``rows`` given, ``dp_loo`` is a stack of tables and row r
        of ``g`` folds into ``dp_loo[rows[r]]``: the same result as
        passing ``dp_loo[rows]``, without requiring that gather.
        """

    @abc.abstractmethod
    def collapse_column(
        self,
        rank0: float,
        database: int,
        probs: np.ndarray,
        ranks: np.ndarray,
        bounds: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Outrank-mass columns of a re-ranked atom against every database.

        Called by the out-of-support :meth:`TopKComputer.collapse` path:
        the repurposed atom moved to the fresh rank ``rank0``, so every
        *other* database's mass strictly above / strictly below it must
        be re-read. ``probs`` and ``ranks`` are the collapsed computer's
        atom arrays, database j's atoms the span
        ``bounds[j]:bounds[j + 1]``. Each database's masses are summed in
        rank order, ``np.cumsum``'s left fold: its total minus the mass
        ranked at or below ``rank0``, and the mass ranked below it. A
        collapsed database's zero-mass atoms add exactly 0. Returns
        ``(greater_col, less_col)`` of length ``n``; the entry for
        ``database`` itself is a placeholder (the caller overwrites row
        ``database`` wholesale).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
