"""Exact probabilistic top-k computation over relevancy distributions.

Given independent RDs for the n mediated databases, this module answers
the questions the paper's framework needs (§3.3, §5.1):

* ``P[db_i ∈ DB_topk]`` — marginal membership probabilities, via a
  Poisson-binomial dynamic program truncated at k;
* ``P[S = DB_topk]`` — the probability that a candidate set *S* is
  exactly the true top-k, i.e. the expected **absolute** correctness
  E[Cor_a(S)] (Eq. 5);
* E[Cor_p(S)] — the expected **partial** correctness (Eq. 6), which
  equals the mean of the members' marginals by linearity;
* the answer set maximizing either expectation.

Tie handling. True relevancies are discrete (match counts), so ties are
real. We impose the same strict total order used by the golden standard:
higher relevancy wins, and on equal relevancy the database earlier in
mediation order wins. Internally every (value, database) support atom
gets a unique global *rank* under this order, which removes all equality
special-cases from the probability algebra.

Hypothetical probing. The greedy policy (§5.4) needs "what would the best
expected correctness be if database i turned out to have relevancy v?"
for every support atom v. All entry points accept an ``override=(i, t)``
pair (database i collapsed onto its atom t) and reuse the precomputed
rank structure; :meth:`TopKComputer.conditional_best_scores` evaluates
every atom of a candidate database in one vectorized pass via a
leave-one-out dynamic program, and for the absolute metric with k > 1
one batched search with a bounded cost, exact whenever its pool fits
(:meth:`TopKComputer.best_set`), answers every atom of every database
at once (see docs/PERFORMANCE.md).

Observed probing. :meth:`TopKComputer.collapse` turns an observation
into a new computer *incrementally*: the atom ordering, outrank
matrices and subset index structures are reused, so an adaptive-probing
run costs one rank-structure build instead of ``1 + num_probes`` builds.
An observation inside the database's support also hands over the DP
chains, resumed from the collapsed row, and the rank masks of the
override batch, so the next greedy round pays only for that row.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import combinations
from math import comb
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.core.backend import ArrayBackend, get_backend
from repro.core.relevancy import PackedRDs
from repro.exceptions import SelectionError
from repro.stats.distribution import DiscreteDistribution

__all__ = ["CorrectnessMetric", "TopKComputer"]


class CorrectnessMetric(enum.Enum):
    """Which expected-correctness definition to optimize (§3.2)."""

    ABSOLUTE = "absolute"
    PARTIAL = "partial"


class _Lanes(NamedTuple):
    """One greedy round's hypothetical probes, answered at once
    (:meth:`TopKComputer._batch_lanes`)."""

    #: (m,) each atom's lane; −1 for an atom that is no lane.
    lane_of: np.ndarray
    #: (lanes, k) each lane's answer set, ascending.
    sets: np.ndarray
    #: (lanes,) each answer's value.
    values: np.ndarray
    #: (lanes, n) each lane's marginals.
    marginals: np.ndarray


class TopKComputer:
    """Probabilistic top-k calculator for one query's RDs.

    Parameters
    ----------
    rds:
        One relevancy distribution per database, in mediation order
        (the order defines tie-breaking): a
        :class:`~repro.core.relevancy.PackedRDs`, whose atom arrays are
        gathered directly, or any sequence of distributions, packed
        first.
    k:
        Number of databases to select (1 <= k <= n; k = n is legal and
        trivially certain).
    backend:
        Numeric backend executing the array kernels: a registry name
        (``"numpy"``, ``"python"``), an
        :class:`~repro.core.backend.ArrayBackend` instance, or ``None``
        for the process default (``REPRO_BACKEND``, defaulting to the
        tensor engine). All backends produce identical answer sets and
        probe orders with certainty deltas ≤1e-9.
    databases:
        Mediation index of each row, when the computer covers a subset
        of the mediator (APro's survivor list). Defaults to
        ``range(n)``; policies read it to map rows back to databases.
    """

    def __init__(
        self,
        rds: PackedRDs | Sequence[DiscreteDistribution],
        k: int,
        backend: "str | ArrayBackend | None" = None,
        databases: Sequence[int] | None = None,
    ) -> None:
        packed = PackedRDs.of(rds)
        n = len(packed)
        if n == 0:
            raise SelectionError("need at least one database")
        if not 1 <= k <= n:
            raise SelectionError(f"k must be in [1, {n}], got {k}")
        self._databases = tuple(range(n) if databases is None else databases)
        if len(self._databases) != n:
            raise SelectionError(
                f"{len(self._databases)} database indices for {n} RDs"
            )
        self._n = n
        self._k = k
        self._backend = get_backend(backend)
        self._build_atoms(packed)
        # Pure-function index structures keyed by candidate set; they
        # depend only on the atom layout, which :meth:`collapse`
        # preserves, so collapsed computers share this dict.
        self._subset_memo: dict[
            tuple[int, ...],
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        ] = {}
        self._init_memos()

    def _init_memos(self) -> None:
        # Per-instance memos (instances are not thread-safe, like most
        # of numpy-backed Python; the serving layer builds one per query
        # in the APro thread). RDs are fixed per instance, so every
        # query below is a pure function of its arguments: probability
        # and answer-set results are cached outright. APro's batch
        # rounds re-ask best_set for the same overrides once per pick.
        self._prob_memo: dict[tuple, float] = {}
        self._marginals_memo: dict[tuple[int, int] | None, np.ndarray] = {}
        self._best_set_memo: dict[tuple, tuple[tuple[int, ...], float]] = {}
        # Override rows: for hypothetical probe (i, t0), the replacement
        # outrank rows of database i. A dict (not a single slot), so the
        # interleaved A→B→A access pattern of batched usefulness never
        # recomputes or returns stale rows.
        self._override_rows_memo: dict[
            tuple[int, int], tuple[np.ndarray, np.ndarray]
        ] = {}
        # Prefix/suffix Poisson-binomial DP tables and derived
        # leave-one-out / batched-override products (see marginals()).
        # The DP chains are (n+1, m, k) stacks produced by the backend.
        self._prefix_dp: np.ndarray | None = None
        self._suffix_dp: np.ndarray | None = None
        # (d, parent chain) after an in-support collapse of database d:
        # the parent's table the chain resumes from, dropped once this
        # computer's own chain is built (see _prefix_dps).
        self._prefix_seed: tuple[int, np.ndarray] | None = None
        self._suffix_seed: tuple[int, np.ndarray] | None = None
        self._loo_memo: dict[int, np.ndarray] = {}
        self._loo_all: np.ndarray | None = None
        self._override_batch_memo: dict[int, np.ndarray] = {}
        self._batch_all: np.ndarray | None = None
        self._scores_memo: dict[tuple[int, CorrectnessMetric], np.ndarray] = {}
        self._sweep_memo: dict[tuple[CorrectnessMetric, float], np.ndarray] = {}
        # The lane batch, once run (see _batch_lanes).
        self._lanes: _Lanes | None = None
        # Per-row atom tables of the answer-set sweep (_sweep_spans).
        self._spans: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- construction of the rank structure ---------------------------------

    def _build_atoms(self, rds: PackedRDs) -> None:
        # Every database's atoms form a contiguous span, in row order.
        values, probs, bounds = rds.atoms()
        dbs = np.repeat(np.arange(self._n), np.diff(bounds))
        m = len(values)
        self._db_bounds = bounds
        self._db_atom_start = bounds[:-1]
        self._db_atom_stop = bounds[1:]
        # Strict total order: ascending value; on equal value the later
        # database sorts lower (so the earlier database outranks it).
        # Ranks are floats so that collapse() can insert an observed
        # out-of-support value between two existing ranks without
        # renumbering (midpoint insertion).
        order = np.lexsort((-dbs, values))
        ranks = np.empty(m, dtype=np.float64)
        ranks[order] = np.arange(m)

        self._atom_values = values
        self._atom_probs = probs
        self._atom_dbs = dbs
        self._atom_ranks = ranks
        self._num_atoms = m

        # Atoms in rank order — the search structure collapse() uses to
        # place a new observed value in the total order in O(log m).
        self._order_values = values[order]
        self._order_dbs = dbs[order]
        self._order_ranks = np.arange(m, dtype=np.float64)

        # The outrank matrices are the backend's kernel:
        # G[j, t] = P(database j's realization outranks atom t)
        # L[j, t] = P(database j's realization ranks below atom t)
        # (for j == atom_db[t], G + L + P(atom t) == 1; each atom's own
        # database is pre-masked to 0 in G — conditioned on, not
        # competing).
        self._greater, self._less = self._backend.outrank_structures(
            probs, dbs, ranks, order, self._n
        )
        # Reported (index, value, prob) triples per database, built on
        # first use: collapse() overwrites a database's entry outright,
        # so most spans of a short-lived computer are never materialized.
        self._db_atom_triples: list[list[tuple[int, float, float]] | None] = [
            None
        ] * self._n
        # (m, m) same-database mask, built on first batched-override use;
        # layout-pure, so collapse() shares it between computers.
        self._own_mask: np.ndarray | None = None
        # The rank-only operands of the stacked override batch (see
        # _batch_masks); in-support collapses keep the ranks, so they
        # share them too.
        self._batch_masks_memo: tuple[np.ndarray | None, np.ndarray] | None = None

    def _triples(self, i: int) -> list[tuple[int, float, float]]:
        cached = self._db_atom_triples[i]
        if cached is None:
            cached = [
                (t, float(self._atom_values[t]), float(self._atom_probs[t]))
                for t in range(
                    int(self._db_atom_start[i]), int(self._db_atom_stop[i])
                )
            ]
            self._db_atom_triples[i] = cached
        return cached

    # -- basic accessors -----------------------------------------------------

    @property
    def num_databases(self) -> int:
        """n — number of mediated databases."""
        return self._n

    @property
    def k(self) -> int:
        """Size of the answer set."""
        return self._k

    @property
    def databases(self) -> tuple[int, ...]:
        """Mediation index of each row."""
        return self._databases

    def rd(self, i: int) -> DiscreteDistribution:
        """The RD of database *i* (an impulse once collapsed), built on call."""
        triples = self._triples(i)
        return DiscreteDistribution._trusted(
            np.array([value for _t, value, _p in triples]),
            np.array([prob for _t, _v, prob in triples]),
        )

    def atoms_of(self, i: int) -> list[tuple[int, float, float]]:
        """(atom_index, value, probability) triples of database *i*.

        On a collapsed database this is the single observed atom; the
        zero-probability atoms its span retains internally (so that the
        shared rank structure stays index-stable) are not reported.
        """
        return list(self._triples(i))

    @property
    def backend_name(self) -> str:
        """Registry name of the numeric backend in use."""
        return self._backend.name

    # -- incremental collapse -------------------------------------------------

    def collapse(self, database: int, value: float) -> "TopKComputer":
        """A computer in which *database* is an impulse at *value*.

        This is the belief update of one observed probe, done
        incrementally: the returned computer reuses this computer's atom
        ordering, rank structure and subset index memos. When *value* is
        already in the database's support only the probability vectors
        and that database's outrank rows change; when it is new, the
        value is placed into the strict total order with a single
        O(log m) rank search (midpoint rank insertion — no renumbering)
        and only row *database* plus one matrix column are recomputed.

        ``self`` is not modified and stays fully usable. Cached results
        for the hypothetical override matching the observation are
        migrated to the new computer, so a greedy usefulness sweep that
        already evaluated the observed outcome makes the post-probe
        ``best_set`` free.
        """
        i = int(database)
        if not 0 <= i < self._n:
            raise SelectionError(f"collapse database {i} out of range")
        value = float(value)
        start = int(self._db_atom_start[i])
        stop = int(self._db_atom_stop[i])

        new = object.__new__(TopKComputer)
        new._databases = self._databases
        new._n = self._n
        new._k = self._k
        new._backend = self._backend
        new._num_atoms = self._num_atoms
        # Layout is shared verbatim: spans and atom→database mapping
        # never change under collapse.
        new._db_bounds = self._db_bounds
        new._db_atom_start = self._db_atom_start
        new._db_atom_stop = self._db_atom_stop
        new._atom_dbs = self._atom_dbs
        new._subset_memo = self._subset_memo

        # Locate the observed value in the database's *reported* support
        # (a previous collapse shrinks it to the impulse atom; its
        # zero-mass fencepost atoms must not match). An unmaterialized
        # triple list means the span is untouched, so the raw value scan
        # is equivalent.
        t0 = None
        cached_triples = self._db_atom_triples[i]
        if cached_triples is not None:
            for t, atom_value, _prob in cached_triples:
                if atom_value == value:
                    t0 = t
                    break
        else:
            matches = np.flatnonzero(self._atom_values[start:stop] == value)
            if len(matches):
                t0 = start + int(matches[0])
        migrated: tuple[int, int] | None = None
        if t0 is not None:
            # Observed value already in support: ranks are untouched, so
            # the rank-order search structure and cached override rows
            # remain valid and are shared.
            new._atom_values = self._atom_values
            new._atom_ranks = self._atom_ranks
            new._order_values = self._order_values
            new._order_dbs = self._order_dbs
            new._order_ranks = self._order_ranks
            new._batch_masks_memo = self._batch_masks_memo
            rank0 = float(self._atom_ranks[t0])
            migrated = (i, t0)
        else:
            # New observed value: repurpose the first span atom as the
            # impulse and give it a fresh rank strictly between its
            # order neighbours. The remaining span atoms keep their old
            # ranks with zero mass — valid fenceposts, never weighted.
            t0 = start
            rank0, order_arrays = self._inserted_rank(i, value)
            new._order_values, new._order_dbs, new._order_ranks = order_arrays
            new._atom_values = self._atom_values.copy()
            new._atom_values[t0] = value
            new._atom_ranks = self._atom_ranks.copy()
            new._atom_ranks[t0] = rank0
            new._batch_masks_memo = None

        new._atom_probs = self._atom_probs.copy()
        new._atom_probs[start:stop] = 0.0
        new._atom_probs[t0] = 1.0

        # Only row i of the outrank matrices changes ...
        new._greater = self._greater.copy()
        new._less = self._less.copy()
        g_row = (rank0 > new._atom_ranks).astype(np.float64)
        g_row[start:stop] = 0.0
        new._greater[i] = g_row
        new._less[i] = (rank0 < new._atom_ranks).astype(np.float64)
        if migrated is None:
            # ... plus, for an out-of-support value, column t0: the
            # repurposed atom's rank moved, so every other database's
            # outrank mass against it is re-summed from the current atom
            # arrays (a collapsed database's zero-mass fenceposts add
            # exactly 0). The backend returns a zero placeholder for row
            # i, matching the masked own entry the row assignment above
            # already wrote.
            greater_col, less_col = self._backend.collapse_column(
                rank0, i, new._atom_probs, new._atom_ranks, self._db_bounds
            )
            greater_col[i] = new._greater[i, t0]
            less_col[i] = new._less[i, t0]
            new._greater[:, t0] = greater_col
            new._less[:, t0] = less_col

        new._db_atom_triples = list(self._db_atom_triples)
        new._db_atom_triples[i] = [(t0, value, 1.0)]
        new._own_mask = self._own_mask

        new._init_memos()
        if migrated is not None:
            # Rank structure unchanged → override rows computed on self
            # are identical on the collapsed computer.
            new._override_rows_memo = self._override_rows_memo
            # Only row i of G changed, so both DP chains resume from
            # this computer's (an out-of-support value changes column
            # t0 of every row: those chains are rebuilt).
            if self._prefix_dp is not None:
                new._prefix_seed = (i, self._prefix_dp)
            if self._suffix_dp is not None:
                new._suffix_seed = (i, self._suffix_dp)
            # Results conditioned on the observed outcome ARE the
            # collapsed computer's unconditioned results.
            for (subset_key, ov), prob in self._prob_memo.items():
                if ov == migrated:
                    new._prob_memo[(subset_key, None)] = prob
            cached_marginals = self._marginals_memo.get(migrated)
            if cached_marginals is not None:
                new._marginals_memo[None] = cached_marginals
            for (metric, ov), best in self._best_set_memo.items():
                if ov == migrated:
                    new._best_set_memo[(metric, None)] = best
            lane = self._lane(t0)
            if lane >= 0:
                new._best_set_memo[(CorrectnessMetric.ABSOLUTE, None)] = (
                    self._lane_answer(lane)
                )
                new._marginals_memo[None] = self._lanes.marginals[lane]
        return new

    def _inserted_rank(
        self, database: int, value: float
    ) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Rank for a new (value, database) key, plus updated order arrays.

        The key's position in the strict total order is found by binary
        search on the rank-ordered values (ties broken by mediation
        index, earlier database outranking); the new rank is the
        midpoint of its neighbours' ranks, so no existing rank moves.
        """
        pos = int(np.searchsorted(self._order_values, value, side="left"))
        total = len(self._order_values)
        # Within an equal-value run databases sort descending; skip the
        # ones that rank below the new key (higher index loses the tie).
        while (
            pos < total
            and self._order_values[pos] == value
            and self._order_dbs[pos] > database
        ):
            pos += 1
        lo = self._order_ranks[pos - 1] if pos > 0 else self._order_ranks[0] - 1.0
        hi = (
            self._order_ranks[pos]
            if pos < total
            else self._order_ranks[total - 1] + 1.0
        )
        rank0 = (float(lo) + float(hi)) / 2.0
        order_arrays = (
            np.insert(self._order_values, pos, value),
            np.insert(self._order_dbs, pos, database),
            np.insert(self._order_ranks, pos, rank0),
        )
        return rank0, order_arrays

    # -- override plumbing -----------------------------------------------------

    def _validate_override(self, override: tuple[int, int]) -> None:
        i, t0 = override
        if not 0 <= i < self._n:
            raise SelectionError(f"override database {i} out of range")
        if not 0 <= t0 < self._num_atoms or self._atom_dbs[t0] != i:
            raise SelectionError(
                f"override atom {t0} does not belong to database {i}"
            )

    def _override_rows(
        self, override: tuple[int, int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(greater_row, less_row) of the overridden database.

        ``override=(i, t0)`` collapses database i onto its support atom
        t0 (a hypothetical probe outcome); only row i of the outrank
        matrices differs from the base state, so only that row is ever
        materialized. Rows are cached per (i, t0) — interleaved access
        across different overrides never invalidates earlier entries.
        """
        cached = self._override_rows_memo.get(override)
        if cached is not None:
            return cached
        i, t0 = override
        rank0 = self._atom_ranks[t0]
        g_row = (rank0 > self._atom_ranks).astype(np.float64)
        g_row[self._db_atom_start[i] : self._db_atom_stop[i]] = 0.0
        l_row = (rank0 < self._atom_ranks).astype(np.float64)
        rows = (g_row, l_row)
        self._override_rows_memo[override] = rows
        return rows

    # -- Poisson-binomial DP tables ---------------------------------------------

    def _prefix_dps(self) -> np.ndarray:
        """prefix[j] = outrank-count DP over databases 0..j-1 (truncated at k).

        An (n+1, m, k) stack produced by the backend's chain kernel.
        After an in-support collapse of database d only row d of G
        differs from the parent's, so entries 0..d are the parent's and
        the chain resumes from its prefix[d] over rows d..n-1 — the
        same folds in the same order as a chain from scratch.
        """
        if self._prefix_dp is None:
            if self._prefix_seed is None:
                self._prefix_dp = self._backend.dp_chain(self._greater, self._k)
            else:
                d, parent = self._prefix_seed
                self._prefix_seed = None
                tail = self._backend.dp_chain(
                    self._greater[d:], self._k, init=parent[d]
                )
                self._prefix_dp = np.concatenate((parent[:d], tail))
        return self._prefix_dp

    def _suffix_dps(self) -> np.ndarray:
        """suffix[j] = outrank-count DP over databases j..n-1 (truncated at k).

        Seeded like :meth:`_prefix_dps`: entries d+1..n are the parent's
        and the chain runs back from its suffix[d+1] over rows d..0.
        """
        if self._suffix_dp is None:
            if self._suffix_seed is None:
                self._suffix_dp = self._backend.dp_chain(
                    self._greater, self._k, reverse=True
                )
            else:
                d, parent = self._suffix_seed
                self._suffix_seed = None
                head = self._backend.dp_chain(
                    self._greater[: d + 1],
                    self._k,
                    reverse=True,
                    init=parent[d + 1],
                )
                self._suffix_dp = np.concatenate((head, parent[d + 2 :]))
        return self._suffix_dp

    def _loo_dp(self, i: int) -> np.ndarray:
        """Leave-one-out DP: outrank counts over every database except *i*.

        Combining prefix[i] with suffix[i+1] is a count-distribution
        convolution truncated at k — O(m·k²) — so all n leave-one-out
        tables cost O(n·m·k²) total instead of O(n²·m·k) rebuilt DPs.
        """
        if self._loo_all is not None:
            return self._loo_all[i]
        cached = self._loo_memo.get(i)
        if cached is not None:
            return cached
        out = self._backend.loo_combine(
            self._prefix_dps()[i], self._suffix_dps()[i + 1], self._k
        )
        self._loo_memo[i] = out
        return out

    def _loo_dps_all(self) -> np.ndarray:
        """Every leave-one-out DP table stacked as one (n, m, k) array.

        The truncated convolution combine runs once over the stacked
        prefix/suffix tables — one batched kernel call instead of n
        independent :meth:`_loo_dp` calls.
        """
        if self._loo_all is None:
            self._loo_all = self._backend.loo_combine(
                self._prefix_dps()[:-1], self._suffix_dps()[1:], self._k
            )
        return self._loo_all

    # -- marginal top-k membership ----------------------------------------------

    def marginals(self, override: tuple[int, int] | None = None) -> np.ndarray:
        """P[db_i ∈ DB_topk] for every database.

        For each support atom t of database i, the number of *other*
        databases outranking t is a sum of independent Bernoullis with
        probabilities G[j, t]; database i is in the top-k at that atom
        iff at most k − 1 others outrank it. The DP tracks the count
        distribution truncated at k for every atom simultaneously.
        Overridden marginals reuse the leave-one-out DP of the
        overridden database, so evaluating every hypothetical outcome of
        one database costs a single batched pass.
        """
        cached = self._marginals_memo.get(override)
        if cached is not None:
            return cached.copy()
        if override is not None:
            self._validate_override(override)
        if self._k >= self._n:
            result = np.ones(self._n)
        elif override is None:
            membership = self._prefix_dps()[self._n].sum(axis=1)
            weighted = self._atom_probs * membership
            # Atom spans are contiguous per database, so the scatter-add
            # is a segmented reduction, at a fraction of ``np.add.at``'s
            # cost. It adds a span's tail first, a0 + (a1 + a2 + …), not
            # left to right; both backends run this line, so they agree.
            starts = np.asarray(self._db_atom_start, dtype=np.intp)
            marginals = np.add.reduceat(weighted, starts)
            result = np.clip(marginals, 0.0, 1.0)
        else:
            i, t0 = override
            lane = self._lane(t0)
            if lane >= 0:
                result = self._lanes.marginals[lane].copy()
            else:
                batch = self._override_marginals_all(i)
                result = batch[t0 - int(self._db_atom_start[i])].copy()
        self._marginals_memo[override] = result
        return result.copy()

    def _override_marginals_all(self, i: int) -> np.ndarray:
        """Marginals under every override of database *i*, one row per span atom.

        Row r (for span atom t0 = start_i + r) equals
        ``marginals(override=(i, t0))``: the leave-one-out DP of
        database i is shared across the rows, and each override only
        contributes its 0/1 indicator row as a final DP step — a single
        vectorized (s × m × k) pass instead of s independent full DPs.
        """
        start = int(self._db_atom_start[i])
        stop = int(self._db_atom_stop[i])
        stacked = self._stacked_batch()
        if stacked is not None:
            return stacked[start:stop]
        cached = self._override_batch_memo.get(i)
        if cached is not None:
            return cached
        span = np.arange(start, stop)
        ranks = self._atom_ranks
        dp_loo = self._loo_dp(i)
        # Indicator outrank rows of each hypothetical impulse, own span
        # masked (conditioned on, not competing).
        g_rows = (ranks[span][:, None] > ranks[None, :]).astype(np.float64)
        g_rows[:, start:stop] = 0.0
        # (s, m): P(count <= k-1) per atom under each hypothetical.
        membership = self._backend.override_membership(
            dp_loo[None, :, :], g_rows, self._k
        )
        masked_probs = self._atom_probs.copy()
        masked_probs[start:stop] = 0.0
        contrib = membership * masked_probs[None, :]
        starts = np.asarray(self._db_atom_start, dtype=np.intp)
        batch = np.add.reduceat(contrib, starts, axis=1)
        # The overridden database itself: all mass on the impulse atom,
        # whose membership is P(at most k-1 of the others outrank it) —
        # read straight off the leave-one-out table.
        batch[:, i] = dp_loo[span].sum(axis=1)
        batch = np.clip(batch, 0.0, 1.0)
        self._override_batch_memo[i] = batch
        return batch

    #: Element budget (m²·k) below which every database's override batch
    #: is produced in one stacked pass; above it the per-database path
    #: bounds peak memory.
    _BATCH_ALL_LIMIT = 2_000_000

    def _stacked_batch(self) -> np.ndarray | None:
        """Every database's override batch as one (m, n) matrix, built on
        first use; ``None`` above :attr:`_BATCH_ALL_LIMIT`."""
        if self._num_atoms * self._num_atoms * self._k > self._BATCH_ALL_LIMIT:
            return None
        if self._batch_all is None:
            self._override_batch_all()
        return self._batch_all

    def _override_batch_all(self) -> None:
        """Every database's override batch at once, as one (m, n) matrix.

        A greedy usefulness sweep asks for the batch of each candidate
        in turn; stacking the per-database computations collapses the n
        passes of :meth:`_override_marginals_all` into one set of array
        operations over all m override rows, and each database's batch
        is its span of rows. Row t folds into the leave-one-out table of
        t's database (``rows=dbs``), so a backend whose fold reduces the
        count axis first never gathers the (m, m, k) stack. Each row's
        own-database span is masked exactly like the per-database path
        (compare ``g_rows[:, start:stop] = 0`` with the masks of
        :meth:`_batch_masks`), so the rows are bitwise identical to it.
        """
        dbs = self._atom_dbs
        loo_all = self._loo_dps_all()
        fold, lost = self._batch_masks()
        masked_probs = np.where(lost, 0.0, self._atom_probs[None, :])
        if fold is None:
            contrib = loo_all[:, :, 0][dbs] * masked_probs  # (m, m)
        else:
            membership = self._backend.override_membership(
                loo_all, fold, self._k, rows=dbs
            )  # (m, m)
            contrib = membership * masked_probs
        starts = np.asarray(self._db_atom_start, dtype=np.intp)
        batch_all = np.add.reduceat(contrib, starts, axis=1)  # (m, n)
        # The overridden database's own column: P(at most k-1 others
        # outrank the impulse), summed over counts like the per-database
        # path (at k = 1 too: the sum from 0.0 turns a -0.0 into 0.0).
        idx = np.arange(self._num_atoms)
        batch_all[idx, dbs] = loo_all[dbs, idx].sum(axis=1)
        self._batch_all = np.clip(batch_all, 0.0, 1.0)

    def _batch_masks(self) -> tuple[np.ndarray | None, np.ndarray]:
        """``(fold, lost)``: the rank-only operands of the override batch.

        Row t stands for the hypothetical impulse at atom t, column u
        for the atom whose membership it changes. ``fold`` is the 0/1
        outrank row ``[rank_t > rank_u]`` with t's own span zeroed, the
        row the backend folds into the leave-one-out table. ``lost``
        marks the entries whose mass drops out: u in t's own span.
        A vectorized backend's k = 1 fold is the bare product
        loo·(1 − g), and 1 − g is exactly 0.0 or 1.0, so there ``fold``
        is ``None`` and ``lost`` also marks every u that t outranks:
        ``loo·where(own | g, 0, P)`` is bitwise ``(loo·(1 − g))·where(own,
        0, P)``. The oracle keeps its own fold, whose sum over the count
        axis turns a −0.0 into +0.0. Both depend on ranks and spans
        only, so in-support collapses share them.
        """
        if self._batch_masks_memo is None:
            if self._own_mask is None:
                self._own_mask = (
                    self._atom_dbs[:, None] == self._atom_dbs[None, :]
                )
            own = self._own_mask
            ranks = self._atom_ranks
            outranks = ranks[:, None] > ranks[None, :]
            if self._k == 1 and self._backend.vectorized:
                self._batch_masks_memo = (None, own | outranks)
            else:
                fold = outranks.astype(np.float64)
                fold[own] = 0.0
                self._batch_masks_memo = (fold, own)
        return self._batch_masks_memo

    # -- batched hypothetical-probe scores ----------------------------------------

    def conditional_best_scores(
        self,
        database: int,
        metric: CorrectnessMetric,
        min_prob: float = 0.0,
    ) -> np.ndarray:
        """Best expected correctness conditioned on each outcome of *database*.

        Entry j is ``best_set(metric, override=(database, t_j))[1]`` for
        the j-th triple of :meth:`atoms_of` — what greedy usefulness
        averages. For the partial metric and for k = 1 every atom is
        evaluated in one vectorized pass over the shared leave-one-out
        DP; for the absolute metric with k > 1 each atom is read through
        :meth:`best_set`, one search per atom. The greedy policy takes
        this per-candidate route on the ``python`` oracle only: a
        vectorized backend serves it from :meth:`usefulness_sweep`.
        Atoms with probability below *min_prob* are skipped in the
        per-atom path and their entries are 0.0 — callers that skip
        negligible mass pass their own threshold.
        """
        if not 0 <= database < self._n:
            raise SelectionError(f"database {database} out of range")
        triples = self._triples(database)
        if self._k == self._n:
            return np.ones(len(triples))
        if metric is CorrectnessMetric.PARTIAL or self._k == 1:
            scores_span = self._span_scores(database, metric)
            start = int(self._db_atom_start[database])
            offsets = np.asarray([t - start for t, _v, _p in triples])
            return scores_span[offsets].copy()
        scores = np.zeros(len(triples))
        for j, (t, _value, prob) in enumerate(triples):
            if prob < min_prob:
                continue
            _best, score = self.best_set(metric, override=(database, t))
            scores[j] = score
        return scores

    def _span_scores(
        self, database: int, metric: CorrectnessMetric
    ) -> np.ndarray:
        """Best-set score per span atom, for the vectorizable metrics.

        Valid for the partial metric or k = 1 (where the best set reads
        straight off the overridden marginals); cached per database.
        """
        key = (database, metric)
        scores_span = self._scores_memo.get(key)
        if scores_span is None:
            batch = self._override_marginals_all(database)
            if self._k == 1:
                scores_span = batch.max(axis=1)
            else:
                boundary = self._n - self._k
                top = np.partition(batch, boundary, axis=1)[:, boundary:]
                scores_span = np.minimum(1.0, top.mean(axis=1))
            self._scores_memo[key] = scores_span
        return scores_span

    def _all_span_scores(self, metric: CorrectnessMetric) -> np.ndarray:
        """Best-set score of every atom's override, as one (m,) array.

        When the stacked override batch fits the element budget the
        per-row reduction (max for k = 1, top-(k)-mean otherwise) runs
        once over the full (m, n) matrix — each row is exactly the row
        the per-database :meth:`_span_scores` slices see, so the scores
        are bitwise identical to the per-database route used otherwise.
        """
        batch_all = self._stacked_batch()
        if batch_all is not None:
            if self._k == 1:
                return batch_all.max(axis=1)
            boundary = self._n - self._k
            top = np.partition(batch_all, boundary, axis=1)[:, boundary:]
            return np.minimum(1.0, top.mean(axis=1))
        scores_all = np.empty(self._num_atoms, dtype=np.float64)
        for i in range(self._n):
            scores_all[
                int(self._db_atom_start[i]) : int(self._db_atom_stop[i])
            ] = self._span_scores(i, metric)
        return scores_all

    def usefulness_sweep(
        self, metric: CorrectnessMetric, negligible: float = 0.0
    ) -> np.ndarray | None:
        """Greedy usefulness of probing each database, in one array pass.

        Entry i is what :class:`~repro.core.policies.
        GreedyUsefulnessPolicy` computes per candidate: the expectation
        over database i's atoms of the best post-probe expected
        correctness, with atoms of probability below *negligible*
        contributing their probability alone. Returns ``None`` on a
        non-vectorized backend, whose callers take the per-database
        route (:meth:`conditional_best_scores`).
        For the absolute metric with k > 1 the per-atom scores are the
        lane values of :meth:`_batch_lanes`. A settled database's atom
        (P = 1) is no lane: its override leaves the state as it is, so
        it scores the unconditioned :meth:`best_set` value, which the
        per-atom search matches within 1e-12.
        Each database's terms are added in atom order from 0.0, as the
        per-database loop adds them (``np.bincount``; a segmented
        ``np.add.reduceat`` would add a span's tail first), and the
        zero-mass atoms of collapsed databases add exactly 0, so the
        sweep matches the per-database accumulation float for float.
        """
        if not self._backend.vectorized:
            return None
        key = (metric, float(negligible))
        cached = self._sweep_memo.get(key)
        if cached is None:
            if self._k >= self._n:
                cached = np.ones(self._n)
            else:
                if metric is CorrectnessMetric.ABSOLUTE and self._k > 1:
                    scores_all = self._all_lane_scores()
                else:
                    scores_all = self._all_span_scores(metric)
                probs = self._atom_probs
                contrib = np.where(
                    probs < negligible, probs, probs * scores_all
                )
                cached = np.bincount(
                    self._atom_dbs, weights=contrib, minlength=self._n
                )
            self._sweep_memo[key] = cached
        return cached

    # -- set-level expected correctness ------------------------------------------

    def prob_set_is_topk(
        self,
        subset: Sequence[int],
        override: tuple[int, int] | None = None,
    ) -> float:
        """P[subset = DB_topk] — E[Cor_a(subset)] (Eq. 5).

        The event "subset is exactly the top-k" happens iff every member
        outranks every non-member. Partitioning on the *weakest member's*
        atom t: every other member must outrank t and every non-member
        must rank below t. An override substitutes a single gathered row
        — the base matrices are never copied.
        """
        members = self._validated_subset(subset)
        if len(members) == self._n:
            return 1.0
        key = tuple(sorted(members))
        result = self._prob_memo.get((key, override))
        if result is not None:
            return result
        if override is not None:
            self._validate_override(override)
        memo = self._subset_memo.get(key)
        if memo is None:
            # Member atoms occupy contiguous spans, so the candidate
            # atom index list is a cheap concatenation (ascending, as
            # the key is sorted) instead of an isin() scan over all
            # atoms. Zero-probability atoms (an overridden member's
            # off-outcome atoms) are kept: their terms are exactly 0.
            atom_idx = np.concatenate(
                [
                    np.arange(self._db_atom_start[i], self._db_atom_stop[i])
                    for i in key
                ]
            )
            member_rows = np.asarray(key)[:, None]
            row_of = np.empty(self._n, dtype=np.intp)
            row_of[np.asarray(key)] = np.arange(self._k)
            own_rows = row_of[self._atom_dbs[atom_idx]]
            outside_rows = np.asarray(
                [j for j in range(self._n) if j not in members]
            )[:, None]
            cols = np.arange(len(atom_idx))
            memo = (atom_idx, member_rows, own_rows, outside_rows, cols)
            self._subset_memo[key] = memo
        atom_idx, member_rows, own_rows, outside_rows, cols = memo

        overridden_member = override is not None and override[0] in members
        inside = self._greater[member_rows, atom_idx[None, :]]
        if overridden_member:
            g_row, _l_row = self._override_rows(override)
            inside[key.index(override[0])] = g_row[atom_idx]
        # Each atom's own database is pre-masked to 0 in ``greater``;
        # neutralize it to 1 so it drops out of the member product.
        inside[own_rows, cols] = 1.0
        inside_prod = inside.prod(axis=0)
        if len(outside_rows):
            outside = self._less[outside_rows, atom_idx[None, :]]
            if override is not None and not overridden_member:
                _g_row, l_row = self._override_rows(override)
                position = int(np.searchsorted(outside_rows[:, 0], override[0]))
                outside[position] = l_row[atom_idx]
            outside_prod = outside.prod(axis=0)
        else:
            outside_prod = np.ones(len(atom_idx))
        probs = self._atom_probs[atom_idx]
        if overridden_member:
            i, t0 = override
            probs[self._atom_dbs[atom_idx] == i] = 0.0
            probs[int(np.nonzero(atom_idx == t0)[0][0])] = 1.0
        total = float((probs * inside_prod * outside_prod).sum())
        result = min(1.0, max(0.0, total))
        self._prob_memo[(key, override)] = result
        return result

    def expected_correctness(
        self,
        subset: Sequence[int],
        metric: CorrectnessMetric,
        override: tuple[int, int] | None = None,
        marginals: np.ndarray | None = None,
    ) -> float:
        """E[Cor(subset)] under the chosen metric.

        ``marginals`` may be passed to reuse a previous
        :meth:`marginals` result for the same override.
        """
        members = self._validated_subset(subset)
        if metric is CorrectnessMetric.ABSOLUTE:
            return self.prob_set_is_topk(sorted(members), override)
        if marginals is None:
            marginals = self.marginals(override)
        return float(np.mean([marginals[i] for i in sorted(members)]))

    def _validated_subset(self, subset: Sequence[int]) -> frozenset[int]:
        members = frozenset(int(i) for i in subset)
        if len(members) != self._k:
            raise SelectionError(
                f"subset size {len(members)} != k = {self._k}"
            )
        if not all(0 <= i < self._n for i in members):
            raise SelectionError(f"subset {sorted(members)} out of range")
        return members

    # -- answer-set search --------------------------------------------------------

    def best_set(
        self,
        metric: CorrectnessMetric = CorrectnessMetric.ABSOLUTE,
        override: tuple[int, int] | None = None,
    ) -> tuple[tuple[int, ...], float]:
        """The answer set maximizing expected correctness, with its value.

        For the partial metric the optimum is exactly the k databases
        with the largest marginals (E[Cor_p] is their mean, by linearity
        of expectation). For the absolute metric the *incumbent* is the
        value of the top-k set by marginal, ranked on (−marginal, row);
        since P[S = DB_topk] ≤ min over i ∈ S of P[i ∈ DB_topk], only
        rows whose marginal reaches it less :attr:`_POOL_SLACK` can be in
        a better set. Every k-subset of that *pool*, cut to its first
        :func:`_widest_pool` rows by marginal, is scored, and the answer
        is the first, in lexicographic order of ascending rows, within
        :attr:`_TIE_WINDOW` of the maximum: exact whenever the cut drops
        no row.

        The ``python`` oracle scores one set at a time with
        :meth:`prob_set_is_topk`; a vectorized backend answers a greedy
        round's every override at its first miss (:meth:`_batch_lanes`)
        and reads the lane arrays after it, with the oracle's sets and
        values within 1e-12.
        """
        if self._k == self._n:
            return tuple(range(self._n)), 1.0
        memo_key = (metric, override)
        cached = self._best_set_memo.get(memo_key)
        if cached is not None:
            return cached
        if (
            override is not None
            and metric is CorrectnessMetric.ABSOLUTE
            and self._k > 1
            and self._backend.vectorized
        ):
            self._validate_override(override)
            if self._lanes is None:
                self._batch_lanes()
            lane = self._lane(override[1])
            if lane >= 0:
                return self._lane_answer(lane)
        marginals = self.marginals(override)
        if self._k == 1:
            # The marginal IS the set probability, so the best singleton
            # under either metric is the first largest marginal.
            best = int(np.argmax(marginals))
            result = (best,), min(1.0, float(marginals[best]))
            self._best_set_memo[memo_key] = result
            return result
        if metric is CorrectnessMetric.PARTIAL:
            ranked = sorted(range(self._n), key=lambda i: (-marginals[i], i))
            chosen = tuple(sorted(ranked[: self._k]))
            result = chosen, min(1.0, float(np.mean([marginals[i] for i in chosen])))
        elif self._backend.vectorized:
            lane = (-1, -1) if override is None else override
            sets, values = self._search_lanes(
                np.array([lane[0]]), np.array([lane[1]]), marginals[None, :]
            )
            result = tuple(sets[0].tolist()), float(values[0])
        else:
            result = self._best_absolute(override, marginals)
        self._best_set_memo[memo_key] = result
        return result

    #: Slack under the incumbent for pool membership, far above the
    #: rounding of a marginal or a set value.
    _POOL_SLACK = 1e-9
    #: The answer is the first pool subset within this of the maximum.
    _TIE_WINDOW = 1e-12
    #: Most k-subsets one search scores, whatever k and the pool.
    _SUBSET_LIMIT = 4096

    def _best_absolute(
        self, override: tuple[int, int] | None, marginals: np.ndarray
    ) -> tuple[tuple[int, ...], float]:
        """The search of :meth:`best_set`, one set value at a time."""
        ranked = sorted(range(self._n), key=lambda i: (-marginals[i], i))
        top = tuple(sorted(ranked[: self._k]))
        incumbent = self.prob_set_is_topk(top, override)
        floor = incumbent - self._POOL_SLACK
        size = sum(1 for j in range(self._n) if marginals[j] >= floor)
        widest = _widest_pool(self._k, self._SUBSET_LIMIT)
        size = min(max(size, self._k), widest)
        if size == self._k:
            return top, incumbent
        pool = sorted(ranked[:size])
        scored = [
            (subset, self.prob_set_is_topk(subset, override))
            for subset in combinations(pool, self._k)
        ]
        best = max(value for _subset, value in scored)
        return next(
            (subset, value)
            for subset, value in scored
            if value >= best - self._TIE_WINDOW
        )

    def _lane_atoms(self) -> np.ndarray:
        """The atoms with 0 < P < 1, ascending: one lane each."""
        probs = self._atom_probs
        return np.flatnonzero((probs > 0.0) & (probs < 1.0))

    def _batch_lanes(self) -> None:
        """Answer every hypothetical probe at once, into ``_lanes``.

        A *lane* is one override (i, t0) the greedy sweep can ask for:
        every atom with 0 < P < 1. Their marginals are one gather of
        the stacked override batch (per database above its budget), and
        one :meth:`_search_lanes` call answers them all. The arrays are
        what :meth:`best_set`, :meth:`marginals`,
        :meth:`usefulness_sweep` and :meth:`collapse` read for a lane.
        """
        lane_atoms = self._lane_atoms()
        lane_of = np.full(self._num_atoms, -1, dtype=np.intp)
        lane_of[lane_atoms] = np.arange(len(lane_atoms))
        if not len(lane_atoms):
            self._lanes = _Lanes(
                lane_of,
                np.empty((0, self._k), dtype=np.intp),
                np.empty(0),
                np.empty((0, self._n)),
            )
            return
        lane_dbs = self._atom_dbs[lane_atoms]
        stacked = self._stacked_batch()
        if stacked is not None:
            marginals = stacked[lane_atoms]
        else:
            with_lanes = np.flatnonzero(
                np.bincount(lane_dbs, minlength=self._n)
            )
            marginals = np.concatenate(
                [
                    self._override_marginals_all(i)[
                        lane_atoms[lane_dbs == i] - int(self._db_atom_start[i])
                    ]
                    for i in with_lanes.tolist()
                ]
            )
        sets, values = self._search_lanes(lane_dbs, lane_atoms, marginals)
        self._lanes = _Lanes(lane_of, sets, values, marginals)

    def _lane(self, atom: int) -> int:
        """The lane of the override onto *atom*; −1 before the batch or
        for an atom that is no lane."""
        return -1 if self._lanes is None else int(self._lanes.lane_of[atom])

    def _lane_answer(self, lane: int) -> tuple[tuple[int, ...], float]:
        """*lane*'s answer as :meth:`best_set` returns it."""
        lanes = self._lanes
        return tuple(lanes.sets[lane].tolist()), float(lanes.values[lane])

    def _all_lane_scores(self) -> np.ndarray:
        """Absolute-metric best-set value under every atom's override, (m,).

        Lanes read the batch; settled atoms (P = 1) the unconditioned
        value; atoms of zero mass 0.0, as their terms are 0 either way.
        The batch is entered through :meth:`best_set`'s first override
        miss, as on the per-candidate route.
        """
        if self._lanes is None:
            lane_atoms = self._lane_atoms()
            if len(lane_atoms):
                t0 = int(lane_atoms[0])
                self.best_set(
                    CorrectnessMetric.ABSOLUTE,
                    override=(int(self._atom_dbs[t0]), t0),
                )
            else:
                self._batch_lanes()
        _best, settled = self.best_set(CorrectnessMetric.ABSOLUTE)
        scores = np.where(self._atom_probs >= 1.0, settled, 0.0)
        scores[self._lanes.lane_of >= 0] = self._lanes.values
        return scores

    def _search_lanes(
        self, xs: np.ndarray, t0s: np.ndarray, marginals: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_best_absolute`'s answer for every lane, in array passes.

        Lane l collapses database ``xs[l]`` onto atom ``t0s[l]`` (both
        −1 for the unconditioned state) and has ``marginals[l]``. One
        pass scores the incumbents, then one pass per larger pool size.
        Returns ``(sets, values)``: lane l's ascending answer set is row
        l of the (lanes, k) ``sets``, its value ``values[l]``.
        """
        k = self._k
        ranked = np.argsort(-marginals, axis=1, kind="stable")
        sets = np.sort(ranked[:, :k], axis=1)
        values = self._pool_scores(xs, t0s, sets)[:, 0]
        floor = (values - self._POOL_SLACK)[:, None]
        widest = _widest_pool(k, self._SUBSET_LIMIT)
        sizes = np.clip((marginals >= floor).sum(axis=1), k, widest)
        for size in np.flatnonzero(np.bincount(sizes)[k + 1 :]).tolist():
            size += k + 1
            picked = np.flatnonzero(sizes == size)
            pools = np.sort(ranked[picked, :size], axis=1)
            scored = self._pool_scores(xs[picked], t0s[picked], pools)
            best = scored.max(axis=1, keepdims=True)
            first = np.argmax(scored >= best - self._TIE_WINDOW, axis=1)
            rows = np.arange(len(picked))
            sets[picked] = pools[rows[:, None], _subsets(size, k)[first]]
            values[picked] = scored[rows, first]
        return sets, values

    #: Element budget of one :meth:`_sweep_table` call's temporaries:
    #: peak memory stays flat however many lanes and subsets there are.
    _SWEEP_BATCH_LIMIT = 1 << 20

    def _pool_scores(
        self, xs: np.ndarray, t0s: np.ndarray, pools: np.ndarray
    ) -> np.ndarray:
        """P[S = DB_topk | lane] for every k-subset S of each lane's pool.

        ``pools`` holds one ascending row per lane, all of one size;
        column c is the c-th subset in lexicographic order. Lanes of one
        database that share a pool form a *group*. Groups, or slices of
        one group's subsets, are scored under :attr:`_SWEEP_BATCH_LIMIT`.
        """
        lanes, size = pools.shape
        groups: dict[tuple[int, bytes], int] = {}
        group_of = np.array(
            [
                groups.setdefault((x, row.tobytes()), len(groups))
                for x, row in zip(xs.tolist(), pools)
            ],
            dtype=np.intp,
        )
        # Any lane of a group stands for it: they share x and the pool.
        first = np.empty(len(groups), dtype=np.intp)
        first[group_of] = np.arange(lanes)
        count = comb(size, self._k)
        fixed, per_subset = self._sweep_elements(size)
        room = self._SWEEP_BATCH_LIMIT - fixed
        chunk = max(1, min(count, room // per_subset))
        step = max(1, self._SWEEP_BATCH_LIMIT // (fixed + chunk * per_subset))
        if step >= len(groups):
            return self._sweep_table(
                xs[first], pools[first], group_of, t0s, chunk
            )
        values = np.empty((lanes, count))
        for lo in range(0, len(groups), step):
            rows = np.flatnonzero((group_of >= lo) & (group_of < lo + step))
            picked = first[lo : lo + step]
            values[rows] = self._sweep_table(
                xs[picked], pools[picked], group_of[rows] - lo, t0s[rows], chunk
            )
        return values

    def _sweep_elements(self, size: int) -> tuple[int, int]:
        """``(fixed, per_subset)``: one group's elements in :meth:`_sweep_table`.

        A group lays out size × width atoms (the widest span) and has at
        most width lanes; each subset scored at once adds k pairs.
        """
        width = self._sweep_spans()[0].shape[1]
        fixed = size * width * (2 * self._n + 4 * size + width)
        return fixed, self._k * (10 * width + size)

    def _sweep_spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(atoms, ranks, mass)`` of each row in rank order (a collapse
        can re-rank a span's first atom), padded at rank ∞ and mass 0."""
        if self._spans is None:
            starts = self._db_atom_start[:, None]
            spans = (self._db_atom_stop - self._db_atom_start)[:, None]
            offsets = np.arange(int(spans.max()))
            valid = offsets < spans
            atoms = np.where(valid, starts + offsets, starts)
            ranks = np.where(valid, self._atom_ranks[atoms], np.inf)
            order = np.argsort(ranks, axis=1)
            atoms = np.take_along_axis(atoms, order, axis=1)
            mass = np.where(
                np.take_along_axis(valid, order, axis=1),
                self._atom_probs[atoms],
                0.0,
            )
            self._spans = (atoms, np.take_along_axis(ranks, order, axis=1), mass)
        return self._spans

    def _sweep_table(
        self,
        xs: np.ndarray,
        pools: np.ndarray,
        lane_group: np.ndarray,
        lane_t0: np.ndarray,
        chunk: int,
    ) -> np.ndarray:
        """The rank sweep: every pool subset's value, for every lane.

        Group g excludes database x = ``xs[g]`` (−1: none) and scores
        the k-subsets S of ``pools[g]``; its lane l collapses x onto
        atom ``lane_t0[l]``. q_S(a) = P(a) · Π G[j, a] over members
        j ∉ {own(a), x} · Π L[j, a] over non-members j ≠ x does not
        depend on t0, so one product pass per (subset, member) pair
        serves every lane; a lane sums it over the atoms ranked above t0
        (x ∉ S) or below t0 plus t0's own term (x ∈ S), one prefix or
        suffix sum per pair (docs/PERFORMANCE.md §2). Subsets are scored
        *chunk* at a time, with the same arithmetic for any chunk.
        """
        groups, size = pools.shape
        span_atoms, span_ranks, span_mass = self._sweep_spans()
        width = span_atoms.shape[1]
        x_row = pools == xs[:, None]
        atom = span_atoms[pools]
        mass = np.where(x_row[:, :, None], 1.0, span_mass[pools])
        # L over the rows outside the pool and x, at base[s, g, i].
        outside = self._less[:, atom]
        outside[pools, np.arange(groups)[:, None]] = 1.0
        outside[np.where(xs >= 0, xs, pools[:, 0]), np.arange(groups)] = 1.0
        base = (mass * outside.prod(axis=0)).transpose(1, 0, 2).copy()
        # sides[(t · size + s) · (size − 1) + r, g]: at row s's atoms, G
        # (t = 1) or L (t = 0) of the r-th other pool row; x's row is 1.
        others = _others(size)
        rows = pools[:, others].transpose(1, 2, 0)[:, :, :, None]
        at = atom.transpose(1, 0, 2)[:, None]
        sides = np.empty((2, size, size - 1, groups, width))
        sides[0] = self._less[rows, at]
        sides[1] = self._greater[rows, at]
        neutral = x_row[:, others].transpose(1, 2, 0)[:, :, :, None]
        np.copyto(sides, 1.0, where=neutral)
        sides = sides.reshape(-1, groups, width)
        # Per lane and row: the atoms ranked below t0 come first.
        rank0 = np.where(lane_t0 >= 0, self._atom_ranks[lane_t0], -np.inf)
        below_rank0 = span_ranks[pools][lane_group] < rank0[:, None, None]
        place = below_rank0.sum(axis=2)
        lane_x = x_row[lane_group]
        group = lane_group[:, None]
        members = _subsets(size, self._k)
        values = np.empty((len(lane_group), len(members)))
        picks = _sweep_picks(size, self._k)
        for lo in range(0, len(members), chunk):
            chosen = members[lo : lo + chunk]
            # Pair p is member own[p] of subset lo + p // k.
            own = chosen.ravel()
            pairs = np.arange(len(own))
            # body[p, g, i]: q of pair p's i-th atom.
            body = base[own]
            factor = np.empty_like(body)
            for pick in picks[:, lo * self._k : (lo + chunk) * self._k]:
                np.take(sides, pick, axis=0, out=factor)
                body *= factor
            # below[..., i] sums atoms 0..i-1, above[..., i] atoms i on.
            below = np.zeros(body.shape[:2] + (width + 1,))
            above = np.zeros_like(below)
            np.cumsum(body, axis=2, out=below[:, :, 1:])
            np.cumsum(body[:, :, ::-1], axis=2, out=above[:, :, -2::-1])
            at_t0 = place[:, own]
            below_t0 = np.where(
                lane_x[:, own],
                body[pairs, group, np.minimum(at_t0, width - 1)],
                below[pairs, group, at_t0],
            ).reshape(len(lane_group), len(chosen), self._k)
            above_t0 = above[pairs, group, at_t0].reshape(below_t0.shape)
            values[:, lo : lo + chunk] = np.where(
                lane_x[:, chosen].any(axis=2),
                below_t0.sum(axis=2),
                above_t0.sum(axis=2),
            )
        return np.clip(values, 0.0, 1.0)

    def __repr__(self) -> str:
        return (
            f"TopKComputer(n={self._n}, k={self._k}, "
            f"atoms={self._num_atoms})"
        )


@lru_cache(maxsize=64)
def _widest_pool(k: int, limit: int) -> int:
    """The most pool rows whose k-subsets number at most *limit*."""
    size = k
    while comb(size + 1, k) <= limit:
        size += 1
    return size


@lru_cache(maxsize=64)
def _subsets(size: int, k: int) -> np.ndarray:
    """The k-subsets of ``range(size)`` in :func:`itertools.combinations`
    order. Shared by every computer through the cache: never written."""
    members = np.array(list(combinations(range(size), k)), dtype=np.intp)
    members.flags.writeable = False
    return members


@lru_cache(maxsize=32)
def _sweep_picks(size: int, k: int) -> np.ndarray:
    """Row r: for each (subset, member) pair, its ``sides`` row at r.

    Pairs run over :func:`_subsets`' rows, k members each; member s
    takes G at another member's position and L elsewhere. A table holds
    at most 4096 · k · (size − 1) int32 entries.
    """
    members = _subsets(size, k)
    inside = np.zeros((len(members), size), dtype=bool)
    inside[np.arange(len(members))[:, None], members] = True
    other = _others(size)[members]
    mate = np.take_along_axis(inside[:, None, :], other, axis=2)
    picks = (members * (size - 1)).astype(np.int32)[:, :, None] + mate * np.int32(
        size * (size - 1)
    )
    picks += np.arange(size - 1, dtype=np.int32)
    picks = np.ascontiguousarray(picks.reshape(-1, size - 1).T)
    picks.flags.writeable = False
    return picks


@lru_cache(maxsize=32)
def _others(size: int) -> np.ndarray:
    """Row s lists the positions of ``range(size)`` other than s.
    Shared through the cache like :func:`_subsets`: never written."""
    positions = np.arange(size - 1, dtype=np.int32)
    others = positions + (positions >= np.arange(size)[:, None])
    others.flags.writeable = False
    return others
