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
one batched hill climb answers every atom of every database at once
(see docs/PERFORMANCE.md).

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
    exact_set_limit:
        ``best_set`` enumerates all C(n, k) candidate sets exhaustively
        when their count is at most this; beyond it, a marginal-ranked
        hill-climbing search is used.
    swap_width:
        Size of the non-member pool considered by the hill climber.
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
        exact_set_limit: int = 400,
        swap_width: int = 4,
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
        self._exact_set_limit = exact_set_limit
        self._swap_width = max(1, swap_width)
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
        # rounds re-ask best_set for the same overrides once per pick,
        # and the hill climber re-tries sets across improvement passes.
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
        # Set once the batched hill climb has filled _best_set_memo for
        # every hypothetical probe (see _batch_climbs).
        self._climbs_batched = False

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
        new._exact_set_limit = self._exact_set_limit
        new._swap_width = self._swap_width
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
        if self._num_atoms * self._num_atoms * self._k <= self._BATCH_ALL_LIMIT:
            if self._batch_all is None:
                self._override_batch_all()
            return self._batch_all[start:stop]
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

    def _override_batch_all(self) -> None:
        """Every database's override batch at once, as one (m, n) matrix.

        A greedy usefulness sweep asks for the batch of each candidate
        in turn; stacking the per-database computations collapses the n
        passes of :meth:`_override_marginals_all` into one set of
        (m × m × k) array operations, and each database's batch is its
        span of rows. Each row's own-database span is masked exactly
        like the per-database path (compare ``g_rows[:, start:stop] =
        0`` with the masks of :meth:`_batch_masks`), so the rows are
        bitwise identical to it.
        """
        dbs = self._atom_dbs
        loo_all = self._loo_dps_all()
        fold, lost = self._batch_masks()
        masked_probs = np.where(lost, 0.0, self._atom_probs[None, :])
        if fold is None:
            contrib = loo_all[:, :, 0][dbs] * masked_probs  # (m, m)
        else:
            membership = self._backend.override_membership(
                loo_all[dbs], fold, self._k
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
        :meth:`best_set`, whose first hill-climb miss on a vectorized
        backend answers every atom of every uncertain database in one
        batched pass, so the later reads here are memo hits. Atoms with
        probability below *min_prob* are skipped in the per-atom path
        and their entries are 0.0 — callers that skip negligible mass
        pass their own threshold.
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
        within_budget = (
            self._num_atoms * self._num_atoms * self._k
            <= self._BATCH_ALL_LIMIT
        )
        if within_budget:
            if self._batch_all is None:
                self._override_batch_all()
            batch_all = self._batch_all
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
        contributing their probability alone. Returns ``None`` when no
        whole-sweep path exists — on a non-vectorized backend, or for
        the absolute metric with 1 < k < n — in which case callers fall
        back to the per-database route. For the latter that route is
        already batched: :meth:`conditional_best_scores` reads each atom
        through :meth:`best_set`, whose first miss fills the memo for
        every atom at once.
        Each database's terms are added in atom order from 0.0, as the
        per-database loop adds them (``np.bincount``; a segmented
        ``np.add.reduceat`` would add a span's tail first), and the
        zero-mass atoms of collapsed databases add exactly 0, so the
        sweep matches the per-database accumulation float for float.
        """
        if not self._backend.vectorized:
            return None
        if metric is CorrectnessMetric.ABSOLUTE and 1 < self._k < self._n:
            return None
        key = (metric, float(negligible))
        cached = self._sweep_memo.get(key)
        if cached is None:
            if self._k >= self._n:
                cached = np.ones(self._n)
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
        of expectation). For the absolute metric every C(n, k) set is
        enumerated when feasible; otherwise a marginal-seeded
        hill-climbing swap search is used (see DESIGN.md).

        On a vectorized backend the first hill-climb miss with an
        override runs the climb of *every* hypothetical probe a greedy
        round can ask for in one array pass (:meth:`_batch_climbs`) and
        answers from the memo it fills; the sets are the sequential
        climb's, the values agree within 1e-12. The ``python`` backend
        keeps the sequential climb per call as the oracle.
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
            and not self._climbs_batched
            and self._backend.vectorized
            and comb(self._n, self._k) > self._exact_set_limit
        ):
            self._validate_override(override)
            self._batch_climbs()
            cached = self._best_set_memo.get(memo_key)
            if cached is not None:
                return cached
        marginals = self.marginals(override)
        if self._k == 1:
            # The marginal IS the set probability, so the best singleton
            # under either metric is the first largest marginal.
            best = int(np.argmax(marginals))
            result = (best,), min(1.0, float(marginals[best]))
            self._best_set_memo[memo_key] = result
            return result
        ranked = sorted(range(self._n), key=lambda i: (-marginals[i], i))
        if metric is CorrectnessMetric.PARTIAL:
            chosen = tuple(sorted(ranked[: self._k]))
            result = chosen, min(1.0, float(np.mean([marginals[i] for i in chosen])))
        elif comb(self._n, self._k) <= self._exact_set_limit:
            result = self._best_absolute_exact(override)
        else:
            result = self._best_absolute_hillclimb(ranked, override)
        self._best_set_memo[memo_key] = result
        return result

    def _best_absolute_exact(
        self, override: tuple[int, int] | None
    ) -> tuple[tuple[int, ...], float]:
        best_set: tuple[int, ...] = tuple(range(self._k))
        best_value = -1.0
        for candidate in combinations(range(self._n), self._k):
            value = self.prob_set_is_topk(candidate, override)
            if value > best_value + 1e-15:
                best_set, best_value = candidate, value
        return best_set, max(0.0, best_value)

    def _best_absolute_hillclimb(
        self,
        ranked: list[int],
        override: tuple[int, int] | None,
    ) -> tuple[tuple[int, ...], float]:
        current = set(ranked[: self._k])
        pool = ranked[self._k : self._k + self._swap_width]
        current_value = self.prob_set_is_topk(sorted(current), override)
        improved = True
        while improved:
            improved = False
            for member in sorted(current):
                for candidate in pool:
                    if candidate in current:
                        continue
                    trial = (current - {member}) | {candidate}
                    value = self.prob_set_is_topk(sorted(trial), override)
                    if value > current_value + 1e-12:
                        current, current_value = trial, value
                        improved = True
                        break
                if improved:
                    break
        return tuple(sorted(current)), current_value

    #: Element budget of one chunk of batched climbs. A lane occupies
    #: (databases + partner sets × other pool databases) × pool-atom
    #: width elements: the outrank gather for the product over non-pool
    #: databases plus the per-subset fold; chunking bounds peak memory.
    _CLIMB_BATCH_LIMIT = 131_072

    def _batch_climbs(self) -> None:
        """Fill the best-set memo for every hypothetical probe at once.

        A *lane* is one override (i, t0) the greedy sweep can ask for:
        every atom with 0 < P < 1, i.e. every atom of every database
        that is not an impulse. :meth:`_best_absolute_hillclimb` only
        ever visits k-subsets of a lane's top-(k + swap_width) databases
        by marginal (the seed set plus its swap pool), so each lane's
        ``pool`` is ranked by its row of the override marginals (stable
        on (−marginal, index), exactly the climb's ``ranked``), all
        C(k + w, k) pool subsets are scored in one array pass
        (:meth:`_climb_table`) and :func:`_replay_climbs` re-runs the
        first-improvement climb over that table. Lanes are scored in
        chunks under :attr:`_CLIMB_BATCH_LIMIT`; a lane's values do not
        depend on the chunking. The marginals memo is filled alongside,
        as the per-call climb would, so collapse's memo migration sees
        the same state.
        """
        self._climbs_batched = True
        probs = self._atom_probs
        lane_atoms = np.flatnonzero((probs > 0.0) & (probs < 1.0))
        if not len(lane_atoms):
            return
        lane_dbs = self._atom_dbs[lane_atoms]
        rows = []
        for i in np.unique(lane_dbs).tolist():
            batch = self._override_marginals_all(i)
            rows.append(
                batch[lane_atoms[lane_dbs == i] - int(self._db_atom_start[i])]
            )
        marginals = np.concatenate(rows)
        k = self._k
        size = min(self._n, k + self._swap_width)
        pool = np.argsort(-marginals, axis=1, kind="stable")[:, :size]
        subsets = _pool_subsets(size, k)
        spans = self._db_atom_stop - self._db_atom_start
        width = int(spans[pool].sum(axis=1).max())
        per_lane = width * (self._n + subsets.mates.size)
        step = max(1, self._CLIMB_BATCH_LIMIT // per_lane)
        table = np.concatenate(
            [
                self._climb_table(
                    lane_atoms[lo : lo + step],
                    lane_dbs[lo : lo + step],
                    pool[lo : lo + step],
                    subsets,
                    width,
                )
                for lo in range(0, len(lane_atoms), step)
            ]
        )
        chosen, values = _replay_climbs(table, pool, k, subsets.binom)
        metric = CorrectnessMetric.ABSOLUTE
        for i, t0, best, value, row in zip(
            lane_dbs.tolist(), lane_atoms.tolist(), chosen, values, marginals
        ):
            self._best_set_memo.setdefault((metric, (i, t0)), (best, value))
            self._marginals_memo.setdefault((i, t0), row)

    def _climb_table(
        self,
        atoms: np.ndarray,
        dbs: np.ndarray,
        pool: np.ndarray,
        subsets: _PoolSubsets,
        width: int,
    ) -> np.ndarray:
        """P[S = DB_topk | override] for every pool subset S of every lane.

        Row l is lane (dbs[l], atoms[l]); column c is the pool subset of
        colex rank c. Each lane lays its pool databases' atom spans out
        in rank order, zero-padded to *width*. An atom of pool database
        d contributes to every subset holding d: its (overridden) mass,
        times the product of L (ranks below it) over the non-pool
        databases — taken once per lane, not per subset — times, for
        each choice of the k − 1 other members among the pool, G over
        those members and L over the remaining pool databases. These
        are the terms :meth:`prob_set_is_topk` sums (an atom's own
        database drops out), multiplied and added in another order.
        """
        lanes, size = pool.shape
        lane = np.arange(lanes)[:, None]
        counts = (self._db_atom_stop - self._db_atom_start)[pool]
        ends = np.cumsum(counts, axis=1)
        position = np.arange(width)
        slot = (position[None, :, None] >= ends[:, None, :]).sum(axis=2)
        padded = slot == size
        slot[padded] = size - 1
        atom = (
            self._db_atom_start[pool[lane, slot]]
            + position
            - (ends - counts)[lane, slot]
        )
        atom[padded] = 0
        # The lane's overridden database is an impulse at atom t0.
        ranks = self._atom_ranks
        rank0 = ranks[atoms][:, None]
        atom_ranks = ranks[atom]
        overridden = self._atom_dbs[atom] == dbs[:, None]
        g_over = np.where(overridden, 0.0, rank0 > atom_ranks)
        l_over = (rank0 < atom_ranks).astype(np.float64)
        mass = np.where(
            overridden, atom == atoms[:, None], self._atom_probs[atom]
        )
        mass[padded] = 0.0
        outside = self._less[:, atom]
        outside[dbs, lane[:, 0]] = l_over
        outside[pool, lane] = 1.0
        base = mass * outside.prod(axis=0)
        # The other pool databases of each atom, (lanes, size - 1, width).
        other = pool[lane[:, :, None], subsets.others[slot]].transpose(0, 2, 1)
        inside = self._greater[other, atom[:, None, :]]
        below = self._less[other, atom[:, None, :]]
        is_lane = other == dbs[:, None, None]
        inside = np.where(is_lane, g_over[:, None, :], inside)
        below = np.where(is_lane, l_over[:, None, :], below)
        mates = subsets.mates
        terms = np.repeat(base[:, None, :], len(mates), axis=1)
        for r in range(size - 1):
            terms *= np.where(
                mates[None, :, r, None],
                inside[:, None, r, :],
                below[:, None, r, :],
            )
        column = subsets.column[slot].transpose(0, 2, 1)
        bins = lane[:, :, None] * subsets.count + column
        table = np.bincount(
            bins.ravel(),
            weights=terms.ravel(),
            minlength=lanes * subsets.count,
        )
        return np.clip(table.reshape(lanes, subsets.count), 0.0, 1.0)

    def __repr__(self) -> str:
        return (
            f"TopKComputer(n={self._n}, k={self._k}, "
            f"atoms={self._num_atoms})"
        )


class _PoolSubsets(NamedTuple):
    """Index tables for scoring every k-subset of ``range(size)``.

    Subsets are numbered by colex rank: sorted positions
    p_1 < … < p_k have rank Σ_j C(p_j, j) = Σ_j ``binom[p_j, j]``
    (:func:`_colex_rank`), so the seed set {0, …, k−1} is rank 0.
    ``others[s]`` lists the positions other than s in ascending order;
    ``mates[q]`` is the q-th choice of k − 1 of them (a mask over
    ``others[s]``), and ``column[s, q]`` the rank of s plus that choice.
    """

    count: int
    binom: np.ndarray
    others: np.ndarray
    mates: np.ndarray
    column: np.ndarray


@lru_cache(maxsize=None)
def _pool_subsets(size: int, k: int) -> _PoolSubsets:
    """The :class:`_PoolSubsets` tables for k-subsets of ``range(size)``."""
    binom = np.array(
        [[comb(p, j) for j in range(k + 1)] for p in range(size)],
        dtype=np.intp,
    )
    others = np.array(
        [[p for p in range(size) if p != s] for s in range(size)],
        dtype=np.intp,
    ).reshape(size, size - 1)
    choices = list(combinations(range(size - 1), k - 1))
    mates = np.zeros((len(choices), size - 1), dtype=bool)
    for q, choice in enumerate(choices):
        mates[q, list(choice)] = True
    # held[s, q]: position s plus the q-th choice among the others.
    held = np.zeros((size, len(choices), size), dtype=bool)
    own = np.arange(size)
    choice = np.arange(len(choices))[:, None]
    held[own[:, None, None], choice, others[:, None]] = mates
    held[own, :, own] = True
    column = _colex_rank(held, binom)
    # Shared by every computer through the cache: never written.
    for table in (binom, others, mates, column):
        table.flags.writeable = False
    return _PoolSubsets(comb(size, k), binom, others, mates, column)


def _colex_rank(sets: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Colex rank of each k-subset mask along the last axis."""
    order = np.cumsum(sets, axis=-1)
    return (binom[np.arange(len(binom)), order] * sets).sum(axis=-1)


def _replay_climbs(
    table: np.ndarray, pool: np.ndarray, k: int, binom: np.ndarray
) -> tuple[list[tuple[int, ...]], list[float]]:
    """:meth:`TopKComputer._best_absolute_hillclimb` over a subset table.

    ``table[l, c]`` is lane l's value for its colex-rank-c pool subset
    and ``pool[l]`` its databases in rank order. Every lane starts at
    pool positions 0..k−1 and, one pass per loop iteration for all
    lanes at once, tries removing each member in ascending database
    index against each swap candidate (positions k.. in rank order,
    skipping current members), accepting the first trial whose value
    exceeds the current one by more than 1e-12 — the sequential climb's
    visiting order and acceptance rule. Returns each lane's sorted set
    and value as Python objects.
    """
    lanes, size = pool.shape
    width = size - k
    current = np.zeros((lanes, size), dtype=bool)
    current[:, :k] = True
    value = table[:, 0].copy()
    slots = np.arange(k, size)
    active = np.arange(lanes)
    while len(active):
        held = current[active]
        count = len(active)
        # Member positions by ascending database index.
        key = np.where(held, pool[active], np.iinfo(pool.dtype).max)
        leaving = np.argsort(key, axis=1, kind="stable")[:, :k]
        trial = np.broadcast_to(
            held[:, None, None, :], (count, k, width, size)
        ).copy()
        a = np.arange(count)[:, None, None]
        m = np.arange(k)[None, :, None]
        c = np.arange(width)[None, None, :]
        trial[a, m, c, leaving[:, :, None]] = False
        trial[a, m, c, slots[None, None, :]] = True
        open_slot = ~held[:, slots][:, None, :]
        rank = np.where(open_slot, _colex_rank(trial, binom), 0)
        trial_value = table[active[:, None, None], rank]
        floor = (value[active] + 1e-12)[:, None, None]
        better = open_slot & (trial_value > floor)
        flat = better.reshape(count, k * width)
        hit = flat.any(axis=1)
        member, candidate = np.divmod(flat.argmax(axis=1)[hit], width)
        moved = active[hit]
        current[moved, leaving[hit, member]] = False
        current[moved, slots[candidate]] = True
        value[moved] = trial_value[hit, member, candidate]
        active = moved
    chosen = np.sort(pool[current].reshape(lanes, k), axis=1)
    return [tuple(row) for row in chosen.tolist()], value.tolist()
