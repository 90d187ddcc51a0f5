"""Probe-selection policies (paper §5.3–§5.4).

A policy answers "which database should APro probe next?". The paper's
contribution is the **greedy usefulness policy**: probe the database
whose expected post-probe maximal correctness is highest (Fig. 12/13).
Random and max-uncertainty policies serve as ablation baselines, and a
:class:`LookaheadPolicy` implements the exact expectimax that minimizes
the expected number of probes — the O(n!) "optimal policy" the paper
mentions and rejects as impractical; here it is usable on toy instances
to quantify how close greedy gets.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol

import numpy as np

from repro.core.deadline import Deadline
from repro.core.relevancy import RelevancyDistribution
from repro.core.topk import CorrectnessMetric, TopKComputer
from repro.exceptions import ProbingError

__all__ = [
    "ProbePolicy",
    "GreedyUsefulnessPolicy",
    "CostAwareGreedyPolicy",
    "RandomPolicy",
    "MaxUncertaintyPolicy",
    "LookaheadPolicy",
    "expected_probes_to_threshold",
]


class ProbePolicy(Protocol):
    """Strategy choosing the next database to probe.

    Implementers must accept the ``deadline`` keyword:
    :class:`~repro.core.probing.APro` always passes it (``None`` when
    the run has no deadline) and does not inspect signatures.
    Deadline-aware policies may cut their candidate sweep short once
    the deadline expires, returning the best candidate evaluated so
    far.

    *candidates* are row indices of *computer*; when APro runs over
    the bound-pruned survivors, ``computer.databases[row]`` is the
    row's mediation index.
    """

    def choose(
        self,
        computer: TopKComputer,
        candidates: list[int],
        metric: CorrectnessMetric,
        threshold: float,
        deadline: Deadline | None = None,
    ) -> int:
        """Return the index (from *candidates*) to probe next."""
        ...  # pragma: no cover - protocol signature


class GreedyUsefulnessPolicy:
    """The paper's greedy policy.

    The *usefulness* of probing database i is the expectation, over i's
    RD atoms v, of the best achievable expected correctness once i is
    known to equal v:

        usefulness(i) = Σ_v P[r_i = v] · max_S E[Cor(S) | r_i = v]

    The policy probes the database with the highest usefulness (ties go
    to the earlier database). By convexity, usefulness(i) is always at
    least the current best expected correctness, with equality for
    already-certain databases — so greedy never prefers a probe that
    cannot help over one that can.

    On a vectorized backend :meth:`TopKComputer.usefulness_sweep`
    serves every candidate from one cached array pass, for either
    metric and every k. The ``python`` oracle scores one candidate at a
    time through :meth:`TopKComputer.conditional_best_scores`: one
    leave-one-out pass for the partial metric and for k = 1, one
    answer-set search per atom for the absolute metric at k > 1.
    """

    _NEGLIGIBLE = 1e-9

    def usefulness(
        self,
        computer: TopKComputer,
        database: int,
        metric: CorrectnessMetric,
    ) -> float:
        """Expected post-probe maximal correctness for one database."""
        # A vectorized backend serves every candidate from one cached
        # array pass, which adds each database's terms in the order of
        # the loop below, so both paths return the same floats (a
        # settled database's within 1e-12 at k > 1 under the absolute
        # metric; see TopKComputer.usefulness_sweep).
        sweep = computer.usefulness_sweep(metric, self._NEGLIGIBLE)
        if sweep is not None:
            return float(sweep[database])
        scores = computer.conditional_best_scores(
            database, metric, min_prob=self._NEGLIGIBLE
        )
        total = 0.0
        for (_t, _value, prob), score in zip(
            computer.atoms_of(database), scores
        ):
            # Negligible-mass atoms contribute at most their probability.
            if prob < self._NEGLIGIBLE:
                total += prob
            else:
                total += prob * float(score)
        return total

    def choose(
        self,
        computer: TopKComputer,
        candidates: list[int],
        metric: CorrectnessMetric,
        threshold: float,
        deadline: Deadline | None = None,
    ) -> int:
        if not candidates:
            raise ProbingError("no candidate databases to probe")
        sweep = computer.usefulness_sweep(metric, self._NEGLIGIBLE)
        if sweep is not None:
            # One read of the cached sweep serves the whole round. No
            # deadline cut-off: the sweep is already paid for, and APro
            # checks the deadline again before probing the choice.
            scored = zip(candidates, sweep[candidates].tolist())
        else:
            scored = self._scored(computer, candidates, metric, deadline)
        best_db = candidates[0]
        best_usefulness = -1.0
        for database, usefulness in scored:
            if usefulness > best_usefulness + 1e-12:
                best_db, best_usefulness = database, usefulness
                if best_usefulness >= 1.0:
                    # Usefulness is a probability, so no later candidate
                    # can clear the 1e-12 acceptance margin over 1.0 —
                    # the round's outcome is already decided.
                    break
        return best_db

    def _scored(self, computer, candidates, metric, deadline):
        """(candidate, usefulness) pairs, evaluated one at a time.

        The per-candidate evaluations are the expensive part of a round
        on the non-vectorized path; under a wall-clock deadline, stop
        after the candidates evaluated so far (at least one) instead of
        finishing them. Without a deadline the sweep — and hence the
        probe order — is exactly the paper's.
        """
        for position, database in enumerate(candidates):
            if position and deadline is not None and deadline.expired:
                return
            yield database, self.usefulness(computer, database, metric)

    def __repr__(self) -> str:
        return "GreedyUsefulnessPolicy()"


class CostAwareGreedyPolicy(GreedyUsefulnessPolicy):
    """Greedy usefulness normalized by per-database probe cost (§5.2).

    The paper notes its method "can be extended to scenarios where
    different databases have different probing costs": this policy
    maximizes the expected certainty *gain per unit cost*,
    ``(usefulness(i) − current) / cost(i)``, so a slow or expensive
    source is probed only when its information advantage justifies it.

    Parameters
    ----------
    costs:
        Per-database probe costs in mediation order (all positive),
        looked up through ``computer.databases`` so a computer over a
        survivor subset is charged its databases' own costs.
    """

    def __init__(self, costs: Sequence[float]) -> None:
        cost_list = [float(c) for c in costs]
        if not cost_list or any(c <= 0 for c in cost_list):
            raise ProbingError("probe costs must be positive and non-empty")
        self._costs = cost_list

    def choose(
        self,
        computer: TopKComputer,
        candidates: list[int],
        metric: CorrectnessMetric,
        threshold: float,
        deadline: Deadline | None = None,
    ) -> int:
        if not candidates:
            raise ProbingError("no candidate databases to probe")
        databases = computer.databases
        if max(databases) >= len(self._costs):
            raise ProbingError(
                f"cost vector covers {len(self._costs)} databases, "
                f"computer needs database {max(databases)}"
            )
        _best, current = computer.best_set(metric)
        best_db = candidates[0]
        best_rate = -1.0
        best_cost = float("inf")
        for database in candidates:
            if (
                deadline is not None
                and best_rate >= 0.0
                and deadline.expired
            ):
                break
            gain = self.usefulness(computer, database, metric) - current
            cost = self._costs[databases[database]]
            rate = max(gain, 0.0) / cost
            # Higher gain-per-cost wins; equal rates go to the cheaper
            # probe (a single-step gain of zero does not mean a probe is
            # useless, only that one probe alone cannot raise the max).
            better_rate = rate > best_rate + 1e-12
            tie_cheaper = abs(rate - best_rate) <= 1e-12 and cost < best_cost
            if better_rate or tie_cheaper:
                best_db, best_rate, best_cost = database, rate, cost
        return best_db

    def __repr__(self) -> str:
        return f"CostAwareGreedyPolicy(databases={len(self._costs)})"


class RandomPolicy:
    """Uniform random probing — the naive baseline."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def choose(
        self,
        computer: TopKComputer,
        candidates: list[int],
        metric: CorrectnessMetric,
        threshold: float,
        deadline: Deadline | None = None,
    ) -> int:
        if not candidates:
            raise ProbingError("no candidate databases to probe")
        return int(candidates[int(self._rng.integers(len(candidates)))])

    def __repr__(self) -> str:
        return "RandomPolicy()"


class MaxUncertaintyPolicy:
    """Probe the database whose RD carries the most entropy.

    A natural ablation: it resolves the most *uncertainty* but ignores
    whether that uncertainty matters for the top-k decision.
    """

    def choose(
        self,
        computer: TopKComputer,
        candidates: list[int],
        metric: CorrectnessMetric,
        threshold: float,
        deadline: Deadline | None = None,
    ) -> int:
        if not candidates:
            raise ProbingError("no candidate databases to probe")
        best_db = candidates[0]
        best_entropy = -1.0
        for database in candidates:
            entropy = computer.rd(database).entropy()
            if entropy > best_entropy + 1e-12:
                best_db, best_entropy = database, entropy
        return best_db

    def __repr__(self) -> str:
        return "MaxUncertaintyPolicy()"


def _max_expected_correctness(
    rds: list[RelevancyDistribution], k: int, metric: CorrectnessMetric
) -> float:
    _best, score = TopKComputer(rds, k).best_set(metric)
    return score


def expected_probes_to_threshold(
    rds: list[RelevancyDistribution],
    k: int,
    threshold: float,
    metric: CorrectnessMetric = CorrectnessMetric.ABSOLUTE,
    order: list[int] | None = None,
    max_states: int = 200_000,
) -> float:
    """Expected probe count of the *optimal* probing strategy.

    Exact expectimax over all probe orders and outcomes; exponential in
    the number of uncertain databases and their support sizes, so only
    toy instances are feasible (guarded by *max_states*). With *order*
    given, evaluates that fixed probe order instead of optimizing.
    """
    state_budget = [max_states]

    def recurse(current: list[RelevancyDistribution], probed: frozenset[int]) -> float:
        state_budget[0] -= 1
        if state_budget[0] < 0:
            raise ProbingError(
                f"expectimax exceeded {max_states} states; instance too large"
            )
        if _max_expected_correctness(current, k, metric) >= threshold:
            return 0.0
        candidates = [
            i
            for i in range(len(current))
            if i not in probed and not current[i].is_impulse
        ]
        if order is not None:
            candidates = [i for i in order if i in candidates][:1]
        if not candidates:
            # Nothing left to probe; threshold unreachable from here.
            return 0.0
        best = float("inf")
        for i in candidates:
            cost = 1.0
            for value, prob in current[i].atoms():
                child = list(current)
                child[i] = RelevancyDistribution.impulse(value)
                cost += prob * recurse(child, probed | {i})
            best = min(best, cost)
        return best

    return recurse(list(rds), frozenset())


class LookaheadPolicy:
    """Exact optimal probing via expectimax (toy instances only).

    Chooses the probe minimizing 1 + E[remaining probes], the policy the
    paper calls optimal but computationally impractical (O(n!)). Useful
    in ablations to measure the greedy policy's gap on small cases.
    """

    def __init__(self, max_states: int = 200_000) -> None:
        self._max_states = max_states

    def choose(
        self,
        computer: TopKComputer,
        candidates: list[int],
        metric: CorrectnessMetric,
        threshold: float,
        deadline: Deadline | None = None,
    ) -> int:
        if not candidates:
            raise ProbingError("no candidate databases to probe")
        rds = [computer.rd(i) for i in range(computer.num_databases)]
        best_db = candidates[0]
        best_cost = float("inf")
        for database in candidates:
            cost = 1.0
            for value, prob in rds[database].atoms():
                child = list(rds)
                child[database] = RelevancyDistribution.impulse(value)
                cost += prob * expected_probes_to_threshold(
                    child,
                    computer.k,
                    threshold,
                    metric,
                    max_states=self._max_states,
                )
            if cost < best_cost - 1e-12:
                best_db, best_cost = database, cost
        return best_db

    def __repr__(self) -> str:
        return f"LookaheadPolicy(max_states={self._max_states})"
