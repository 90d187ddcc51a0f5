"""The adaptive probing algorithm APro (paper §5, Fig. 10/11).

APro starts from the RD-based selection; while no k-set reaches the
user-required expected correctness t, it probes one more database (order
chosen by a :class:`~repro.core.policies.ProbePolicy`), collapses that
database's RD to an impulse at the observed relevancy, and re-evaluates.
Termination is guaranteed: once every database is probed, the best set's
expected correctness is exactly 1.

The returned :class:`ProbeSession` records the full trajectory — the
best set and its certainty after every probe — which is what the paper's
Fig. 16 plots.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import comb
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.backend import ArrayBackend
from repro.core.deadline import Deadline
from repro.core.policies import GreedyUsefulnessPolicy, ProbePolicy
from repro.core.pruning import prunable_mask, support_bounds
from repro.core.relevancy import RelevancyDistribution
from repro.core.selection import RDBasedSelector
from repro.core.topk import CorrectnessMetric, TopKComputer
from repro.exceptions import ProbingError
from repro.hiddenweb.database import RelevancyDefinition
from repro.hiddenweb.mediator import Mediator
from repro.types import Query

__all__ = [
    "ProbeRecord",
    "ProbeSession",
    "BatchProber",
    "MediatorProber",
    "APro",
]


@runtime_checkable
class BatchProber(Protocol):
    """Dispatches one round of probes and returns the observations.

    APro decides *which* databases to probe; the prober decides *how*
    the probes are executed (inline, via a thread pool, with retries,
    against fault-injected backends, ...). Observations must be returned
    in the same order as *indices* — APro applies them in that order, so
    belief updates stay deterministic regardless of execution order.
    """

    def probe_batch(
        self, query: Query, indices: Sequence[int]
    ) -> Sequence[float]:
        """Probe the given mediation-order indices for *query*."""
        ...


class MediatorProber:
    """The default prober: synchronous, in-process, fault-free probes."""

    def __init__(
        self, mediator: Mediator, definition: RelevancyDefinition
    ) -> None:
        self._mediator = mediator
        self._definition = definition

    def probe_batch(
        self, query: Query, indices: Sequence[int]
    ) -> list[float]:
        """Probe each database in order, one at a time."""
        return [
            self._mediator[i].probe_relevancy(query, self._definition)
            for i in indices
        ]


@dataclass(frozen=True, slots=True)
class ProbeRecord:
    """One executed probe: which database and what it reported."""

    database: str
    index: int
    observed: float


@dataclass(frozen=True)
class TrajectoryPoint:
    """Best answer set and its certainty after a number of probes."""

    probes: int
    names: tuple[str, ...]
    expected_correctness: float


@dataclass
class ProbeSession:
    """Full record of one APro run for a query.

    ``deadline_expired`` is set when a wall-clock :class:`Deadline`
    stopped the loop before the requested certainty was reached — the
    final trajectory point is then the best set known at expiry, with
    the certainty actually achieved.

    ``pruned_databases`` counts the databases the run excluded from the
    belief machinery — settled, provably-out databases under bound
    pruning (``APro(prune=True)``). ``0`` when the run covered every
    database.
    """

    query: Query
    k: int
    metric: CorrectnessMetric
    threshold: float
    records: list[ProbeRecord] = field(default_factory=list)
    trajectory: list[TrajectoryPoint] = field(default_factory=list)
    deadline_expired: bool = False
    pruned_databases: int = 0

    @property
    def num_probes(self) -> int:
        """Total probes issued."""
        return len(self.records)

    def total_cost(self, costs: Sequence[float] | None = None) -> float:
        """Weighted probing cost of the session.

        With *costs* (per-database, mediation order) each probe is
        charged its database's cost; without, every probe costs 1 — the
        paper's uniform-cost assumption (§5.2).
        """
        if costs is None:
            return float(self.num_probes)
        return float(sum(costs[record.index] for record in self.records))

    @property
    def final(self) -> TrajectoryPoint:
        """The returned answer (last trajectory point)."""
        return self.trajectory[-1]

    @property
    def satisfied(self) -> bool:
        """Whether the final certainty met the requested threshold."""
        return self.final.expected_correctness >= self.threshold

    def names_after(self, probes: int) -> tuple[str, ...]:
        """Best set after *probes* probes (clamped to the trajectory end).

        Fig. 16 evaluates the answer APro would return if stopped after
        a fixed number of probes; once the run has halted, later points
        repeat the final answer.
        """
        index = min(probes, len(self.trajectory) - 1)
        return self.trajectory[index].names


class APro:
    """Adaptive probing on top of an :class:`RDBasedSelector`.

    One loop serves every configuration: the belief machinery runs over
    a list of candidate databases — all of them, or the bound-pruned
    survivors — and every observation is applied through
    :meth:`~repro.core.topk.TopKComputer.collapse`, reusing the rank
    structure built once per query.

    Parameters
    ----------
    selector:
        Provides RDs, the mediator and the relevancy definition. APro
        calls ``build_rds(query, backend=...)`` and, when pruning,
        ``nonzero(query)``: the ascending mediation indices whose RD
        may differ from the impulse at zero (every other slot of
        ``build_rds``'s list must be that impulse).
    policy:
        Probe-order strategy (defaults to the paper's greedy policy).
        APro always passes ``deadline=`` to ``choose`` (``None`` without
        one) and does not inspect signatures, so implementers must
        accept the keyword.
    prober:
        Probe-execution strategy (defaults to synchronous in-process
        probes through the selector's mediator). The serving layer
        plugs a concurrent, fault-tolerant
        :class:`~repro.service.executor.ProbeExecutor` in here.
    backend:
        Numeric backend for RD construction and the top-k computers: a
        registry name (``"numpy"``, ``"python"``), an
        :class:`~repro.core.backend.ArrayBackend`, or ``None`` for the
        process default (``REPRO_BACKEND``). Backends are contractually
        interchangeable — identical answer sets and probe orders,
        certainty deltas ≤1e-9.
    prune:
        Run the belief machinery over bound-pruned survivors only (see
        :mod:`repro.core.pruning`): settled databases (impulses)
        provably unable to enter the top-k are dropped before the
        :class:`TopKComputer` is built, and the certificate is
        re-checked after every out-of-support observation (one can
        weaken it, in which case the computer is rebuilt over the
        re-expanded survivor set; an in-support observation only
        narrows bounds). Same contract as the backends: identical
        selections and probe orders, certainty deltas ≤1e-9.
        ``False`` (default) runs over every database.
    """

    def __init__(
        self,
        selector: RDBasedSelector,
        policy: ProbePolicy | None = None,
        prober: BatchProber | None = None,
        backend: "str | ArrayBackend | None" = None,
        prune: bool = False,
    ) -> None:
        self._selector = selector
        self._policy = policy or GreedyUsefulnessPolicy()
        self._prober = prober or MediatorProber(
            selector.mediator, selector.definition
        )
        self._backend = backend
        self._prune = prune

    @property
    def prober(self) -> BatchProber:
        """The probe-execution strategy currently in use.

        The multiprocess selection tier reads this at dispatch time so
        pool workers' probe callbacks run through exactly the prober the
        in-process path would use — including any test interposer.
        """
        return self._prober

    def run(
        self,
        query: Query,
        k: int,
        threshold: float,
        metric: CorrectnessMetric = CorrectnessMetric.ABSOLUTE,
        max_probes: int | None = None,
        force_probes: int | None = None,
        batch_size: int = 1,
        deadline: Deadline | None = None,
    ) -> ProbeSession:
        """Execute APro for one query.

        Parameters
        ----------
        query:
            The user query.
        k:
            Answer-set size.
        threshold:
            User-required certainty t; the loop stops as soon as the
            best set's expected correctness reaches it.
        metric:
            Correctness metric being guaranteed.
        max_probes:
            Optional hard probe budget. ``0`` disables live probing
            entirely: the session is the pure no-probe RD-based
            selection from the prior (a single trajectory point,
            identical to :meth:`RDBasedSelector.select`), whatever the
            threshold — ``satisfied`` then reports whether the prior
            alone met it.
        force_probes:
            Keep probing until this many probes even after the threshold
            is met (used to trace correctness-vs-probes curves). The
            threshold still defines :attr:`ProbeSession.satisfied`.
        batch_size:
            Probes issued concurrently per round (latency extension:
            real probes are network round-trips, so issuing a few in
            parallel trades a small amount of probe efficiency for
            wall-clock latency). Each round picks the policy's best
            candidate, excludes it, and repeats on the *same* belief
            state up to this many times before observing the results.
            ``1`` (default) is the paper's strictly sequential APro.
        deadline:
            Optional wall-clock budget. The loop checks it before each
            probe round (and deadline-aware policies check it between
            candidate sweeps): once expired, probing stops and the
            session ends at the current best set with the certainty
            actually reached, ``deadline_expired`` set — never an
            exception. An already-expired deadline therefore behaves
            like ``max_probes=0``. Observations already in flight are
            still applied (they are paid for), so expiry granularity is
            one probe round.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ProbingError(f"threshold must be in [0, 1], got {threshold}")
        if max_probes is not None and max_probes < 0:
            raise ProbingError(f"max_probes must be >= 0, got {max_probes}")
        if batch_size < 1:
            raise ProbingError(f"batch_size must be >= 1, got {batch_size}")

        mediator = self._selector.mediator
        n = len(mediator)
        rds: list[RelevancyDistribution] = self._selector.build_rds(
            query, backend=self._backend
        )
        session = ProbeSession(
            query=query, k=k, metric=metric, threshold=threshold
        )
        # ``sub`` maps computer rows to mediation indices: every
        # database, or the bound-pruned survivors.
        nonzero = self._selector.nonzero(query) if self._prune else None
        sub, bounds = self._survivor_map(rds, k, nonzero)
        computer = self._restricted_computer(rds, sub, k)
        best, score = computer.best_set(metric)
        self._record_point(session, mediator, 0, best, score, sub)

        probed: set[int] = set()
        local_of = {g: p for p, g in enumerate(sub)}
        while True:
            reached = score >= threshold
            want_more = (
                force_probes is not None and len(probed) < force_probes
            )
            if reached and not want_more:
                break
            if deadline is not None and deadline.expired:
                session.deadline_expired = True
                break
            if max_probes is not None and len(probed) >= max_probes:
                break
            candidates = [
                local
                for local, g in enumerate(sub)
                if g not in probed and not rds[g].is_impulse
            ]
            if not candidates:
                break
            budget = len(candidates)
            if max_probes is not None:
                budget = min(budget, max_probes - len(probed))
            round_size = min(batch_size, budget)
            batch: list[int] = []
            remaining = list(candidates)
            for _ in range(round_size):
                if deadline is not None and deadline.expired:
                    break  # stop sweeping; the outer check ends the run
                choice = self._policy.choose(
                    computer, remaining, metric, threshold, deadline=deadline
                )
                if choice not in remaining:
                    raise ProbingError(
                        f"policy chose database {choice} outside candidates"
                    )
                batch.append(choice)
                remaining.remove(choice)
            if deadline is not None and deadline.expired:
                # Expired during candidate selection: return the current
                # belief instead of paying for another probe round.
                session.deadline_expired = True
                break
            probe_targets = [sub[local] for local in batch]
            observations = self._prober.probe_batch(query, probe_targets)
            if len(observations) != len(batch):
                raise ProbingError(
                    f"prober returned {len(observations)} observations "
                    f"for a batch of {len(batch)}"
                )
            for choice, observed in zip(probe_targets, observations):
                session.records.append(
                    ProbeRecord(
                        database=mediator[choice].name,
                        index=choice,
                        observed=observed,
                    )
                )
                probed.add(choice)
                rds[choice] = RelevancyDistribution.impulse(observed)
                expanded = False
                if bounds is not None and len(sub) < len(bounds[0]):
                    sub, expanded = self._recheck_certificate(
                        bounds, sub, k, choice, observed
                    )
                if expanded:
                    # An out-of-support observation weakened the
                    # certificate: rebuild over the re-expanded survivor
                    # set (the collapsed RDs are already impulses, so a
                    # rebuild is answer-equivalent to the collapse).
                    local_of = {g: p for p, g in enumerate(sub)}
                    computer = self._restricted_computer(rds, sub, k)
                else:
                    computer = computer.collapse(local_of[choice], observed)
                best, score = computer.best_set(metric)
                self._record_point(
                    session, mediator, len(probed), best, score, sub
                )
        session.pruned_databases = n - len(sub)
        return session

    def _survivor_map(
        self, rds, k: int, nonzero
    ) -> tuple[list[int], tuple | None]:
        """(survivor indices, mutable bound state) for this run.

        Without pruning the survivors are every database. With pruning
        a database is dropped only when it is both certainly out of the
        top-k and settled — an impulse (a certain zero, a trusted
        estimate), which no policy can pick. Every database with two or
        more atoms (``min < max``) stays, so each policy sweeps exactly
        the candidate list of the unpruned run and probe orders cannot
        depend on how a policy breaks ties.

        The bounds are priced from the selector's *nonzero* candidates
        alone: every other database is a certain zero whose RD is the
        impulse at 0, so ``mins`` and ``maxs`` start zero-filled and
        only the candidates' support ends are written in — no
        per-database work spans the certain zeros. The bound state is
        ``(mins, maxs)`` by mediation index, carried only when pruning
        is on so the certificate can be re-checked after an
        out-of-support probe.
        """
        if not self._prune:
            return list(range(len(rds))), None
        mins = np.zeros(len(rds))
        maxs = np.zeros(len(rds))
        mins[nonzero], maxs[nonzero] = support_bounds(
            [rds[g] for g in nonzero.tolist()]
        )
        kept = ~prunable_mask(mins, maxs, k) | (mins < maxs)
        survivors = _pad_survivors(np.flatnonzero(kept), mins, k)
        return survivors.tolist(), (mins, maxs)

    def _restricted_computer(
        self, rds, sub: list[int], k: int
    ) -> TopKComputer:
        """A :class:`TopKComputer` over the survivor sub-list.

        Row ``p`` of the computer is database ``sub[p]``, recorded in
        its ``databases``. ``exact_set_limit`` is pinned so the
        restricted ``best_set`` takes the same exhaustive-vs-hill-climb
        branch the unpruned computer would have: exhaustive iff
        ``comb(n_full, k)`` fits the default budget (then
        ``comb(n_sub, k)`` fits it too), the hill climb otherwise. This
        keeps tie-breaking identical instead of letting the branch flip
        with the survivor count; over every database it is exactly the
        default computer.
        """
        limit = 400 if comb(len(rds), k) <= 400 else 0
        return TopKComputer(
            [rds[g] for g in sub],
            k,
            exact_set_limit=limit,
            backend=self._backend,
            databases=sub,
        )

    @staticmethod
    def _recheck_certificate(
        bounds: tuple, sub: list[int], k: int, database: int, observed: float
    ) -> tuple[list[int], bool]:
        """Update bounds with an observation; re-expand if needed.

        The survivor set only ever grows: shrinking mid-run would
        discard incremental state for no answer benefit (keeping a
        database that *became* prunable is always sound). An
        observation inside the database's prior ``[min, max]`` only
        narrows its bounds — its worst case rises, its best case
        falls — so no certain-beat relation weakens, the survivors
        already cover every database the new bounds cannot exclude,
        and the certificate is not re-run.
        """
        mins, maxs = bounds
        in_support = mins[database] <= observed <= maxs[database]
        mins[database] = observed
        maxs[database] = observed
        if in_support:
            return sub, False
        kept = ~prunable_mask(mins, maxs, k)
        kept[sub] = True
        merged = _pad_survivors(np.flatnonzero(kept), mins, k)
        if len(merged) == len(sub):
            return sub, False
        return merged.tolist(), True

    @staticmethod
    def _record_point(session, mediator, probes, best, score, sub) -> None:
        session.trajectory.append(
            TrajectoryPoint(
                probes=probes,
                names=tuple(mediator[sub[i]].name for i in best),
                expected_correctness=score,
            )
        )


def _pad_survivors(kept: np.ndarray, mins, k: int) -> np.ndarray:
    """Keep at least ``k + 1`` candidates when more exist.

    *kept* holds ascending mediation indices and *mins* the worst-case
    bound of every database. With exactly ``k`` survivors the
    restricted computer would take its own ``k == n`` certainty
    shortcut (score exactly 1.0) where the unpruned computer still
    computes the product of near-one marginals; padding with the
    nearest-miss pruned databases (largest worst-case bound, then
    earliest index — so certain zeros pad lowest index first) keeps
    both paths on the same arithmetic. The padded databases carry
    ~zero top-k mass, so they change nothing else.
    """
    target = min(len(mins), k + 1)
    if len(kept) >= target:
        return kept
    pruned = np.ones(len(mins), dtype=bool)
    pruned[kept] = False
    rest = np.flatnonzero(pruned)
    nearest = rest[np.lexsort((rest, -mins[rest]))[: target - len(kept)]]
    return np.sort(np.concatenate((kept, nearest)))
