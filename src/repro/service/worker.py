"""Worker-side half of the multiprocess selection tier.

A :class:`~repro.service.pool.SelectionPool` worker is a long-lived
``spawn``-ed process that runs the CPU-bound per-query stages — RD
construction, :class:`~repro.core.topk.TopKComputer` belief math and the
:class:`~repro.core.probing.APro` loop — outside the parent's GIL.
Probe *execution* stays in the parent (the existing
``ProbeExecutor``/``ResilientDatabase`` path): when APro needs a probe
round, the worker's :class:`ConnProber` sends the chosen indices back
over the worker's pipe and blocks until the parent returns the
observations, so fault injection, retries, timeouts and probe metrics
all keep running exactly where they always did.

State shipping happens **once, at worker start**: the parent builds a
:class:`WorkerStateBlob` (content summaries, the trained
``ErrorModel.state_dict()``, classifier configuration, relevancy
definition, database names in mediation order, plus the live policy and
estimator objects) and passes it as the spawn argument. Per-request
messages carry only the analyzed query terms and a few scalars — no
summaries, no ED state — plus the blob's *fingerprint*; a worker whose
state does not match the request's fingerprint refuses the work with a
``stale-state`` error instead of silently computing against the wrong
model.

Because the worker rebuilds its selector from the same serialized forms
the persistence layer round-trips (``ContentSummary.to_dict`` /
``ErrorModel.state_dict``), and observations are produced by the parent,
pool selections are bit-identical to in-process execution: same answer
sets, same probe orders, certainties equal to floating point.

State is *versioned*, not frozen: the adaptation layer
(:mod:`repro.adapt`) can hot-swap a refreshed model into a running pool.
``("reload", blob)`` replaces a worker's state in place (acknowledged
with ``("reloaded", fingerprint)``), and a worker that receives a
request for a fingerprint it does not hold answers ``("stale",
held_fingerprint)`` instead of computing against the wrong model — the
parent then either reloads the worker and re-dispatches (worker behind a
swap) or tells the caller to rebuild the request (request behind a
swap). See ``docs/ADAPTATION.md`` for the full swap protocol.

Wire protocol (pickled tuples over a duplex ``multiprocessing.Pipe``):

====================  =========================================
parent -> worker      ``("run", request_dict)``, ``("ping",)``,
                      ``("obs", [floats])``, ``("abort", msg)``,
                      ``("reload", blob)``, ``("stop",)``
worker -> parent      ``("probe", [indices])``,
                      ``("result", result_dict)``,
                      ``("error", message)``, ``("pong", fingerprint)``,
                      ``("stale", fingerprint)``,
                      ``("reloaded", fingerprint)``
====================  =========================================

A traced request (see :mod:`repro.obs`) adds an optional ``"trace"``
key to the request dict (the parent's serialized trace position) and a
``"spans"`` key to the result dict (the worker-side span records, which
the parent replays into its own trace); untraced payloads are
byte-identical to the pre-tracing wire format.

The module is import-safe under the ``spawn`` start method: it imports
no service-layer machinery at module load beyond what the selection math
itself needs.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

from repro.core.deadline import Deadline
from repro.core.policies import ProbePolicy
from repro.core.probing import APro
from repro.core.query_types import QueryTypeClassifier
from repro.core.selection import RDBasedSelector
from repro.core.topk import CorrectnessMetric
from repro.core.training import ErrorModel
from repro.exceptions import ProbingError
from repro.hiddenweb.database import RelevancyDefinition
from repro.obs import collecting_trace, span
from repro.summaries.estimators import RelevancyEstimator
from repro.summaries.summary import ContentSummary
from repro.types import Query

__all__ = [
    "WorkerStateBlob",
    "build_worker_blob",
    "refresh_worker_blob",
    "worker_main",
]

#: Env knob read at request time inside the worker: a query containing
#: this term makes the worker die with ``os._exit`` mid-request. Only
#: the fault tests set it; it exists because a worker in another process
#: cannot be monkeypatched from the test.
CRASH_TERM_ENV = "REPRO_POOL_CRASH_TERM"


@dataclass(frozen=True)
class _NamedStub:
    """A database stand-in carrying only its name.

    The worker never probes databases itself (probe execution stays in
    the parent), so the selector and APro only ever ask a database for
    its ``name``.
    """

    name: str


class _StubMediator:
    """Duck-typed mediator over :class:`_NamedStub` entries.

    Provides exactly the surface :class:`RDBasedSelector` and
    :class:`~repro.core.probing.APro` use: iteration, ``len`` and
    integer indexing in mediation order.
    """

    def __init__(self, names: Sequence[str]) -> None:
        self._entries = [_NamedStub(name) for name in names]

    def __iter__(self) -> Iterator[_NamedStub]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> _NamedStub:
        return self._entries[index]


@dataclass(frozen=True)
class WorkerStateBlob:
    """Everything a selection worker needs, shipped once at start.

    All model state is in the same serialized forms the persistence
    layer round-trips exactly (so worker-side RDs are bit-identical to
    parent-side ones); the policy and estimator ride along as live
    picklable objects. ``fingerprint`` is a stable hash of the
    JSON-able state plus the policy/estimator identity — requests carry
    it, and a worker refuses work under a different fingerprint.
    """

    database_names: tuple[str, ...]
    summaries: dict[str, dict]
    error_model_state: dict
    estimate_thresholds: tuple[float, ...]
    term_counts: tuple[int, ...]
    definition_value: str
    estimator: RelevancyEstimator
    policy: ProbePolicy
    fingerprint: str
    # Numeric backend for the worker-side APro. Deliberately NOT part
    # of the fingerprint: backends are answer-invariant (the equality
    # contract pins them to the ``python`` oracle), so switching one
    # must not retire cache entries or mark worker state stale.
    backend: str | None = None
    # Candidate-pruning mode ("off" | "exact"). Exact bound pruning is
    # answer-invariant like ``backend`` and therefore also excluded
    # from the fingerprint.
    prune_mode: str = "off"


def _state_fingerprint(
    database_names: Sequence[str],
    summaries: dict[str, dict],
    error_model_state: dict,
    estimate_thresholds: Sequence[float],
    term_counts: Sequence[int],
    definition_value: str,
    estimator: RelevancyEstimator,
    policy: ProbePolicy,
) -> str:
    state = {
        "databases": list(database_names),
        "summaries": summaries,
        "error_model": error_model_state,
        "estimate_thresholds": list(estimate_thresholds),
        "term_counts": list(term_counts),
        "definition": definition_value,
        "estimator": repr(estimator),
        "policy": repr(policy),
    }
    canonical = json.dumps(state, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def build_worker_blob(
    metasearcher, backend: str | None = None
) -> WorkerStateBlob:
    """Extract the read-only selection state of a trained metasearcher.

    Raises whatever the trained-state accessors raise on an untrained
    instance. The blob is what the pool pickles into every worker at
    spawn time — per-request payloads never repeat any of it.
    *backend* names the numeric backend worker-side APros run on
    (``None`` = each worker resolves its own registry default).
    """
    selector = metasearcher.selector
    classifier = selector.classifier
    database_names = tuple(db.name for db in selector.mediator)
    summaries = {
        name: summary.to_dict()
        for name, summary in sorted(selector.summaries.items())
    }
    error_model_state = selector.error_model.state_dict()
    fingerprint = _state_fingerprint(
        database_names,
        summaries,
        error_model_state,
        classifier.estimate_thresholds,
        classifier.term_counts,
        selector.definition.value,
        selector.estimator,
        metasearcher.policy,
    )
    return WorkerStateBlob(
        database_names=database_names,
        summaries=summaries,
        error_model_state=error_model_state,
        estimate_thresholds=tuple(classifier.estimate_thresholds),
        term_counts=tuple(classifier.term_counts),
        definition_value=selector.definition.value,
        estimator=selector.estimator,
        policy=metasearcher.policy,
        fingerprint=fingerprint,
        backend=backend,
        prune_mode=metasearcher.config.prune_mode,
    )


def refresh_worker_blob(
    blob: WorkerStateBlob, error_model_state: dict
) -> WorkerStateBlob:
    """A new blob carrying *error_model_state*, re-fingerprinted.

    This is the adaptation layer's swap primitive: summaries, classifier
    configuration, policy and estimator are unchanged (serve-time
    observations cannot refresh them), only the error model moves. The
    fingerprint is a content hash, so refreshing with a bit-identical
    model state yields the *same* fingerprint — a no-op swap is free.
    """
    fingerprint = _state_fingerprint(
        blob.database_names,
        blob.summaries,
        error_model_state,
        blob.estimate_thresholds,
        blob.term_counts,
        blob.definition_value,
        blob.estimator,
        blob.policy,
    )
    return replace(
        blob, error_model_state=error_model_state, fingerprint=fingerprint
    )


class ConnProber:
    """The worker's :class:`~repro.core.probing.BatchProber`.

    Sends each probe round's indices to the parent over the worker pipe
    and blocks until the observations come back. The parent aborting a
    request (``("abort", msg)``) surfaces as a :class:`ProbingError`.
    """

    def __init__(self, conn) -> None:
        self._conn = conn

    def probe_batch(
        self, query: Query, indices: Sequence[int]
    ) -> list[float]:
        self._conn.send(("probe", list(indices)))
        message = self._conn.recv()
        if message[0] == "abort":
            raise ProbingError(f"parent aborted probe round: {message[1]}")
        if message[0] != "obs":
            raise ProbingError(
                f"protocol violation: expected obs, got {message[0]!r}"
            )
        observations = message[1]
        if len(observations) != len(indices):
            raise ProbingError(
                f"parent returned {len(observations)} observations "
                f"for a round of {len(indices)}"
            )
        return [float(value) for value in observations]


def _rebuild_apro(blob: WorkerStateBlob, conn) -> APro:
    summaries = {
        name: ContentSummary.from_dict(state)
        for name, state in blob.summaries.items()
    }
    selector = RDBasedSelector(
        mediator=_StubMediator(blob.database_names),
        summaries=summaries,
        estimator=blob.estimator,
        error_model=ErrorModel.from_state_dict(blob.error_model_state),
        classifier=QueryTypeClassifier(
            estimate_thresholds=blob.estimate_thresholds,
            term_counts=blob.term_counts,
        ),
        definition=RelevancyDefinition(blob.definition_value),
    )
    return APro(
        selector,
        policy=blob.policy,
        prober=ConnProber(conn),
        backend=blob.backend,
        prune=blob.prune_mode == "exact",
    )


def _run_request(apro: APro, blob: WorkerStateBlob, request: dict) -> dict:
    crash_term = os.environ.get(CRASH_TERM_ENV)
    terms = tuple(request["terms"])
    if crash_term and crash_term in terms:
        os._exit(17)  # the fault tests' deterministic mid-request crash
    deadline_s = request.get("deadline_s")
    # A traced request ships its trace position in the payload; the
    # worker-side spans collect locally (contextvars don't cross a
    # spawn) and travel back in the result for the parent to replay.
    # Note the worker's wall overlaps the parent-side probe.* spans:
    # the worker blocks on the pipe while the parent probes.
    with collecting_trace(request.get("trace")) as trace_records:
        with span("pool.worker", fingerprint=blob.fingerprint) as worker_span:
            session = apro.run(
                Query(terms),
                k=request["k"],
                threshold=request["threshold"],
                metric=CorrectnessMetric[request["metric"]],
                max_probes=request.get("max_probes"),
                batch_size=request.get("batch_size", 1),
                deadline=(
                    None
                    if deadline_s is None
                    else Deadline.after(deadline_s)
                ),
            )
            if session.deadline_expired:
                worker_span.set_outcome("degraded")
    result = {
        "selected": list(session.final.names),
        "certainty": session.final.expected_correctness,
        "probes": session.num_probes,
        "probe_order": [record.database for record in session.records],
        "deadline_expired": session.deadline_expired,
        "pruned": session.pruned_databases,
    }
    if trace_records:
        result["spans"] = trace_records
    return result


def worker_main(conn, blob: WorkerStateBlob) -> None:
    """The worker process entry point: serve requests until stopped.

    One message loop, one request at a time (the pool leases a worker
    exclusively for the duration of a request's conversation). Errors
    inside a request are reported over the pipe and the worker stays
    alive; only ``("stop",)`` or a closed pipe ends the loop.

    A ``("run", ...)`` whose fingerprint does not match the state this
    worker holds is *refused* with ``("stale", held_fingerprint)`` —
    never computed against the wrong model — and a ``("reload", blob)``
    replaces the worker's state in place (the zero-downtime half of the
    model hot-swap: the process, its pipe and its warm imports all
    survive the swap).
    """
    apro = _rebuild_apro(blob, conn)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "stop":
                break
            if kind == "ping":
                conn.send(("pong", blob.fingerprint))
                continue
            if kind == "reload":
                blob = message[1]
                apro = _rebuild_apro(blob, conn)
                conn.send(("reloaded", blob.fingerprint))
                continue
            if kind == "run":
                request = message[1]
                if request.get("fingerprint") != blob.fingerprint:
                    conn.send(("stale", blob.fingerprint))
                    continue
                try:
                    result = _run_request(apro, blob, request)
                except Exception as error:  # noqa: BLE001 - boundary
                    conn.send(
                        ("error", f"{type(error).__name__}: {error}")
                    )
                else:
                    conn.send(("result", result))
                continue
            conn.send(("error", f"unknown message kind {kind!r}"))
    finally:
        conn.close()
