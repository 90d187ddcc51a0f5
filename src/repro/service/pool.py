"""`SelectionPool`: GIL-free execution of the per-query CPU stages.

The serving layer's probe executor made probe *I/O* concurrent, and the
incremental APro loop made the selection *math* fast — but under
concurrent load every query's belief updates still contend for one GIL
inside :class:`~repro.service.server.MetasearchService`'s thread pool,
capping aggregate selection throughput at roughly one core.
:class:`SelectionPool` is the missing execution tier: ``N`` long-lived
``spawn``-ed worker processes (see :mod:`repro.service.worker`) that run
RD construction → ``TopKComputer`` → ``APro.run`` truly in parallel,
while probe execution stays in the parent on the existing
``ProbeExecutor``/``ResilientDatabase`` path.

Dispatch model — **whole-query with probe callback**: a request leases a
worker for its full duration; the worker runs the APro loop and calls
back over its pipe whenever it needs a probe round, which the leasing
parent thread executes through the service's prober and answers on the
same pipe. (The alternative — parent-owned probe loop with per-round
belief RPCs — moves the same number of messages but duplicates APro's
control flow on both sides of the pipe; see ``docs/PERFORMANCE.md`` for
the trade-off.)

Lifecycle management:

* **Lazy start** — workers spawn on first dispatch, so constructing a
  pool-enabled service stays cheap.
* **Health** — :meth:`ping` round-trips every worker; a worker that
  dies (crash, SIGKILL, hang past ``step_timeout_s``) is detected at
  the pipe, replaced automatically, and the affected request falls back
  to in-process execution — degraded throughput, never a lost request.
* **Recycling** — ``max_tasks_per_worker`` retires a worker after a
  fixed number of requests and spawns a fresh one (the standard hedge
  against slow leaks in long-lived workers).
* **Bounded dispatch** — at most ``max_pending`` requests may wait for
  a lease (``pool_queue_depth`` gauge); beyond that, or after
  ``lease_timeout_s``, the request falls back in-process instead of
  queueing unboundedly.
* **Unhealthy degradation** — repeated consecutive crashes (or spawn
  failure) mark the pool unhealthy: every subsequent request falls back
  in-process (``pool_fallback_total``), metrics-visible, never an
  outage.

* **Hot state swap** — :meth:`SelectionPool.update_state` replaces the
  model blob without stopping the pool: idle workers are reloaded in
  place immediately, busy workers finish their in-flight request under
  the old state and are reloaded lazily the first time they refuse a
  request under the new fingerprint (``("stale", fp)`` →
  ``("reload", blob)`` → re-dispatch, counted by
  ``pool_stale_refusals``). Zero requests are dropped across a swap;
  see ``docs/ADAPTATION.md``.

All pool instruments (``pool_dispatch``, ``pool_queue_depth``,
``pool_worker_restarts``, ``pool_worker_recycles``,
``pool_fallback_total``, ``pool_stale_refusals``, ``stage_pool_ms``)
are pre-registered by the service at construction, per the
stable-snapshot-key-set contract.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.exceptions import ConfigurationError, ReproError
from repro.service.metrics import MetricsRegistry
from repro.service.worker import WorkerStateBlob, worker_main
from repro.types import Query

__all__ = [
    "PoolRequest",
    "PoolResult",
    "PoolUnavailableError",
    "WorkerCrashedError",
    "PoolExecutionError",
    "StaleRequestError",
    "SelectionPool",
]

#: Probe callback signature: (query, mediation-order indices) -> observations.
ProbeFn = Callable[[Query, Sequence[int]], Sequence[float]]


class PoolUnavailableError(ReproError):
    """The pool cannot take this request (unhealthy, full, or closed).

    Callers degrade gracefully to in-process execution.
    """


class WorkerCrashedError(ReproError):
    """The leased worker died mid-request; it has been replaced."""


class PoolExecutionError(ReproError):
    """The worker reported an error for this request (worker survives)."""


class StaleRequestError(PoolExecutionError):
    """The request's fingerprint predates the pool's current state.

    Raised when a worker refuses a request whose fingerprint matches
    *neither* the worker's state nor the pool's current blob — i.e. the
    request was built against a model that a hot-swap has since retired.
    The caller should rebuild the request against the pool's current
    :attr:`SelectionPool.fingerprint` and re-dispatch (the answer is
    then computed under the new model, which is exactly what a request
    that had not yet started is entitled to). Subclasses
    :class:`PoolExecutionError` so callers that only know the old
    contract still degrade gracefully in-process.
    """


@dataclass(frozen=True)
class PoolRequest:
    """One selection request, parent-side.

    ``wire()`` is the entire per-request payload shipped to the worker:
    the analyzed terms plus scalars — never summaries or ED state
    (enforced by a payload-size test).
    """

    query: Query
    k: int
    threshold: float
    metric_name: str
    fingerprint: str
    max_probes: int | None = None
    batch_size: int = 1
    deadline_s: float | None = None
    # Wire-serialized trace position (repro.obs.wire_context()); only
    # present on the wire when the request is actually traced, so the
    # payload stays byte-identical with tracing off.
    trace: dict | None = None

    def wire(self) -> dict:
        payload = {
            "terms": list(self.query.terms),
            "k": self.k,
            "threshold": self.threshold,
            "metric": self.metric_name,
            "fingerprint": self.fingerprint,
            "max_probes": self.max_probes,
            "batch_size": self.batch_size,
            "deadline_s": self.deadline_s,
        }
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload


@dataclass(frozen=True)
class PoolResult:
    """What a worker computed for one request.

    ``spans`` carries the worker-side span records of a traced request
    back across the process boundary (empty otherwise); the parent
    replays them into its own trace. It deliberately does not
    participate in answer identity — the pool-identity tests compare
    the selection fields.
    """

    selected: tuple[str, ...]
    certainty: float
    probes: int
    probe_order: tuple[str, ...]
    deadline_expired: bool
    spans: tuple = ()
    # Databases the worker's run excluded from the belief machinery by
    # bound pruning; 0 when pruning is off or nothing was prunable.
    pruned: int = 0


class _WorkerHandle:
    """One worker process plus its parent-side pipe end."""

    __slots__ = ("process", "conn", "tasks_done")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.tasks_done = 0

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)

    def stop(self, join_timeout_s: float = 2.0) -> None:
        try:
            self.conn.send(("stop",))
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.process.join(timeout=join_timeout_s)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass


class SelectionPool:
    """A process pool for the CPU-bound selection stages.

    Parameters
    ----------
    blob:
        The read-only model state shipped to every worker at spawn (see
        :func:`repro.service.worker.build_worker_blob`).
    prober:
        Parent-side probe executor; called from the leasing thread
        whenever a worker requests a probe round. Read per call, so
        interposers installed after construction still apply.
    workers:
        Number of worker processes.
    metrics:
        Registry the pool instruments report into. The owning service
        pre-registers every instrument; a bare pool registers its own.
    max_tasks_per_worker:
        Retire and respawn a worker after this many requests
        (``None`` = never).
    lease_timeout_s:
        How long a request may wait for a free worker before falling
        back in-process.
    max_pending:
        Requests allowed to wait for a lease at once; beyond it the
        request falls back immediately (bounded dispatch queue).
    step_timeout_s:
        Longest the parent waits for a single worker message before
        declaring the worker hung (it is then killed and replaced).
    unhealthy_after:
        Consecutive worker crashes that mark the whole pool unhealthy
        (default ``2 * workers``, minimum 2).
    """

    def __init__(
        self,
        blob: WorkerStateBlob,
        prober: ProbeFn,
        workers: int,
        metrics: MetricsRegistry | None = None,
        max_tasks_per_worker: int | None = None,
        lease_timeout_s: float = 5.0,
        max_pending: int = 64,
        step_timeout_s: float = 60.0,
        unhealthy_after: int | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"pool workers must be >= 1, got {workers}"
            )
        if max_tasks_per_worker is not None and max_tasks_per_worker < 1:
            raise ConfigurationError(
                f"max_tasks_per_worker must be >= 1, "
                f"got {max_tasks_per_worker}"
            )
        if lease_timeout_s <= 0:
            raise ConfigurationError(
                f"lease_timeout_s must be > 0, got {lease_timeout_s}"
            )
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        self._blob = blob
        self._prober = prober
        self._workers = workers
        self._metrics = metrics or MetricsRegistry()
        self._max_tasks = max_tasks_per_worker
        self._lease_timeout_s = lease_timeout_s
        self._max_pending = max_pending
        self._step_timeout_s = step_timeout_s
        self._unhealthy_after = (
            max(2, 2 * workers)
            if unhealthy_after is None
            else max(1, unhealthy_after)
        )
        self._context = multiprocessing.get_context("spawn")
        self._idle: queue.Queue[_WorkerHandle] = queue.Queue()
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self._unhealthy = False
        self._waiting = 0
        self._consecutive_crashes = 0
        self._live: set[_WorkerHandle] = set()

    # -- introspection --------------------------------------------------------

    @property
    def workers(self) -> int:
        """Configured pool width."""
        return self._workers

    @property
    def blob(self) -> WorkerStateBlob:
        """The state blob workers currently hold (callers build
        refreshed blobs from it for :meth:`update_state`)."""
        with self._lock:
            return self._blob

    @property
    def fingerprint(self) -> str:
        """The state fingerprint every request must carry."""
        return self._blob.fingerprint

    @property
    def started(self) -> bool:
        """Whether worker processes have been spawned yet."""
        return self._started

    @property
    def healthy(self) -> bool:
        """Whether the pool is accepting dispatches."""
        return not (self._closed or self._unhealthy)

    def worker_pids(self) -> list[int]:
        """PIDs of the live workers (fault tests kill these)."""
        with self._lock:
            return [
                handle.process.pid
                for handle in self._live
                if handle.alive and handle.process.pid is not None
            ]

    # -- lifecycle ------------------------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=worker_main,
            args=(child_conn, self._blob),
            daemon=True,
            name="selection-worker",
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(process, parent_conn)

    def _ensure_started(self) -> None:
        with self._lock:
            if self._started or self._closed or self._unhealthy:
                return
            try:
                handles = [self._spawn() for _ in range(self._workers)]
            except Exception:  # noqa: BLE001 - spawn is environmental
                self._unhealthy = True
                raise PoolUnavailableError(
                    "selection pool failed to spawn workers"
                ) from None
            for handle in handles:
                self._live.add(handle)
                self._idle.put(handle)
            self._started = True

    def ping(self, timeout_s: float = 30.0) -> int:
        """Health-check every idle worker; returns how many answered.

        Workers that fail the round-trip (dead pipe, wrong fingerprint,
        no answer in time) are replaced. Busy workers are not touched.
        """
        self._ensure_started()
        checked: list[_WorkerHandle] = []
        while True:
            try:
                checked.append(self._idle.get_nowait())
            except queue.Empty:
                break
        healthy = 0
        for handle in checked:
            ok = False
            try:
                handle.conn.send(("ping",))
                if handle.conn.poll(timeout_s):
                    kind, fingerprint = handle.conn.recv()
                    ok = (
                        kind == "pong"
                        and fingerprint == self._blob.fingerprint
                    )
            except (OSError, EOFError, BrokenPipeError, ValueError):
                ok = False
            if ok:
                healthy += 1
                self._idle.put(handle)
            else:
                self._replace(handle)
        return healthy

    def update_state(self, blob: WorkerStateBlob) -> int:
        """Hot-swap *blob* in as the pool's model state; returns the
        number of workers reloaded in place.

        Zero-downtime by construction: the pool keeps serving while the
        swap propagates. Idle workers are reloaded here, synchronously;
        workers busy with an in-flight request are left alone — they
        finish that request under the state its fingerprint names, and
        are reloaded lazily the first time they refuse a new-fingerprint
        request (see :meth:`_converse`). Fingerprints are content
        hashes, so swapping in a bit-identical state is a no-op.
        """
        with self._lock:
            if self._closed:
                raise PoolUnavailableError("selection pool is closed")
            unchanged = blob.fingerprint == self._blob.fingerprint
            self._blob = blob
        if unchanged or not self._started:
            # A cold pool simply spawns with the new blob on first
            # dispatch; nothing to reload.
            return 0
        drained: list[_WorkerHandle] = []
        while True:
            try:
                drained.append(self._idle.get_nowait())
            except queue.Empty:
                break
        reloaded = 0
        for handle in drained:
            if self._reload(handle, blob):
                reloaded += 1
                self._idle.put(handle)
            else:
                self._replace(handle)
        return reloaded

    def _reload(self, handle: _WorkerHandle, blob: WorkerStateBlob) -> bool:
        """Ship *blob* to one worker and await its acknowledgement."""
        try:
            handle.conn.send(("reload", blob))
            if not handle.conn.poll(self._step_timeout_s):
                return False
            kind, fingerprint = handle.conn.recv()
            return kind == "reloaded" and fingerprint == blob.fingerprint
        except (OSError, EOFError, BrokenPipeError, ValueError):
            return False

    def _replace(self, dead: _WorkerHandle) -> None:
        """Kill *dead*, spawn a successor into the idle set."""
        dead.kill()
        with self._lock:
            self._live.discard(dead)
        self._metrics.counter("pool_worker_restarts").inc()
        try:
            replacement = self._spawn()
        except Exception:  # noqa: BLE001 - spawn is environmental
            with self._lock:
                self._unhealthy = True
            return
        with self._lock:
            if self._closed:
                replacement.stop()
                return
            self._live.add(replacement)
        self._idle.put(replacement)

    def _recycle(self, handle: _WorkerHandle) -> None:
        handle.stop()
        with self._lock:
            self._live.discard(handle)
        self._metrics.counter("pool_worker_recycles").inc()
        try:
            replacement = self._spawn()
        except Exception:  # noqa: BLE001 - spawn is environmental
            with self._lock:
                self._unhealthy = True
            return
        with self._lock:
            if self._closed:
                replacement.stop()
                return
            self._live.add(replacement)
        self._idle.put(replacement)

    def shutdown(self) -> None:
        """Stop every worker and refuse further dispatches."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            live = list(self._live)
            self._live.clear()
        while True:
            try:
                self._idle.get_nowait()
            except queue.Empty:
                break
        for handle in live:
            handle.stop()

    def __enter__(self) -> "SelectionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- dispatch -------------------------------------------------------------

    def execute(self, request: PoolRequest) -> PoolResult:
        """Run one request on a pool worker.

        Raises
        ------
        PoolUnavailableError
            Pool closed/unhealthy, dispatch queue full, or no worker
            freed up within ``lease_timeout_s`` — fall back in-process.
        WorkerCrashedError
            The leased worker died mid-request (already replaced) —
            fall back in-process; nothing was answered.
        PoolExecutionError
            The worker reported a request-level error (stale state, a
            selection exception) — fall back in-process.
        """
        if self._closed or self._unhealthy:
            raise PoolUnavailableError("selection pool is not available")
        self._ensure_started()
        handle = self._lease()
        try:
            result = self._converse(handle, request)
        except WorkerCrashedError:
            with self._lock:
                self._consecutive_crashes += 1
                if self._consecutive_crashes >= self._unhealthy_after:
                    self._unhealthy = True
            self._replace(handle)
            raise
        except StaleRequestError:
            # The worker is healthy and current — it *refused* cleanly,
            # pipe drained. Only the request needs rebuilding.
            self._idle.put(handle)
            raise
        except BaseException:
            # Protocol desync (including an interrupt mid-conversation)
            # taints the lease: retire the worker rather than reusing a
            # pipe with unread messages on it.
            self._replace(handle)
            raise
        with self._lock:
            self._consecutive_crashes = 0
        handle.tasks_done += 1
        if (
            self._max_tasks is not None
            and handle.tasks_done >= self._max_tasks
        ):
            self._recycle(handle)
        else:
            self._idle.put(handle)
        self._metrics.counter("pool_dispatch").inc()
        return result

    def _lease(self) -> _WorkerHandle:
        depth_gauge = self._metrics.gauge("pool_queue_depth")
        with self._lock:
            if self._waiting >= self._max_pending:
                raise PoolUnavailableError(
                    f"pool dispatch queue full "
                    f"({self._waiting} requests waiting)"
                )
            self._waiting += 1
            depth_gauge.set(self._waiting)
        try:
            while True:
                try:
                    handle = self._idle.get(timeout=self._lease_timeout_s)
                except queue.Empty:
                    raise PoolUnavailableError(
                        f"no pool worker free within "
                        f"{self._lease_timeout_s}s"
                    ) from None
                if handle.alive:
                    return handle
                # Found a corpse in the idle set (e.g. SIGKILLed while
                # idle): replace it and keep waiting for a live one.
                self._replace(handle)
        finally:
            with self._lock:
                self._waiting -= 1
                depth_gauge.set(self._waiting)

    def _converse(
        self, handle: _WorkerHandle, request: PoolRequest
    ) -> PoolResult:
        try:
            handle.conn.send(("run", request.wire()))
        except (OSError, ValueError, BrokenPipeError) as error:
            raise WorkerCrashedError(
                f"worker died before dispatch: {error}"
            ) from None
        while True:
            try:
                if not handle.conn.poll(self._step_timeout_s):
                    raise WorkerCrashedError(
                        f"worker silent for {self._step_timeout_s}s"
                    )
                message = handle.conn.recv()
            except WorkerCrashedError:
                raise
            except (EOFError, OSError, ValueError) as error:
                raise WorkerCrashedError(
                    f"worker died mid-request: {error}"
                ) from None
            kind = message[0]
            if kind == "probe":
                try:
                    observations = list(
                        self._prober(request.query, message[1])
                    )
                except Exception as error:  # noqa: BLE001 - boundary
                    self._send_abort(handle, error)
                    raise
                try:
                    handle.conn.send(("obs", observations))
                except (OSError, ValueError, BrokenPipeError) as error:
                    raise WorkerCrashedError(
                        f"worker died awaiting observations: {error}"
                    ) from None
            elif kind == "result":
                payload = message[1]
                return PoolResult(
                    selected=tuple(payload["selected"]),
                    certainty=float(payload["certainty"]),
                    probes=int(payload["probes"]),
                    probe_order=tuple(payload["probe_order"]),
                    deadline_expired=bool(payload["deadline_expired"]),
                    spans=tuple(payload.get("spans", ())),
                    pruned=int(payload.get("pruned", 0)),
                )
            elif kind == "stale":
                self._metrics.counter("pool_stale_refusals").inc()
                with self._lock:
                    current = self._blob
                if request.fingerprint != current.fingerprint:
                    # The *request* is behind: a swap retired its model
                    # between build and dispatch. The caller rebuilds it
                    # against the current fingerprint and re-dispatches.
                    raise StaleRequestError(
                        f"stale-state: request expects "
                        f"{request.fingerprint}, pool now holds "
                        f"{current.fingerprint}"
                    )
                # The *worker* is behind: it was busy (or queued) when
                # update_state propagated. Reload it in place and
                # re-dispatch the same request — never an error for the
                # caller.
                if not self._reload(handle, current):
                    raise WorkerCrashedError(
                        "worker failed to reload after a state swap"
                    )
                try:
                    handle.conn.send(("run", request.wire()))
                except (OSError, ValueError, BrokenPipeError) as error:
                    raise WorkerCrashedError(
                        f"worker died on post-reload dispatch: {error}"
                    ) from None
            elif kind == "error":
                raise PoolExecutionError(message[1])
            else:
                raise PoolExecutionError(
                    f"protocol violation: unexpected {kind!r} from worker"
                )

    def _send_abort(self, handle: _WorkerHandle, error: Exception) -> None:
        try:
            handle.conn.send(("abort", f"{type(error).__name__}: {error}"))
            # Let the worker acknowledge with its error report so the
            # pipe is drained before the handle goes back in the pool.
            if handle.conn.poll(self._step_timeout_s):
                handle.conn.recv()
        except (OSError, EOFError, ValueError, BrokenPipeError):
            pass

    def __repr__(self) -> str:
        state = (
            "closed"
            if self._closed
            else "unhealthy"
            if self._unhealthy
            else "started"
            if self._started
            else "cold"
        )
        return f"SelectionPool(workers={self._workers}, {state})"
