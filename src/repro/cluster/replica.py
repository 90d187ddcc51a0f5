"""Cluster replicas: full gateway+service stacks the router shards over.

Two flavours behind one small surface (``name``, ``host``/``port``,
``alive``):

* :class:`SubprocessReplica` — a ``spawn``-ed process that *rebuilds*
  its stack from a :class:`ReplicaSpec`. No model state crosses the
  process boundary: the determinism contract (identical ``(scale,
  seed, n_train, n_test)`` → byte-identical trained state →
  bit-identical selections) is what makes N independently-trained
  replicas answer-interchangeable, the property every cluster identity
  test leans on. Being real processes, they scale across cores and can
  be SIGKILLed by failover tests.
* :class:`InProcessReplica` — a gateway+service pair over an
  already-trained metasearcher, living in the caller's event loop.
  Cheap enough to stand up per-test; each replica still gets its own
  service (own L1 cache, own metrics), so cluster semantics hold.

The pipe protocol mirrors the selection pool's worker handshake: the
child sends ``("ready", port)`` once listening, the parent sends
``"stop"`` (or just closes the pipe) to trigger a graceful gateway
drain.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import signal
from dataclasses import dataclass

from repro.exceptions import ConfigurationError, ReproError
from repro.gateway.gateway import GatewayConfig, MetasearchGateway
from repro.service.server import MetasearchService, ServiceConfig

__all__ = ["ReplicaSpec", "SubprocessReplica", "InProcessReplica"]


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything a subprocess needs to rebuild one serving stack.

    The testbed half (``scale``/``seed``/``n_train``/``n_test``/
    ``train_queries_cap``/``batch_size``) pins the trained state; the
    rest tunes the stack around it. Picklable by construction — it
    crosses the ``spawn`` boundary.
    """

    scale: float = 0.04
    seed: int = 2004
    n_train: int = 120
    n_test: int = 40
    batch_size: int = 16
    train_queries_cap: int | None = None
    max_workers: int = 4
    pool_workers: int = 0
    cache_tier: str | None = None
    trace: bool | None = None
    max_inflight: int = 8
    max_queue: int = 32
    host: str = "127.0.0.1"

    def service_config(self) -> ServiceConfig:
        return _service_config(self)

    def gateway_config(self) -> GatewayConfig:
        return GatewayConfig(
            host=self.host,
            port=0,
            max_inflight=self.max_inflight,
            max_queue=self.max_queue,
        )


def _service_config(spec: ReplicaSpec) -> ServiceConfig:
    kwargs: dict = {
        "max_workers": spec.max_workers,
        "pool_workers": spec.pool_workers,
        "trace": spec.trace,
    }
    if spec.cache_tier is not None:
        kwargs["cache_tier"] = spec.cache_tier
    return ServiceConfig(**kwargs)


def _replica_main(conn, spec: ReplicaSpec) -> None:
    """Subprocess entry: rebuild, listen, report, drain on request."""
    # The parent owns process-group signals (e.g. a ^C on the CLI);
    # the replica dies by pipe close or explicit stop, not SIGINT races.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        asyncio.run(_replica_serve(conn, spec))
    except Exception as error:  # noqa: BLE001 - report, then die
        with contextlib.suppress(Exception):
            conn.send(("error", f"{type(error).__name__}: {error}"))
    finally:
        with contextlib.suppress(Exception):
            conn.close()


async def _replica_serve(conn, spec: ReplicaSpec) -> None:
    # Imported here: the testbed builder pulls in the experiments
    # stack, which the parent-side router never needs.
    from repro.service.bench import build_trained_testbed

    _, metasearcher = build_trained_testbed(
        scale=spec.scale,
        seed=spec.seed,
        n_train=spec.n_train,
        n_test=spec.n_test,
        batch_size=spec.batch_size,
        train_queries_cap=spec.train_queries_cap,
    )
    service = MetasearchService(metasearcher, _service_config(spec))
    gateway = MetasearchGateway(service, spec.gateway_config())
    await gateway.start()
    conn.send(("ready", gateway.port))
    try:
        while True:
            # Poll the pipe without blocking the loop; a closed pipe
            # (parent gone) drains the same as an explicit stop.
            if conn.poll(0):
                try:
                    message = conn.recv()
                except EOFError:
                    break
                if message == "stop":
                    break
            await asyncio.sleep(0.05)
    finally:
        await gateway.stop()
        service.shutdown()


class SubprocessReplica:
    """One spawned replica process and its control pipe."""

    def __init__(
        self,
        name: str,
        spec: ReplicaSpec,
        start_timeout_s: float = 120.0,
    ) -> None:
        if not name:
            raise ConfigurationError("replica name must be non-empty")
        self.name = name
        self.spec = spec
        self._start_timeout_s = start_timeout_s
        self._process: multiprocessing.process.BaseProcess | None = None
        self._conn = None
        self._port: int | None = None

    def start(self) -> None:
        """Spawn and block until the child gateway is listening."""
        if self._process is not None:
            raise ReproError(f"replica {self.name!r} already started")
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_replica_main,
            args=(child_conn, self.spec),
            name=f"repro-replica-{self.name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(self._start_timeout_s):
            process.kill()
            raise ReproError(
                f"replica {self.name!r} did not report ready within "
                f"{self._start_timeout_s}s"
            )
        message = parent_conn.recv()
        if not (
            isinstance(message, tuple)
            and len(message) == 2
            and message[0] == "ready"
        ):
            process.kill()
            raise ReproError(
                f"replica {self.name!r} failed to start: {message!r}"
            )
        self._process = process
        self._conn = parent_conn
        self._port = int(message[1])

    @property
    def host(self) -> str:
        return self.spec.host

    @property
    def port(self) -> int:
        if self._port is None:
            raise ReproError(f"replica {self.name!r} is not running")
        return self._port

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    @property
    def pid(self) -> int | None:
        return None if self._process is None else self._process.pid

    def kill(self) -> None:
        """SIGKILL — the crash the failover tests inject."""
        if self._process is not None and self._process.pid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self._process.pid, signal.SIGKILL)

    def stop(self, timeout_s: float = 10.0) -> None:
        """Graceful: ask the child to drain its gateway, then join."""
        process, self._process = self._process, None
        conn, self._conn = self._conn, None
        self._port = None
        if conn is not None:
            with contextlib.suppress(Exception):
                conn.send("stop")
        if process is not None:
            process.join(timeout=timeout_s)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        if conn is not None:
            with contextlib.suppress(Exception):
                conn.close()

    def __repr__(self) -> str:
        state = "alive" if self.alive else "stopped"
        return f"SubprocessReplica({self.name!r}, {state})"


class InProcessReplica:
    """A gateway+service pair living in the caller's event loop."""

    def __init__(
        self,
        name: str,
        metasearcher,
        service_config: ServiceConfig | None = None,
        gateway_config: GatewayConfig | None = None,
    ) -> None:
        if not name:
            raise ConfigurationError("replica name must be non-empty")
        self.name = name
        self.service = MetasearchService(
            metasearcher, service_config or ServiceConfig()
        )
        self.gateway = MetasearchGateway(
            self.service, gateway_config or GatewayConfig()
        )

    async def start(self) -> None:
        await self.gateway.start()

    @property
    def host(self) -> str:
        return "127.0.0.1"

    @property
    def port(self) -> int:
        return self.gateway.port

    @property
    def alive(self) -> bool:
        try:
            return self.gateway.port > 0
        except ReproError:
            return False

    async def stop(self) -> None:
        await self.gateway.stop()
        self.service.shutdown()

    def __repr__(self) -> str:
        return f"InProcessReplica({self.name!r})"
