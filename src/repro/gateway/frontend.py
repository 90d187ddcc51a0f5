"""The `gateway/v1` transport: one listener, connection loop, drain and
error envelope for every front end that speaks the protocol.

:class:`~repro.gateway.gateway.MetasearchGateway` answers from one
service and :class:`~repro.cluster.router.ClusterRouter` from N
replicas; both are a :class:`FrontEnd`, so a client cannot tell them
apart. The base owns the listen socket, the pipelined connection loop
(one task per request line, so a slow search never blocks a ping
behind it; responses matched by id and written under a per-connection
lock), the framing guard (a line over ``max_line_bytes`` gets one
``bad_request`` with ``id: null``, then the connection closes), the
drain in :meth:`FrontEnd.stop` and the response envelope around
:meth:`FrontEnd._dispatch`. Subclasses supply the op table, their
instruments, their own work around start and stop, and their own
``shutting_down`` refusal while draining.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import TypeVar

from repro.exceptions import ConfigurationError, ReproError
from repro.gateway.protocol import (
    ErrorCode,
    GatewayError,
    GatewayRequest,
    encode,
    error_payload,
    ok_payload,
    parse_request,
)
from repro.service.metrics import MetricsRegistry

__all__ = ["FrontEnd", "check_transport_config"]

_FrontEndT = TypeVar("_FrontEndT", bound="FrontEnd")


def check_transport_config(config) -> None:
    """Validate the config fields :class:`FrontEnd` reads."""
    if config.drain_timeout_s < 0:
        raise ConfigurationError(
            f"drain_timeout_s must be >= 0, got {config.drain_timeout_s}"
        )
    if config.max_line_bytes < 1024:
        raise ConfigurationError(
            f"max_line_bytes must be >= 1024, got {config.max_line_bytes}"
        )


class FrontEnd:
    """A `gateway/v1` TCP server; subclasses supply the ops.

    *config* must carry ``host``, ``port``, ``drain_timeout_s`` and
    ``max_line_bytes`` (see :func:`check_transport_config`); *metrics*
    holds :attr:`_requests_counter`.
    """

    #: Names the front end in lifecycle errors ("gateway already started").
    _role: str
    #: Counter incremented once per request line.
    _requests_counter: str
    #: Error code answered for a library ReproError that is not typed.
    _library_error: ErrorCode

    def __init__(self, config, metrics: MetricsRegistry) -> None:
        self._config = config
        self._metrics = metrics
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._tasks: set[asyncio.Task] = set()
        self._connections: set[asyncio.StreamWriter] = set()

    async def _dispatch(self, request: GatewayRequest) -> object:
        """Answer one parsed request: the ``result`` of its response.

        A :class:`GatewayError` becomes its typed error response, any
        other library :class:`ReproError` :attr:`_library_error`, and
        anything else ``internal``.
        """
        raise NotImplementedError

    async def _prepare(self) -> None:
        """Work that must be done before the socket binds."""

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listen socket and start accepting connections."""
        if self._server is not None:
            raise ReproError(f"{self._role} already started")
        self._draining = False
        await self._prepare()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self._config.host,
            port=self._config.port,
            limit=self._config.max_line_bytes,
        )

    @property
    def port(self) -> int:
        """The bound TCP port (raises before :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ReproError(f"{self._role} is not listening")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        """Whether :meth:`stop` has begun refusing new requests."""
        return self._draining

    def _state(self) -> str:
        if self._draining:
            return "draining"
        return "listening" if self._server is not None else "stopped"

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain: finish in-flight work, refuse the rest.

        Idempotent. New connections are refused first, then new
        requests on existing connections (typed ``shutting_down``
        responses); in-flight requests get ``drain_timeout_s`` to
        finish before being cancelled.
        """
        self._draining = True
        server, self._server = self._server, None
        if server is not None:
            # Stop accepting new connections. wait_closed() comes only
            # after the per-connection writers are closed below: on
            # newer Pythons it waits for connection handlers too, and
            # those exit only once their client — or we — hang up.
            server.close()
        # Requests keep arriving on open connections while we drain (and
        # are refused with `shutting_down`), so new tasks can appear
        # after any one snapshot: keep waiting until the set is empty or
        # the drain budget runs out.
        drain_deadline = time.monotonic() + self._config.drain_timeout_s
        while self._tasks:
            remaining = drain_deadline - time.monotonic()
            pending = set(self._tasks)
            if remaining <= 0:
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
                break
            done, still_pending = await asyncio.wait(
                pending, timeout=remaining
            )
            if still_pending:
                for task in still_pending:
                    task.cancel()
                await asyncio.gather(*still_pending, return_exceptions=True)
                break
        for writer in list(self._connections):
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        self._connections.clear()
        if server is not None:
            with contextlib.suppress(Exception):
                await server.wait_closed()

    async def __aenter__(self: _FrontEndT) -> _FrontEndT:
        if self._server is None:
            await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        write_lock = asyncio.Lock()
        connection_tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(
                        writer,
                        write_lock,
                        error_payload(
                            None,
                            ErrorCode.BAD_REQUEST,
                            f"request line exceeds "
                            f"{self._config.max_line_bytes} bytes",
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # Pipelining: each request is its own task so one slow
                # search does not block a ping behind it; responses are
                # matched by id, not order.
                task = asyncio.create_task(
                    self._process(line, writer, write_lock)
                )
                connection_tasks.add(task)
                self._tasks.add(task)
                task.add_done_callback(connection_tasks.discard)
                task.add_done_callback(self._tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if connection_tasks:
                # Let in-flight requests write their responses before the
                # connection is torn down.
                await asyncio.wait(connection_tasks)
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        payload: dict,
    ) -> None:
        try:
            async with lock:
                writer.write(encode(payload))
                await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # client hung up; the answer dies with the connection

    async def _process(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        self._metrics.counter(self._requests_counter).inc()
        request_id = None
        try:
            request = parse_request(line)
            request_id = request.id
            payload = ok_payload(request_id, await self._dispatch(request))
        except asyncio.CancelledError:
            raise
        except GatewayError as error:
            if request_id is None:
                request_id = error.request_id  # parse failed past the id
            payload = error_payload(
                request_id, error.code, str(error), error.retry_after_ms
            )
        except ReproError as error:
            payload = error_payload(
                request_id, self._library_error, str(error)
            )
        except Exception as error:  # noqa: BLE001 - boundary
            payload = error_payload(
                request_id,
                ErrorCode.INTERNAL,
                f"{type(error).__name__}: {error}",
            )
        await self._write(writer, write_lock, payload)
