"""`repro.gateway`: the network front end over the serving layer.

A dependency-free asyncio TCP gateway speaking the newline-delimited
JSON `gateway/v1` protocol, adding what a process boundary demands on
top of :class:`~repro.service.server.MetasearchService`:

* bounded admission with typed load shedding (``retry_after_ms``),
* single-flight coalescing of identical concurrent requests,
* per-request wall-clock deadlines that degrade answers instead of
  failing them,
* graceful drain on shutdown.

See ``docs/GATEWAY.md`` for the protocol and operational semantics.
"""

from repro.gateway.client import GatewayClient, SyncGatewayClient
from repro.gateway.gateway import GatewayConfig, MetasearchGateway
from repro.gateway.protocol import (
    PROTOCOL_VERSION,
    ErrorCode,
    GatewayError,
    GatewayRequest,
    parse_request,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ErrorCode",
    "GatewayError",
    "GatewayRequest",
    "parse_request",
    "GatewayConfig",
    "MetasearchGateway",
    "GatewayClient",
    "SyncGatewayClient",
]
