"""The gateway-zipf system under test, as its own process.

Builds the paper testbed, starts a ``MetasearchService`` with a
two-worker selection pool and seeded probe latency, warms every pool
worker, starts the TCP gateway and prints ``READY <port>``. It serves
until its standard input closes, then drains, stops the pool and prints
one JSON line with its peak RSS (``self_kb``) and the largest pool
worker's (``children_kb``).

Usage: ``python perfbench/server.py --trace 0|1``
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys

import systems
from repro.gateway.gateway import MetasearchGateway
from repro.service.server import MetasearchService


async def serve(gateway: MetasearchGateway) -> None:
    await gateway.start()
    print(f"READY {gateway.port}", flush=True)
    loop = asyncio.get_running_loop()
    # Standard input closing is the stop signal.
    await loop.run_in_executor(None, sys.stdin.read)
    await gateway.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # The query universe is the load generator's input, not part of the
    # system: the server builds none (its warm-up queries are then the
    # universe's most popular few, which the load generator warms too).
    testbed = systems.build_paper(0)
    service = MetasearchService(
        testbed.metasearcher,
        config=systems.gateway_service_config(bool(args.trace)),
        injector=systems.probe_injector(),
    )
    try:
        service.pool.ping()
        # Sequential dispatch alternates workers, so each serves at
        # least one warm-up query.
        for query in testbed.warmup:
            service.serve(query, k=1, certainty=systems.CERTAINTY)
        asyncio.run(serve(MetasearchGateway(service, systems.gateway_config())))
    finally:
        service.shutdown()
    usage = {
        "self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "workers": systems.GATEWAY_POOL_WORKERS,
    }
    print(json.dumps(usage), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
