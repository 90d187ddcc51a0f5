"""`LocalCluster`: replicas + cache tier + router as one unit.

The deployment shape the CLI and the cluster tests stand up: N
:class:`~repro.cluster.replica.SubprocessReplica` processes (each
rebuilding identical trained state from the shared
:class:`~repro.cluster.replica.ReplicaSpec`), an optional shared
:class:`~repro.cluster.cachetier.CacheTierServer` every replica is
pointed at, and a :class:`~repro.cluster.router.ClusterRouter` in
front. Async context manager; everything is torn down in reverse
order on exit, replicas gracefully (gateway drain) unless already
killed.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

from repro.exceptions import ConfigurationError, ReproError
from repro.cluster.cachetier import CacheTierServer
from repro.cluster.replica import ReplicaSpec, SubprocessReplica
from repro.cluster.router import ClusterRouter, RouterConfig

__all__ = ["LocalCluster"]


class LocalCluster:
    """N subprocess replicas, a shared cache tier, one router.

    Parameters
    ----------
    replicas:
        How many replica processes to spawn.
    spec:
        The per-replica build recipe (testbed + stack knobs); the
        cache-tier address is filled in automatically when
        ``cache_tier`` is on.
    cache_tier:
        Stand up a shared selection-cache tier and point every replica
        at it.
    cache_tier_address:
        Use an externally-run tier at ``host:port`` instead of owning
        one (mutually exclusive with ``cache_tier=True`` semantics of
        ownership — the address wins).
    router_config:
        Router tunables; defaults to :class:`RouterConfig` with the
        cluster's port choice.
    """

    def __init__(
        self,
        replicas: int = 2,
        spec: ReplicaSpec | None = None,
        cache_tier: bool = True,
        cache_tier_address: str | None = None,
        router_config: RouterConfig | None = None,
    ) -> None:
        if replicas < 1:
            raise ConfigurationError(
                f"replicas must be >= 1, got {replicas}"
            )
        self._count = replicas
        self._spec = spec or ReplicaSpec()
        self._own_tier = cache_tier and cache_tier_address is None
        self._tier_address = cache_tier_address
        self._router_config = router_config or RouterConfig()
        self.tier: CacheTierServer | None = None
        self.replicas: list[SubprocessReplica] = []
        self.router: ClusterRouter | None = None

    @property
    def host(self) -> str:
        return self._router_config.host

    @property
    def port(self) -> int:
        if self.router is None:
            raise ReproError("cluster is not running")
        return self.router.port

    def replica(self, name: str) -> SubprocessReplica:
        for replica in self.replicas:
            if replica.name == name:
                return replica
        raise ReproError(f"unknown replica {name!r}")

    def kill(self, name: str) -> None:
        """SIGKILL one replica (failover drills)."""
        self.replica(name).kill()

    async def __aenter__(self) -> "LocalCluster":
        try:
            if self._own_tier:
                self.tier = CacheTierServer(host=self._spec.host)
                await self.tier.start()
                self._tier_address = self.tier.address
            spec = self._spec
            if self._tier_address is not None:
                spec = replace(spec, cache_tier=self._tier_address)
            self.replicas = [
                SubprocessReplica(f"r{index}", spec)
                for index in range(self._count)
            ]
            # Replica start blocks on testbed rebuild + training
            # (~seconds); spawn them all in parallel off the loop.
            loop = asyncio.get_running_loop()
            await asyncio.gather(
                *(
                    loop.run_in_executor(None, replica.start)
                    for replica in self.replicas
                )
            )
            self.router = ClusterRouter(self.replicas, self._router_config)
            await self.router.start()
        except BaseException:
            await self._teardown()
            raise
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self._teardown()

    async def _teardown(self) -> None:
        if self.router is not None:
            await self.router.stop()
            self.router = None
        if self.replicas:
            loop = asyncio.get_running_loop()
            await asyncio.gather(
                *(
                    loop.run_in_executor(None, replica.stop)
                    for replica in self.replicas
                ),
                return_exceptions=True,
            )
            self.replicas = []
        if self.tier is not None:
            await self.tier.stop()
            self.tier = None

    def __repr__(self) -> str:
        running = sum(1 for replica in self.replicas if replica.alive)
        return (
            f"LocalCluster(replicas={running}/{self._count}, "
            f"tier={self._tier_address!r})"
        )
