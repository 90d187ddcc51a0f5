"""`repro.cluster`: sharded multi-replica serving.

Horizontal scale-out for the single-node stack, answer identity
preserved:

* a consistent-hash :class:`ClusterRouter` speaking `gateway/v1` in
  front of N replicas, sharding by ``(query, k, certainty)``
  fingerprint so coalescing and cache hits concentrate per shard;
* full gateway+service+pool replicas, in-process or spawned, that
  rebuild bit-identical trained state from a :class:`ReplicaSpec`
  (the determinism contract is the replication protocol);
* a shared :class:`CacheTierServer` (`cache/v1`) demoting each
  replica's ``SelectionCache`` to an L1 — any replica's computed
  answer serves the whole cluster;
* handle-based result cursors whose ``run_id`` prefix routes
  ``fetch`` pages back to the owning replica.

See ``docs/CLUSTER.md`` for topology and protocol details.
"""

from repro.cluster.cachetier import (
    CACHE_PROTOCOL_VERSION,
    CacheTierClient,
    CacheTierServer,
    answer_key,
    decode_answer,
    encode_answer,
    parse_address,
)
from repro.cluster.cluster import LocalCluster
from repro.cluster.replica import (
    InProcessReplica,
    ReplicaSpec,
    SubprocessReplica,
)
from repro.cluster.ring import ConsistentHashRing, request_fingerprint
from repro.cluster.router import ClusterRouter, RouterConfig

__all__ = [
    "CACHE_PROTOCOL_VERSION",
    "CacheTierClient",
    "CacheTierServer",
    "ClusterRouter",
    "ConsistentHashRing",
    "InProcessReplica",
    "LocalCluster",
    "ReplicaSpec",
    "RouterConfig",
    "SubprocessReplica",
    "answer_key",
    "decode_answer",
    "encode_answer",
    "parse_address",
    "request_fingerprint",
]
