"""Sharded, replicated gallery serving with failover and hedged requests.

The cluster layer scales the Eq. 10 matching workload past one process:

* :class:`~repro.cluster.plan.ShardPlan` — deterministic rendezvous-hash
  placement of trajectory ids onto N shards × R replicas, fingerprinted.
* :class:`~repro.cluster.service.ClusterService` — the supervised worker
  group, and the library's one process engine: one shared-memory arena
  per shard, R replica processes each, block requests, heartbeats,
  automatic restart + re-attach, per-replica circuit breakers, hedged
  requests, and explicit partial-result coverage.  ``STS.pairwise(n_jobs=k)``
  runs on a transient ``k × 1`` service (see :mod:`repro.parallel`).

Filter-and-refine matching over the cluster is
``FilteredMatcher(measure, cluster=service)`` queried against
``service.gallery``: the candidate filters run in-process and survivor
refinement scatter-gathers across the service (see
:class:`~repro.index.FilteredMatcher`).

See ``docs/ROBUSTNESS.md`` ("Sharded serving & failover") for the
failover state machine, the hedging policy and coverage semantics.
"""

from .plan import ShardPlan, gallery_keys
from .service import ClusterReport, ClusterService

__all__ = [
    "ClusterReport",
    "ClusterService",
    "ShardPlan",
    "gallery_keys",
]
