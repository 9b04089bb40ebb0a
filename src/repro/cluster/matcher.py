"""ClusterMatcher: filter-and-refine matching over a sharded service.

The cluster analogue of using :class:`~repro.index.matcher.
FilteredMatcher` directly: the same candidate filters run in-process
(they are cheap and need the whole gallery's metadata), while survivor
refinement is scatter-gathered across the :class:`~repro.cluster.
service.ClusterService`'s shard workers — with replica failover, hedged
requests and explicit partial-result coverage.  The returned
:class:`~repro.index.matcher.MatchReport` carries ``coverage``,
``shards_skipped``/``shards_degraded`` and the full per-query
:class:`~repro.cluster.service.ClusterReport` under ``report.cluster``.

With every replica healthy, ``query()`` is bitwise identical to the
single-process matcher over the same gallery.
"""

from __future__ import annotations

from typing import Sequence

from ..index.matcher import FilteredMatcher, MatchReport
from ..serving.budget import Budget
from .plan import ShardPlan
from .service import ClusterService

__all__ = ["ClusterMatcher"]


class ClusterMatcher:
    """Filtered matching served by a sharded, replicated worker group.

    Owns a :class:`ClusterService` bound to ``gallery`` (or adopts one
    passed via ``service=``) and a :class:`FilteredMatcher` configured to
    refine through it.  Filter knobs (``grid``, ``spatial_slack``,
    ``min_time_overlap``, ``signature_dilation``) pass through to the
    matcher; topology/hedging knobs pass through to the service.

    Close it (or use it as a context manager) to stop the workers and
    unlink the shard arenas.
    """

    def __init__(
        self,
        measure,
        gallery: Sequence,
        grid=None,
        spatial_slack: float | None = 0.0,
        min_time_overlap: float = 0.0,
        signature_dilation: int = 2,
        n_shards: int = 2,
        n_replicas: int = 2,
        plan: ShardPlan | None = None,
        hedge: bool = True,
        service: ClusterService | None = None,
        registry=None,
        **service_kwargs,
    ):
        if service is not None:
            if not service.matches_gallery(gallery):
                raise ValueError(
                    "provided ClusterService was packed from a different "
                    "gallery; build the matcher from the service's own corpus"
                )
            self.service = service
            self._owns_service = False
        else:
            self.service = ClusterService(
                measure,
                gallery,
                n_shards=n_shards,
                n_replicas=n_replicas,
                plan=plan,
                hedge=hedge,
                registry=registry,
                **service_kwargs,
            )
            self._owns_service = True
        # Hold the service's own gallery list so the identity check in
        # FilteredMatcher._score_survivors_cluster always passes.
        self.gallery = self.service.gallery
        self.matcher = FilteredMatcher(
            measure,
            grid=grid,
            spatial_slack=spatial_slack,
            min_time_overlap=min_time_overlap,
            signature_dilation=signature_dilation,
            cluster=self.service,
            registry=registry,
        )

    @property
    def plan(self) -> ShardPlan:
        return self.service.plan

    @property
    def fingerprint(self) -> str:
        return self.service.fingerprint

    def query(
        self,
        query,
        k: int | None = None,
        deadline: float | None = None,
        budget: Budget | None = None,
    ) -> MatchReport:
        """Rank the gallery against ``query`` through the cluster.

        Same contract as :meth:`FilteredMatcher.query`, with cluster
        semantics on top: the report's ``coverage`` states what fraction
        of the gallery was actually consulted, and candidates on skipped
        shards are absent (unknown), never silently zero-scored.
        """
        return self.matcher.query(
            query, self.gallery, k=k, deadline=deadline, budget=budget
        )

    def health_check(self, timeout_s: float = 2.0) -> dict:
        """Per-replica liveness, see :meth:`ClusterService.health_check`."""
        return self.service.health_check(timeout_s=timeout_s)

    def close(self) -> None:
        """Stop the worker group (only if this matcher created it)."""
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "ClusterMatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<ClusterMatcher {self.service!r}>"
