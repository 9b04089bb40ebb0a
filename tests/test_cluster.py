"""Unit tests for the cluster layer: placement, hedging, parity, guards."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cluster import ClusterService, ShardPlan, gallery_keys
from repro.cluster.service import _LatencyTracker
from repro.core.grid import Grid
from repro.core.sts import STS
from repro.core.trajectory import Trajectory
from repro.index.matcher import FilteredMatcher
from repro.obs import MetricsRegistry


def make_gallery(n: int, seed: int = 0) -> list[Trajectory]:
    rng = np.random.default_rng(seed)
    gallery = []
    for i in range(n):
        ts = np.sort(rng.uniform(0.0, 60.0, 6))
        xs = rng.uniform(2.0, 38.0, 6)
        ys = rng.uniform(2.0, 18.0, 6)
        gallery.append(Trajectory.from_arrays(xs, ys, ts, object_id=f"g{i}"))
    return gallery


# ----------------------------------------------------------------------
# ShardPlan properties
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_every_key_on_exactly_r_distinct_replicas(self):
        plan = ShardPlan(n_shards=5, n_replicas=3)
        for key in (f"traj-{i}" for i in range(500)):
            replicas = plan.replicas_of(key)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3  # distinct workers
            shards = {shard for shard, _ in replicas}
            assert len(shards) == 1  # all replicas of the owning shard
            assert 0 <= next(iter(shards)) < 5

    def test_assign_is_a_partition(self):
        plan = ShardPlan(n_shards=4)
        keys = [f"k{i}" for i in range(200)]
        assignment = plan.assign(keys)
        seen = [pos for members in assignment for pos in members]
        assert sorted(seen) == list(range(200))
        for shard, members in enumerate(assignment):
            for pos in members:
                assert plan.shard_of(keys[pos]) == shard

    def test_deterministic_within_process(self):
        plan = ShardPlan(n_shards=7, n_replicas=2)
        keys = [f"object-{i}" for i in range(300)]
        assert plan.assign(keys) == plan.assign(keys)
        assert ShardPlan(7, 2).assign(keys) == plan.assign(keys)

    def test_deterministic_across_processes(self):
        """Placement must not depend on the per-process ``hash`` salt."""
        snippet = (
            "from repro.cluster import ShardPlan;"
            "plan = ShardPlan(5, 2);"
            "print([plan.shard_of(f'traj-{i}') for i in range(100)])"
        )
        env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="12345")
        runs = []
        for seed in ("12345", "99999"):
            env["PYTHONHASHSEED"] = seed
            out = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, env=env, check=True,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            runs.append(out.stdout.strip())
        assert runs[0] == runs[1]
        plan = ShardPlan(5, 2)
        assert runs[0] == str([plan.shard_of(f"traj-{i}") for i in range(100)])

    def test_adding_a_shard_moves_about_one_in_n_keys(self):
        keys = [f"traj-{i}" for i in range(3000)]
        n = 5
        before = [ShardPlan(n, 1).shard_of(k) for k in keys]
        after = [ShardPlan(n + 1, 1).shard_of(k) for k in keys]
        moved = [i for i in range(len(keys)) if before[i] != after[i]]
        # Rendezvous hashing moves ~1/(n+1) of keys, all to the new shard.
        expected = len(keys) / (n + 1)
        assert 0.5 * expected <= len(moved) <= 1.5 * expected
        assert all(after[i] == n for i in moved)

    def test_fingerprint_pins_topology_and_keys(self):
        keys = ["a", "b", "c"]
        base = ShardPlan(2, 2).fingerprint(keys)
        assert base == ShardPlan(2, 2).fingerprint(keys)
        assert base != ShardPlan(3, 2).fingerprint(keys)
        assert base != ShardPlan(2, 3).fingerprint(keys)
        assert base != ShardPlan(2, 2).fingerprint(["a", "b", "x"])
        assert base != ShardPlan(2, 2).fingerprint()

    def test_invalid_topology_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan(0)
        with pytest.raises(ValueError):
            ShardPlan(2, 0)

    def test_gallery_keys_prefers_unique_object_ids(self):
        gallery = make_gallery(4)
        assert gallery_keys(gallery) == ["g0", "g1", "g2", "g3"]
        gallery[1] = Trajectory.from_arrays([1.0], [1.0], [0.0], object_id="g0")
        assert gallery_keys(gallery) == ["#0", "#1", "#2", "#3"]


# ----------------------------------------------------------------------
# Hedge-delay policy
# ----------------------------------------------------------------------
class TestLatencyTracker:
    def test_initial_delay_until_enough_samples(self):
        tracker = _LatencyTracker(initial_s=0.05)
        for _ in range(7):
            tracker.observe(0.5)
            assert tracker.hedge_delay_s() == 0.05
        tracker.observe(0.5)
        assert tracker.hedge_delay_s() != 0.05

    def test_p95_capped_at_three_times_median(self):
        """A chronically slow replica cannot inflate its own hedge trigger."""
        tracker = _LatencyTracker()
        # 75% fast (10 ms), 25% slow (100 ms): raw p95 would be ~100 ms,
        # which would never hedge the slow replica.  The 3×p50 cap keeps
        # the trigger at 30 ms.
        for _ in range(30):
            tracker.observe(0.010)
            tracker.observe(0.010)
            tracker.observe(0.010)
            tracker.observe(0.100)
        assert tracker.hedge_delay_s() == pytest.approx(0.030, rel=0.2)

    def test_floor(self):
        tracker = _LatencyTracker(floor_s=0.001)
        for _ in range(20):
            tracker.observe(0.00001)
        assert tracker.hedge_delay_s() == 0.001

    def test_uniform_latency_tracks_p95(self):
        tracker = _LatencyTracker()
        for _ in range(50):
            tracker.observe(0.020)
        assert tracker.hedge_delay_s() == pytest.approx(0.020, rel=0.01)


# ----------------------------------------------------------------------
# Service behaviour (healthy path)
# ----------------------------------------------------------------------
class TestClusterService:
    def test_healthy_scores_bitwise_identical_to_serial(self):
        grid = Grid(0, 0, 40, 20, cell_size=2.0)
        gallery = make_gallery(8, seed=3)
        measure = STS(grid)
        query = make_gallery(1, seed=77)[0]
        expected = [float(STS(grid).similarity(query, g)) for g in gallery]
        with ClusterService(STS(grid), gallery, n_shards=3, n_replicas=2) as svc:
            scores, report = svc.query_scores(query)
        assert report.coverage == 1.0
        assert report.shards_skipped == ()
        assert [scores[i] for i in range(len(gallery))] == expected

    def test_matches_gallery_is_identity_not_equality(self):
        grid = Grid(0, 0, 40, 20, cell_size=2.0)
        gallery = make_gallery(4)
        with ClusterService(STS(grid), gallery, n_shards=2, n_replicas=1) as svc:
            assert svc.matches_gallery(gallery)
            assert not svc.matches_gallery(make_gallery(4))
            assert not svc.matches_gallery(gallery[:3])

    def test_wrong_gallery_rejected_by_matcher_and_pairwise(self):
        grid = Grid(0, 0, 40, 20, cell_size=2.0)
        gallery = make_gallery(4)
        other = make_gallery(4)
        measure = STS(grid)
        with ClusterService(measure, gallery, n_shards=2, n_replicas=1) as svc:
            matcher = FilteredMatcher(measure, spatial_slack=None, cluster=svc)
            with pytest.raises(ValueError, match="different gallery"):
                matcher.query(gallery[0], other)
            with pytest.raises(ValueError, match="different gallery"):
                measure.pairwise(other, cluster=svc)

    def test_pairwise_queries_bitwise_identical_to_serial(self):
        grid = Grid(0, 0, 40, 20, cell_size=2.0)
        gallery = make_gallery(5, seed=9)
        queries = make_gallery(3, seed=31)
        serial = STS(grid).pairwise(gallery, queries)
        measure = STS(grid)
        with ClusterService(measure, gallery, n_shards=2, n_replicas=2) as svc:
            clustered = measure.pairwise(gallery, queries, cluster=svc)
        np.testing.assert_array_equal(clustered, serial)

    def test_pairwise_self_matrix_symmetric_bitwise(self):
        """The serial self-matrix scores each unordered pair once; the
        cluster scores both orientations — and they agree bitwise, since
        Eq. 10's two sums are reduced separately and then added."""
        grid = Grid(0, 0, 40, 20, cell_size=2.0)
        gallery = make_gallery(5, seed=9)
        serial = STS(grid).pairwise(gallery)
        measure = STS(grid)
        with ClusterService(measure, gallery, n_shards=2, n_replicas=2) as svc:
            clustered = measure.pairwise(gallery, cluster=svc)
        np.testing.assert_array_equal(clustered, serial)

    def test_closed_service_refuses_queries(self):
        grid = Grid(0, 0, 40, 20, cell_size=2.0)
        gallery = make_gallery(3)
        svc = ClusterService(STS(grid), gallery, n_shards=2, n_replicas=1)
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            svc.query_scores(gallery[0])


class TestClusterMatcher:
    """Filtered matching whose refine stage runs on a ClusterService."""

    def test_healthy_topk_bitwise_identical_to_filtered_matcher(self):
        grid = Grid(0, 0, 40, 20, cell_size=2.0)
        gallery = make_gallery(10, seed=5)
        query = make_gallery(1, seed=42)[0]
        reference = FilteredMatcher(
            STS(grid), grid=grid, spatial_slack=100.0
        ).query(query, gallery, k=5)
        measure = STS(grid)
        with ClusterService(measure, gallery, n_shards=3, n_replicas=2) as svc:
            matcher = FilteredMatcher(
                measure, grid=grid, spatial_slack=100.0, cluster=svc
            )
            report = matcher.query(query, svc.gallery, k=5)
        assert report.coverage == 1.0
        assert report.complete
        assert [(m.index, m.score) for m in report.matches] == [
            (m.index, m.score) for m in reference.matches
        ]


# ----------------------------------------------------------------------
# Block requests: one request per shard, one kernel block per entry
# ----------------------------------------------------------------------
class TestBlockRequests:
    def test_pairwise_sends_one_request_per_shard(self):
        grid = Grid(0, 0, 40, 20, cell_size=2.0)
        gallery = make_gallery(7, seed=9)
        queries = make_gallery(4, seed=31)
        registry = MetricsRegistry()
        with ClusterService(
            STS(grid), gallery, n_shards=3, n_replicas=1, registry=registry
        ) as svc:
            matrix, report = svc.pairwise(queries)
            shards = sum(1 for members in svc.shard_globals if members)
        assert report.ok and report.shards_total == shards
        assert registry.value("repro_cluster_shard_calls_total") == {"": shards}
        assert np.array_equal(matrix, STS(grid).pairwise(gallery, queries))

    def test_score_blocks_answers_self_and_cross_blocks_bitwise(self):
        grid = Grid(0, 0, 40, 20, cell_size=2.0)
        gallery = make_gallery(6, seed=12)
        rows = make_gallery(3, seed=40)
        serial = STS(grid)
        with ClusterService(STS(grid), gallery, n_shards=1, n_replicas=1) as svc:
            # Rows shipped in the request, as a query is.
            answers, report = svc.score_blocks(
                rows, {0: [(None, [1, 4, 5]), ((2, 0), [0, 3])]}
            )
        assert report.ok
        self_block, cross = answers[0]
        members = svc.shard_globals[0]
        self_cols = [gallery[members[c]] for c in (1, 4, 5)]
        assert np.array_equal(self_block, serial.similarity_block(self_cols))
        assert np.array_equal(
            cross,
            serial.similarity_block(
                [rows[2], rows[0]], [gallery[members[c]] for c in (0, 3)]
            ),
        )

    def test_healthy_pairwise_on_a_hedged_service_fires_no_hedges(self):
        # A 1 ms hedge delay would hedge any block; only one-row requests
        # are hedged, and block latencies stay out of the hedge trigger.
        grid = Grid(0, 0, 40, 20, cell_size=2.0)
        gallery = make_gallery(6, seed=9)
        registry = MetricsRegistry()
        measure = STS(grid)
        with ClusterService(
            measure, gallery, n_shards=2, n_replicas=2,
            hedge_initial_ms=1.0, registry=registry,
        ) as svc:
            matrix, report = svc.pairwise()
            assert svc._latency.hedge_delay_s() == 0.001
            assert not svc._latency._samples
        assert report.ok and report.hedges_fired == 0
        assert not any(registry.value("repro_cluster_hedges_total").values())
        np.testing.assert_array_equal(matrix, STS(grid).pairwise(gallery))

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs procfs")
    def test_replicas_release_the_row_arena_after_each_request(self):
        def segments(pid):
            with open(f"/proc/{pid}/maps") as maps:
                return {tok for line in maps for tok in line.split() if "psm_" in tok}

        grid = Grid(0, 0, 40, 20, cell_size=2.0)
        gallery = make_gallery(5, seed=9)
        with ClusterService(STS(grid), gallery, n_shards=1, n_replicas=1) as svc:
            pid = svc.replica_pids()[(0, 0)]
            before = segments(pid)
            matrix, report = svc.pairwise(make_gallery(3, seed=31))
            assert report.ok
            assert segments(pid) == before

    def test_hung_replica_is_killed_and_restarted_by_the_next_call(self, monkeypatch):
        from repro.cluster import service as cluster_service

        monkeypatch.setattr(cluster_service, "REQUEST_TIMEOUT_S", 0.5)
        grid = Grid(0, 0, 40, 20, cell_size=2.0)
        gallery = make_gallery(4, seed=2)
        query = make_gallery(1, seed=5)[0]
        expected = STS(grid).similarity_block([query], gallery)[0].tolist()
        with ClusterService(
            STS(grid), gallery, n_shards=1, n_replicas=1,
            worker_faults={(0, 0): {"delay_s": 60.0}},
        ) as svc:
            scores, report = svc.query_scores(query)
            assert scores == {} and report.shards_skipped == (0,)
            assert any("killed" in event for event in report.events)
            assert svc.replica_pids() == {(0, 0): None}
            # The replacement is clean: faults apply to the first
            # incarnation only.
            scores, report = svc.query_scores(query)
        assert report.restarts == 1 and report.coverage == 1.0
        assert [scores[i] for i in range(len(gallery))] == expected


# ----------------------------------------------------------------------
# Nested-parallelism guard
# ----------------------------------------------------------------------
class TestNestedParallelismGuard:
    def test_resolve_n_jobs_clamps_inside_cluster_worker(self):
        from repro.parallel import pool

        env_before = os.environ.get(pool._CLUSTER_WORKER_ENV)
        flag_before = pool._IN_CLUSTER_WORKER
        try:
            pool.mark_cluster_worker()
            assert pool.in_cluster_worker()
            assert pool.resolve_n_jobs(-1) == 1
            assert pool.resolve_n_jobs(8) == 1
            assert pool.resolve_n_jobs(None) == 1
        finally:
            pool._IN_CLUSTER_WORKER = flag_before
            if env_before is None:
                os.environ.pop(pool._CLUSTER_WORKER_ENV, None)
            else:
                os.environ[pool._CLUSTER_WORKER_ENV] = env_before
        assert pool.resolve_n_jobs(2) == 2  # guard fully lifted again

    def test_total_process_count_is_shards_times_replicas(self):
        """An N×R cluster forks exactly N·R workers — never grandchildren.

        Each worker asks for ``n_jobs=-1`` (every core) and must still
        come up serial; this is the fork-bomb regression test.
        """
        grid = Grid(0, 0, 40, 20, cell_size=2.0)
        gallery = make_gallery(8, seed=1)
        n_shards, n_replicas = 2, 2
        with ClusterService(
            STS(grid), gallery, n_shards=n_shards, n_replicas=n_replicas
        ) as svc:
            svc.query_scores(make_gallery(1, seed=2)[0])  # warm the scorers
            info = svc.worker_info()
            assert len(info) == n_shards * n_replicas
            for label, payload in info.items():
                assert payload["resolved_n_jobs"] == 1, label
                assert payload["child_processes"] == 0, label
            worker_pids = {pid for pid in svc.replica_pids().values() if pid}
            assert len(worker_pids) == n_shards * n_replicas
            # Parent-side check: every worker is a direct child of this
            # process, and none of them has children of its own.
            for pid in worker_pids:
                with open(f"/proc/{pid}/task/{pid}/children") as handle:
                    assert handle.read().split() == [], f"worker {pid} forked"


# ----------------------------------------------------------------------
# Partial-result semantics without chaos (deterministic skip)
# ----------------------------------------------------------------------
class TestCoverageSemantics:
    def test_dead_shard_reports_partial_coverage(self):
        grid = Grid(0, 0, 40, 20, cell_size=2.0)
        gallery = make_gallery(9, seed=11)
        registry = MetricsRegistry()
        with ClusterService(
            STS(grid), gallery, n_shards=3, n_replicas=2,
            max_restarts=0, registry=registry,
        ) as svc:
            victim = next(s for s, m in enumerate(svc.shard_globals) if m)
            assert svc.kill_replica(victim, 0)
            assert svc.kill_replica(victim, 1)
            scores, report = svc.query_scores(make_gallery(1, seed=3)[0])
            assert report.coverage < 1.0
            assert victim in report.shards_skipped
            dead = set(svc.shard_globals[victim])
            assert set(scores) == set(range(len(gallery))) - dead
            expected_cov = 1.0 - len(dead) / len(gallery)
            assert report.coverage == pytest.approx(expected_cov)
            skipped = sum(
                registry.value("repro_cluster_shard_skipped_total").values()
            )
            assert skipped >= 1

    def test_pairwise_nans_only_on_dead_shard(self):
        grid = Grid(0, 0, 40, 20, cell_size=2.0)
        gallery = make_gallery(6, seed=21)
        measure = STS(grid)
        with ClusterService(
            measure, gallery, n_shards=3, n_replicas=1, max_restarts=0
        ) as svc:
            victim = next(s for s, m in enumerate(svc.shard_globals) if m)
            svc.kill_replica(victim, 0)
            matrix = measure.pairwise(gallery, queries=gallery[:2], cluster=svc)
        dead_cols = set(svc.shard_globals[victim])
        for j in range(len(gallery)):
            if j in dead_cols:
                assert np.isnan(matrix[:, j]).all()
            else:
                assert np.isfinite(matrix[:, j]).all()
