"""Unit tests for the streaming co-location detector."""

import numpy as np
import pytest

from repro.core.grid import Grid
from repro.core.sts import STS
from repro.streaming import PairScore, SightingEvent, StreamingColocationDetector


@pytest.fixture
def grid():
    return Grid(0, 0, 100, 40, cell_size=2.0)


def feed_walk(detector, oid, x0, y, t0, n=8, dt=5.0, speed=1.0):
    for k in range(n):
        detector.ingest(SightingEvent(oid, x0 + speed * k * dt, y, t0 + k * dt))


class TestIngestAndWindows:
    def test_invalid_params(self, grid):
        with pytest.raises(ValueError):
            StreamingColocationDetector(grid, window=0.0)
        with pytest.raises(ValueError):
            StreamingColocationDetector(grid, min_points=0)

    def test_stream_time_advances(self, grid):
        detector = StreamingColocationDetector(grid)
        assert detector.stream_time == float("-inf")
        detector.ingest(SightingEvent("a", 1, 1, 100.0))
        assert detector.stream_time == 100.0
        detector.ingest(SightingEvent("a", 1, 1, 50.0))  # late event
        assert detector.stream_time == 100.0

    def test_window_eviction(self, grid):
        detector = StreamingColocationDetector(grid, window=30.0)
        feed_walk(detector, "a", 0, 10, t0=0.0, n=10, dt=10.0)  # spans 0..90
        window = detector.window_of("a")
        assert window.start_time >= detector.stream_time - 30.0

    def test_too_late_events_dropped(self, grid):
        detector = StreamingColocationDetector(grid, window=30.0)
        detector.ingest(SightingEvent("a", 0, 0, 100.0))
        detector.ingest(SightingEvent("a", 0, 0, 10.0))  # far before horizon
        assert len(detector.window_of("a")) == 1

    def test_out_of_order_events_sorted(self, grid):
        detector = StreamingColocationDetector(grid, window=100.0)
        detector.ingest(SightingEvent("a", 0, 0, 10.0))
        detector.ingest(SightingEvent("a", 2, 0, 30.0))
        detector.ingest(SightingEvent("a", 1, 0, 20.0))  # arrives late
        window = detector.window_of("a")
        assert list(window.timestamps) == [10.0, 20.0, 30.0]

    def test_active_objects(self, grid):
        detector = StreamingColocationDetector(grid, window=50.0)
        detector.ingest(SightingEvent("b", 0, 0, 0.0))
        detector.ingest(SightingEvent("a", 0, 0, 10.0))
        assert detector.active_objects == ["a", "b"]
        # advance time far enough to expire both
        detector.ingest(SightingEvent("c", 0, 0, 1000.0))
        assert detector.active_objects == ["c"]

    def test_ingest_many(self, grid):
        detector = StreamingColocationDetector(grid)
        detector.ingest_many(SightingEvent("a", k, 0, float(k)) for k in range(5))
        assert len(detector.window_of("a")) == 5


class TestEvaluation:
    def test_companions_score_highest(self, grid):
        detector = StreamingColocationDetector(grid, window=300.0)
        feed_walk(detector, "alice", x0=0, y=10, t0=0.0)
        feed_walk(detector, "bob", x0=1, y=11, t0=2.0)  # walks with alice
        feed_walk(detector, "carol", x0=0, y=35, t0=1.0)  # different corridor
        scores = detector.evaluate()
        assert scores[0].object_a == "alice" and scores[0].object_b == "bob"

    def test_threshold_filters(self, grid):
        detector = StreamingColocationDetector(grid, window=300.0)
        feed_walk(detector, "alice", x0=0, y=10, t0=0.0)
        feed_walk(detector, "carol", x0=0, y=35, t0=1.0)
        assert detector.evaluate(threshold=0.5) == []

    def test_min_points_guard(self, grid):
        detector = StreamingColocationDetector(grid, window=300.0, min_points=5)
        feed_walk(detector, "a", 0, 10, 0.0, n=3)
        feed_walk(detector, "b", 0, 10, 0.0, n=8)
        assert detector.evaluate() == []  # only one scorable object

    def test_companions_of(self, grid):
        detector = StreamingColocationDetector(grid, window=300.0)
        feed_walk(detector, "alice", x0=0, y=10, t0=0.0)
        feed_walk(detector, "bob", x0=1, y=10.5, t0=2.0)
        feed_walk(detector, "carol", x0=0, y=35, t0=1.0)
        companions = detector.companions_of("alice")
        assert companions[0].object_b == "bob"
        assert all(c.similarity <= companions[0].similarity for c in companions)

    def test_companions_of_sparse_target(self, grid):
        detector = StreamingColocationDetector(grid, min_points=5)
        feed_walk(detector, "a", 0, 10, 0.0, n=2)
        assert detector.companions_of("a") == []

    def test_windowing_forgets_old_companionship(self, grid):
        detector = StreamingColocationDetector(grid, window=60.0)
        # together long ago
        feed_walk(detector, "alice", x0=0, y=10, t0=0.0)
        feed_walk(detector, "bob", x0=1, y=10.5, t0=1.0)
        # alice continues alone much later; bob's window expires
        feed_walk(detector, "alice", x0=50, y=10, t0=500.0)
        scores = detector.evaluate()
        assert all({s.object_a, s.object_b} != {"alice", "bob"} for s in scores)

    def test_pair_score_str(self):
        assert "a ~ b" in str(PairScore("a", "b", 0.25))


class TestSanitizedIngest:
    """Regression: a single non-finite sighting must not poison the stream."""

    BAD = [
        SightingEvent("a", float("nan"), 0.0, 1.0),
        SightingEvent("a", 0.0, float("inf"), 1.0),
        SightingEvent("a", 0.0, 0.0, float("inf")),
        SightingEvent("a", 0.0, 0.0, float("nan")),
    ]

    def test_raise_policy_rejects_before_time_advances(self, grid):
        from repro.errors import MalformedRecordError

        detector = StreamingColocationDetector(grid)  # on_error="raise"
        for event in self.BAD:
            with pytest.raises(MalformedRecordError):
                detector.ingest(event)
        # Crucially, t=inf never became stream time.
        assert detector.stream_time == float("-inf")
        detector.ingest(SightingEvent("a", 0.0, 0.0, 5.0))
        assert detector.stream_time == 5.0
        assert len(detector.window_of("a")) == 1

    def test_skip_policy_drops_and_counts(self, grid):
        detector = StreamingColocationDetector(grid, on_error="skip")
        for event in self.BAD:
            detector.ingest(event)
        assert detector.malformed_dropped == 4
        assert detector.stream_time == float("-inf")
        assert len(detector.window_of("a")) == 0
        # The stream keeps working, and the counter lands in health.
        feed_walk(detector, "a", 0, 10, 0.0)
        feed_walk(detector, "b", 1, 10, 0.0)
        detector.evaluate()
        assert detector.last_health.malformed_events == 4

    def test_invalid_policy_rejected(self, grid):
        with pytest.raises(ValueError):
            StreamingColocationDetector(grid, on_error="explode")


class TestDuplicateTimestamps:
    """The pinned out-of-order / duplicate policy (class docstring)."""

    def test_raise_policy_rejects_duplicate(self, grid):
        from repro.errors import MalformedRecordError

        detector = StreamingColocationDetector(grid)  # on_error="raise"
        detector.ingest(SightingEvent("a", 1.0, 2.0, 10.0))
        with pytest.raises(MalformedRecordError, match="duplicate timestamp"):
            detector.ingest(SightingEvent("a", 9.0, 9.0, 10.0))
        # The original observation survives untouched.
        window = detector.window_of("a")
        assert [(p.x, p.y, p.t) for p in window.points] == [(1.0, 2.0, 10.0)]

    def test_skip_policy_keeps_first_write(self, grid):
        detector = StreamingColocationDetector(grid, on_error="skip")
        detector.ingest(SightingEvent("a", 1.0, 2.0, 10.0))
        detector.ingest(SightingEvent("a", 9.0, 9.0, 10.0))
        assert detector.duplicate_dropped == 1
        assert detector.duplicate_repaired == 0
        window = detector.window_of("a")
        assert [(p.x, p.y, p.t) for p in window.points] == [(1.0, 2.0, 10.0)]

    def test_repair_policy_is_last_write_wins(self, grid):
        detector = StreamingColocationDetector(grid, on_error="repair")
        detector.ingest(SightingEvent("a", 1.0, 2.0, 10.0))
        detector.ingest(SightingEvent("a", 9.0, 9.0, 10.0))
        assert detector.duplicate_repaired == 1
        assert detector.duplicate_dropped == 0
        window = detector.window_of("a")
        assert [(p.x, p.y, p.t) for p in window.points] == [(9.0, 9.0, 10.0)]

    def test_duplicate_found_mid_window(self, grid):
        detector = StreamingColocationDetector(grid, on_error="repair")
        for t in (10.0, 20.0, 30.0):
            detector.ingest(SightingEvent("a", t, 0.0, t))
        detector.ingest(SightingEvent("a", 99.0, 0.0, 20.0))
        window = detector.window_of("a")
        assert [(p.x, p.t) for p in window.points] == [
            (10.0, 10.0), (99.0, 20.0), (30.0, 30.0),
        ]
        assert detector.duplicate_repaired == 1

    def test_same_timestamp_on_other_object_is_fine(self, grid):
        detector = StreamingColocationDetector(grid)  # on_error="raise"
        detector.ingest(SightingEvent("a", 1.0, 2.0, 10.0))
        detector.ingest(SightingEvent("b", 3.0, 4.0, 10.0))
        assert len(detector.window_of("b")) == 1

    def test_in_window_out_of_order_accepted_under_raise(self, grid):
        detector = StreamingColocationDetector(grid)  # on_error="raise"
        detector.ingest(SightingEvent("a", 0.0, 0.0, 30.0))
        detector.ingest(SightingEvent("a", 1.0, 0.0, 10.0))  # older, unique
        window = detector.window_of("a")
        assert list(window.timestamps) == [10.0, 30.0]

    @pytest.mark.parametrize("policy", ["raise", "skip", "repair"])
    def test_late_event_dropped_under_every_policy(self, grid, policy):
        detector = StreamingColocationDetector(grid, window=30.0, on_error=policy)
        detector.ingest(SightingEvent("a", 0.0, 0.0, 100.0))
        detector.ingest(SightingEvent("a", 1.0, 1.0, 10.0))  # behind horizon
        assert len(detector.window_of("a")) == 1
        assert detector.duplicate_dropped == detector.duplicate_repaired == 0

    @pytest.mark.parametrize("policy", ["raise", "skip", "repair"])
    def test_duplicate_policy_replays_across_recovery(self, grid, tmp_path, policy):
        """The duplicate decision is deterministic across a crash boundary."""
        from contextlib import suppress

        from repro.errors import MalformedRecordError
        from repro.obs import MetricsRegistry
        from repro.streaming_wal import StreamingWAL

        def build(wal=None):
            return StreamingColocationDetector(
                grid, window=200.0, on_error=policy, wal=wal,
                registry=MetricsRegistry(),
            )

        def feed(detector):
            detector.ingest(SightingEvent("a", 1.0, 2.0, 10.0))
            detector.ingest(SightingEvent("a", 3.0, 4.0, 20.0))
            with suppress(MalformedRecordError):
                detector.ingest(SightingEvent("a", 9.0, 9.0, 10.0))  # duplicate
            detector.ingest(SightingEvent("a", 5.0, 6.0, 30.0))

        reference = build()
        feed(reference)
        live = build(
            wal=StreamingWAL(tmp_path / "wal", registry=MetricsRegistry())
        )
        feed(live)
        # Crash without close(); fsync_every=1 made every command durable.
        del live
        recovered = StreamingColocationDetector.recover(
            tmp_path / "wal", registry=MetricsRegistry()
        )
        assert recovered._state_dict() == reference._state_dict()
        assert recovered.duplicate_dropped == reference.duplicate_dropped
        assert recovered.duplicate_repaired == reference.duplicate_repaired
        assert [
            (p.x, p.y, p.t) for p in recovered.window_of("a").points
        ] == [(p.x, p.y, p.t) for p in reference.window_of("a").points]
        recovered.close()


class TestAdmissionQueue:
    def test_offer_is_bounded(self, grid):
        detector = StreamingColocationDetector(grid, max_pending=3)
        for k in range(10):
            detector.offer(SightingEvent("a", float(k), 0.0, float(k)))
            assert detector.pending <= 3  # never grows past the cap
        assert detector.shed_events == 7

    def test_freshest_events_survive_shedding(self, grid):
        detector = StreamingColocationDetector(grid, max_pending=2)
        for k in range(5):
            detector.offer(SightingEvent("a", float(k), 0.0, float(k)))
        detector.drain()
        # The two freshest sightings (t=3, t=4) are the ones applied.
        assert list(detector.window_of("a").timestamps) == [3.0, 4.0]

    def test_stale_incoming_event_is_the_one_shed(self, grid):
        detector = StreamingColocationDetector(grid, max_pending=1)
        assert detector.offer(SightingEvent("a", 0.0, 0.0, 100.0))
        assert not detector.offer(SightingEvent("a", 0.0, 0.0, 1.0))  # staler
        assert detector.pending == 1
        detector.drain()
        assert list(detector.window_of("a").timestamps) == [100.0]

    def test_accepted_through_covers_queued_events(self, grid):
        detector = StreamingColocationDetector(grid, on_error="skip")
        assert detector.accepted_through == float("-inf")
        detector.offer(SightingEvent("a", 1.0, 1.0, 50.0))
        # Queued but not applied: stream time lags, the mark does not.
        assert detector.stream_time == float("-inf")
        assert detector.accepted_through == 50.0
        detector.drain()
        assert detector.stream_time == 50.0
        assert detector.accepted_through == 50.0
        # A non-finite queued timestamp never poisons the mark.
        detector.offer(SightingEvent("a", 1.0, 1.0, float("nan")))
        assert detector.accepted_through == 50.0

    def test_drain_limit_and_auto_drain_on_evaluate(self, grid):
        detector = StreamingColocationDetector(grid)
        for k in range(6):
            detector.offer(SightingEvent("a", float(k), 10.0, float(k)))
        assert detector.drain(limit=2) == 2
        assert detector.pending == 4
        detector.evaluate()  # evaluate drains the rest
        assert detector.pending == 0
        assert len(detector.window_of("a")) == 6

    def test_queued_malformed_events_follow_policy(self, grid):
        detector = StreamingColocationDetector(grid, on_error="skip")
        detector.offer(SightingEvent("a", float("nan"), 0.0, 1.0))
        detector.drain()
        assert detector.malformed_dropped == 1

    def test_invalid_max_pending(self, grid):
        with pytest.raises(ValueError):
            StreamingColocationDetector(grid, max_pending=0)


class TestDegenerateWindows:
    def test_thin_windows_are_skipped_and_counted(self, grid):
        # Eviction shrank "a" below min_points: the evaluation must skip
        # it (not crash) and account for it.
        detector = StreamingColocationDetector(grid, window=60.0, min_points=3)
        feed_walk(detector, "a", 0, 10, t0=0.0, n=3, dt=5.0)  # spans 0..10
        feed_walk(detector, "b", 0, 10, t0=30.0, n=6, dt=5.0)  # spans 30..55
        feed_walk(detector, "c", 1, 10, t0=30.0, n=6, dt=5.0)
        # Stream time is 55; horizon 55-60 leaves "a" only partially evicted?
        detector.ingest(SightingEvent("b", 30, 10, 65.0))  # horizon now 5
        scores = detector.evaluate()
        health = detector.last_health
        assert health.degenerate_objects == 1  # "a" is down to 2 points
        assert any(e.kind == "degenerate" and e.subject == "a" for e in health.events)
        assert {frozenset((s.object_a, s.object_b)) for s in scores} == {
            frozenset(("b", "c"))
        }

    def test_scoring_errors_are_skipped_and_counted(self, grid):
        from repro.errors import DegenerateTrajectoryError

        class ExplodingMeasure:
            name = "exploding"

            def similarity(self, tra1, tra2):
                raise DegenerateTrajectoryError("injected: window too thin")

        detector = StreamingColocationDetector(
            grid, measure_factory=ExplodingMeasure
        )
        feed_walk(detector, "a", 0, 10, 0.0)
        feed_walk(detector, "b", 1, 10, 0.0)
        scores = detector.evaluate()  # must not raise
        assert scores == []
        health = detector.last_health
        assert health.degenerate_pairs == 1
        assert health.pairs_scored == 0
        assert not health.ok


class PairByPair:
    """An STS without ``similarity_block``: the detector scores it pair by pair."""

    name = "STS pair by pair"

    def __init__(self, grid):
        self.base = STS(grid)

    def similarity(self, tra1, tra2):
        return self.base.similarity(tra1, tra2)


def tick(detector, n_devices=7, seed=4):
    """Devices in loose pairs, sighted at random instants of a 0.5 s clock."""
    rng = np.random.default_rng(seed)
    for d in range(n_devices):
        start = rng.uniform(10.0, 30.0, 2) + 6.0 * (d // 2)
        instants = np.sort(rng.choice(240, 12, replace=False)) * 0.5
        for k in instants:
            x, y = start + 0.8 * np.array([k, 0.1 * k]) + rng.normal(0.0, 1.0, 2)
            detector.offer(SightingEvent(f"dev-{d}", float(x), float(y), float(k)))
    return detector


class TestBlockScoring:
    """Without a deadline, a tick's pairs come from one block, bitwise."""

    def test_evaluate_is_per_pair_similarity_bitwise(self, grid, monkeypatch):
        detector = tick(StreamingColocationDetector(grid, window=300.0))
        blocks = []
        real = STS.similarity_block
        monkeypatch.setattr(
            STS, "similarity_block",
            lambda self, *args: blocks.append(len(args)) or real(self, *args),
        )
        scores = detector.evaluate()
        assert blocks == [1]  # one self block
        assert len(scores) == 21 == detector.last_health.pairs_scored
        windows = {oid: detector.window_of(oid) for oid in detector.active_objects}
        for score in scores:
            want = STS(grid).similarity(windows[score.object_a], windows[score.object_b])
            assert score.similarity.hex() == want.hex()

    def test_companions_of_is_per_pair_similarity_bitwise(self, grid):
        detector = tick(StreamingColocationDetector(grid, window=300.0))
        scores = detector.companions_of("dev-3")
        assert len(scores) == 6 == detector.last_health.pairs_scored
        target = detector.window_of("dev-3")
        for score in scores:
            assert score.object_a == "dev-3"
            want = STS(grid).similarity(target, detector.window_of(score.object_b))
            assert score.similarity.hex() == want.hex()

    @pytest.mark.parametrize("call", ["evaluate", "companions_of"])
    def test_health_is_that_of_pair_by_pair_scoring(self, grid, call):
        from repro.serving import CircuitBreaker

        runs = {}
        for factory in (None, lambda: PairByPair(grid)):
            breaker = CircuitBreaker(threshold=1, cooldown_base=3600.0)
            breaker.record_timeout(("dev-3", "dev-4"))  # open: skipped, counted
            detector = tick(
                StreamingColocationDetector(
                    grid, window=300.0, breaker=breaker, measure_factory=factory
                )
            )
            detector.ingest(SightingEvent("thin", 50.0, 20.0, 100.0))
            scores = detector.evaluate() if call == "evaluate" else detector.companions_of("dev-3")
            health = detector.last_health.to_dict()
            health.pop("elapsed_ms")
            health.pop("metrics")  # the two paths count different calls
            runs[factory is None] = (scores, health)
        (block, block_health), (pairwise, pairwise_health) = runs[True], runs[False]
        assert block_health == pairwise_health
        assert block_health["breaker_skips"] == 1
        assert block_health["degenerate_objects"] == 1
        assert [(s.object_a, s.object_b) for s in block] == [
            (s.object_a, s.object_b) for s in pairwise
        ]
        assert [s.similarity.hex() for s in block] == [s.similarity.hex() for s in pairwise]

    def test_a_block_that_raises_is_scored_pair_by_pair(self, grid):
        from repro.errors import DegenerateTrajectoryError

        class SelfBlockRefused(STS):
            def similarity_block(self, rows, cols=None):
                if cols is None:
                    raise DegenerateTrajectoryError("injected: self block refused")
                return super().similarity_block(rows, cols)

        plain = tick(StreamingColocationDetector(grid, window=300.0), n_devices=4)
        refused = tick(
            StreamingColocationDetector(
                grid, window=300.0, measure_factory=lambda: SelfBlockRefused(grid)
            ),
            n_devices=4,
        )
        want, got = plain.evaluate(), refused.evaluate()
        assert refused.last_health.pairs_scored == 6
        assert refused.last_health.degenerate_pairs == 0
        assert [(s.object_a, s.object_b, s.similarity.hex()) for s in got] == [
            (s.object_a, s.object_b, s.similarity.hex()) for s in want
        ]


class TestDeadlineEvaluation:
    def companions(self, grid, **kwargs):
        detector = StreamingColocationDetector(grid, window=300.0, **kwargs)
        feed_walk(detector, "alice", x0=0, y=10, t0=0.0)
        feed_walk(detector, "bob", x0=1, y=11, t0=2.0)
        feed_walk(detector, "carol", x0=0, y=35, t0=1.0)
        return detector

    def test_unbounded_evaluate_reports_healthy(self, grid):
        detector = self.companions(grid)
        scores = detector.evaluate()
        health = detector.last_health
        assert health.ok and not health.degraded
        assert health.pairs_scored == 3
        assert health.rungs == ["full"] * 3
        assert all(s.completed and s.rung == "full" for s in scores)

    def test_zero_deadline_sheds_every_pair(self, grid):
        detector = self.companions(grid)
        scores = detector.evaluate(deadline=0.0)
        health = detector.last_health
        assert scores == []
        assert health.deadline_hit
        assert health.pairs_shed == 3
        assert health.pairs_scored == 0
        assert sum(1 for e in health.events if e.kind == "shed-pair") == 3

    def test_term_budget_degrades_with_bounds(self, grid):
        from repro.serving import Budget

        detector = self.companions(grid)
        exact = {
            frozenset((s.object_a, s.object_b)): s.similarity
            for s in detector.evaluate()
        }
        scores = detector.evaluate(budget=Budget(max_terms=4))
        health = detector.last_health
        assert health.pairs_scored == 3
        assert health.degraded
        assert len(health.rungs) == 3  # one rung on record per scored pair
        for score in scores:
            assert not score.completed
            assert score.rung in ("coarse-2x", "coarse-4x", "filter-only")
            key = frozenset((score.object_a, score.object_b))
            assert score.lower <= exact[key] <= score.upper
            assert score.lower <= score.similarity <= score.upper

    def test_deadline_and_budget_are_exclusive(self, grid):
        from repro.serving import Budget

        detector = self.companions(grid)
        with pytest.raises(ValueError, match="not both"):
            detector.evaluate(deadline=1.0, budget=Budget(deadline_ms=5.0))
        with pytest.raises(ValueError, match="deadline"):
            detector.evaluate(deadline=-1.0)

    def test_companions_of_honors_budget(self, grid):
        from repro.serving import Budget

        detector = self.companions(grid)
        companions = detector.companions_of("alice", budget=Budget(max_terms=4))
        health = detector.last_health
        assert health.pairs_scored == 2
        assert all(not c.completed for c in companions)


class TestOverloadAcceptance:
    """The issue's acceptance scenario: injected slow pairs + a deadline."""

    DELAY = 0.02
    DEADLINE = 0.25

    def overloaded_detector(self, grid, sleep=None, **kwargs):
        from tests.faultinjection.faults import SlowMeasure

        from repro.core.sts import STS

        slow_kwargs = {} if sleep is None else {"sleep": sleep}
        detector = StreamingColocationDetector(
            grid,
            window=300.0,
            measure_factory=lambda: SlowMeasure(
                STS(grid), delay=self.DELAY, **slow_kwargs
            ),
            **kwargs,
        )
        # 20 points per window -> 40 Eq. 10 terms per pair, more than one
        # anytime batch, so the full rung can actually run out of slice.
        for idx, oid in enumerate(["alice", "bob", "carol", "dave"]):
            feed_walk(detector, oid, x0=idx, y=10 + idx, t0=float(idx), n=20)
        return detector

    @pytest.mark.timing  # asserts real wall-clock latency; irreducible
    def test_returns_within_1_5x_deadline_with_bounded_scores(self, grid):
        import time

        detector = self.overloaded_detector(grid)
        start = time.monotonic()
        scores = detector.evaluate(deadline=self.DEADLINE)
        elapsed = time.monotonic() - start
        assert elapsed <= 1.5 * self.DEADLINE
        health = detector.last_health
        # Every scored pair has exactly one rung on the record, and the
        # overload shows up as degradation/shedding, never an exception.
        assert len(health.rungs) == health.pairs_scored
        assert health.deadline_hit or health.degraded
        assert health.pairs_scored + health.pairs_shed + health.breaker_skips == 6
        for score in scores:
            if not score.completed:
                assert score.lower <= score.similarity <= score.upper

    def test_repeated_misses_trip_the_pair_breaker(self, grid):
        # Fully deterministic: a fake clock drives the budget, the
        # breaker and the injected slowness (SlowMeasure "sleeps" by
        # advancing the clock), so no real time is spent or measured.
        from repro.serving import Budget, CircuitBreaker

        class FakeClock:
            def __init__(self):
                self.t = 0.0

            def __call__(self) -> float:
                return self.t

            def advance(self, dt: float) -> None:
                self.t += dt

        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_base=3600.0, clock=clock)
        detector = self.overloaded_detector(
            grid, breaker=breaker, sleep=clock.advance
        )
        detector.evaluate(
            budget=Budget(deadline_ms=self.DEADLINE * 1000.0, clock=clock)
        )
        first = detector.last_health
        assert first.breaker_trips >= 1
        assert any(e.kind == "breaker-trip" for e in first.events)
        detector.evaluate(
            budget=Budget(deadline_ms=self.DEADLINE * 1000.0, clock=clock)
        )
        second = detector.last_health
        assert second.breaker_skips >= first.breaker_trips
        assert any(e.kind == "breaker-open" for e in second.events)
