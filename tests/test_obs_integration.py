"""Integration tests: instrumentation wired through the real pipelines."""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core.sts import STS
from repro.datasets import taxi_dataset
from repro.obs import MetricsRegistry, Tracer, set_enabled, set_registry, set_tracer
from repro.parallel import ParallelSTS


@pytest.fixture
def fresh_registry():
    """A private registry installed as the process default, then restored."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


@pytest.fixture
def fresh_tracer():
    tracer = Tracer()
    previous = set_tracer(tracer)
    yield tracer
    set_tracer(previous)


@pytest.fixture(scope="module")
def corpus():
    return taxi_dataset(n_trajectories=6, seed=5)


class TestScoringMetrics:
    def test_pairwise_populates_stage_timings_and_cache_counters(
        self, fresh_registry, corpus
    ):
        measure = STS(corpus.make_grid())
        measure.pairwise(corpus.trajectories[:4])
        snap = fresh_registry.snapshot()

        stages = snap["counters"]["repro_stage_seconds_total"]
        assert stages['component="stp",stage="bridge-interp"'] > 0.0
        # On the FFT path, bridge-interp is exactly its three components.
        parts = [
            stages[f'component="stp",stage="{name}"']
            for name in ("kernel-build", "kernel-fft", "normalize")
        ]
        assert min(parts) > 0.0
        assert sum(parts) == pytest.approx(stages['component="stp",stage="bridge-interp"'])
        assert stages['component="sts",stage="prewarm"'] > 0.0
        assert stages['component="sts",stage="pair-loop"'] > 0.0

        hits = snap["counters"]["repro_cache_hits_total"]
        misses = snap["counters"]["repro_cache_misses_total"]
        assert misses['cache="stp-results"'] > 0
        assert hits['cache="stp-kernels"'] >= 0
        assert snap["gauges"]["repro_cache_entries"]['cache="stp-results"'] > 0

        assert snap["counters"]["repro_sts_similarity_calls_total"][""] == 10
        assert snap["histograms"]["repro_pairwise_seconds"][""]["count"] == 1

    def test_fft_canvas_reuse_counted(self, fresh_registry):
        from repro.core.grid import Grid
        from repro.core.trajectory import Trajectory

        # Interleaved timestamps force bridge interpolation (the FFT path).
        a = Trajectory.from_arrays(
            np.arange(0.0, 100.0, 10.0), np.zeros(10), np.arange(0.0, 100.0, 10.0), "a"
        )
        b = Trajectory.from_arrays(
            np.arange(0.0, 100.0, 10.0), np.ones(10), np.arange(5.0, 105.0, 10.0), "b"
        )
        grid = Grid(-20.0, -20.0, 120.0, 20.0, cell_size=4.0)
        measure = STS(grid)
        measure.similarity(a, b)
        measure.similarity(a, b)
        snap = fresh_registry.snapshot()
        assert snap["counters"]["repro_fft_plane_transforms_total"][""] > 0

    def test_explicit_registry_keeps_global_clean(self, corpus):
        private = MetricsRegistry()
        measure = STS(corpus.make_grid(), registry=private)
        a, b = corpus.trajectories[:2]
        measure.similarity(a, b)
        assert private.snapshot()["counters"]["repro_sts_similarity_calls_total"]

    def test_disabled_measure_records_nothing(self, fresh_registry, corpus):
        previous = set_enabled(False)
        try:
            measure = STS(corpus.make_grid())
            a, b = corpus.trajectories[:2]
            measure.similarity(a, b)
        finally:
            set_enabled(previous)
        assert fresh_registry.snapshot()["counters"] == {}


class TestServingMetrics:
    def test_ladder_rung_counts(self, fresh_registry, corpus):
        from repro.serving import Budget, DeadlineScorer

        measure = STS(corpus.make_grid())
        scorer = DeadlineScorer(measure)
        a, b = corpus.trajectories[:2]
        scorer.score(a, b)  # unbounded -> full
        scorer.score(a, b, budget=Budget(deadline_ms=10_000.0))
        rungs = fresh_registry.snapshot()["counters"]["repro_ladder_rung_total"]
        assert sum(rungs.values()) == 2
        assert set(rungs) <= {
            'rung="full"', 'rung="coarse-2x"', 'rung="coarse-4x"', 'rung="filter-only"'
        }
        score_hist = fresh_registry.snapshot()["histograms"][
            "repro_serving_score_seconds"
        ][""]
        assert score_hist["count"] == 2

    def test_breaker_transitions_counted(self, fresh_registry):
        from repro.serving.breaker import CircuitBreaker

        fake_now = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown_base=1.0, clock=lambda: fake_now[0])
        breaker.record_timeout("pair")  # trips -> open
        fake_now[0] = 2.0
        breaker.allow("pair")  # cooldown over -> half-open probe
        breaker.record_success("pair")  # -> closed
        states = fresh_registry.snapshot()["counters"]["repro_breaker_transitions_total"]
        assert states['state="open"'] == 1
        assert states['state="half-open"'] == 1
        assert states['state="closed"'] == 1

    def test_matcher_report_carries_metrics(self, fresh_registry, corpus):
        from repro.index import FilteredMatcher

        measure = STS(corpus.make_grid())
        matcher = FilteredMatcher(measure)
        report = matcher.query(corpus.trajectories[0], corpus.trajectories[1:4])
        assert report.metrics is not None
        candidates = report.metrics["counters"]["repro_matcher_candidates_total"]
        assert candidates['stage="considered"'] == 3
        assert report.metrics["histograms"]["repro_matcher_query_seconds"][""]["count"] == 1

    def test_streaming_health_carries_metrics(self, fresh_registry, corpus):
        from repro.streaming import SightingEvent, StreamingColocationDetector

        detector = StreamingColocationDetector(
            corpus.make_grid(), window=600.0, on_error="skip"
        )
        for traj in corpus.trajectories[:2]:
            for p in traj:
                detector.ingest(SightingEvent(traj.object_id, p.x, p.y, p.t))
        detector.ingest(SightingEvent("bad", float("nan"), 0.0, 1.0))
        detector.evaluate()
        health = detector.last_health
        assert health.metrics is not None
        events = health.metrics["counters"]["repro_stream_events_total"]
        assert events['outcome="ingested"'] > 0
        assert events['outcome="malformed"'] == 1
        assert health.metrics["gauges"]["repro_stream_active_windows"][""] >= 1


class TestParallelMetrics:
    def test_supervisor_chunk_lifecycle_and_health_metrics(
        self, fresh_registry, corpus
    ):
        measure = STS(corpus.make_grid())
        wrapper = ParallelSTS(measure, n_jobs=2)
        wrapper.pairwise(corpus.trajectories[:4])
        health = wrapper.last_health
        assert health.metrics is not None
        chunks = health.metrics["counters"]["repro_supervisor_chunks_total"]
        assert chunks['event="queued"'] > 0
        assert chunks['event="completed"'] == chunks['event="queued"']
        assert health.metrics["histograms"]["repro_pairwise_seconds"][""]["count"] == 1

    def test_pairwise_seconds_covers_the_whole_call(
        self, fresh_registry, corpus, monkeypatch
    ):
        # A slow arena pack is part of the call, as the serial path's
        # block is: the histogram must not start after it.
        from repro.parallel import SharedTrajectoryArena

        real_pack = SharedTrajectoryArena.pack

        def slow_pack(*args, **kwargs):
            time.sleep(0.5)
            return real_pack(*args, **kwargs)

        monkeypatch.setattr(SharedTrajectoryArena, "pack", slow_pack)
        wrapper = ParallelSTS(STS(corpus.make_grid()), n_jobs=2)
        t0 = time.perf_counter()
        wrapper.pairwise(corpus.trajectories)
        wall = time.perf_counter() - t0
        histograms = fresh_registry.snapshot()["histograms"]
        recorded = histograms["repro_pairwise_seconds"][""]["sum"]
        assert wall - 0.1 <= recorded <= wall
        assert "repro_parallel_dispatch_seconds" not in histograms

    def test_span_tree_nests_across_process_workers(
        self, fresh_registry, fresh_tracer, corpus
    ):
        measure = STS(corpus.make_grid())
        wrapper = ParallelSTS(measure, n_jobs=2)
        wrapper.pairwise(corpus.trajectories[:4])
        # The orchestrating span is one root of the caller's trace...
        parents = [r for r in fresh_tracer.roots() if r.name == "parallel.pairwise"]
        assert len(parents) == 1
        parent = parents[0]
        # ...and each worker's chunk subtree comes home stitched under it.
        chunk_spans = [c for c in parent.children if c.name == "parallel.worker-chunk"]
        assert len(chunk_spans) == parent.attrs["chunks"]
        assert all(s.wall_s >= 0.0 for s in chunk_spans)
        assert all(
            [c.name for c in s.children] == ["parallel.chunk"] for s in chunk_spans
        )
        assert os.getpid() not in {s.attrs["worker_pid"] for s in chunk_spans}
        events = fresh_tracer.to_chrome_trace()
        assert {
            "parallel.pairwise", "parallel.worker-chunk", "parallel.chunk"
        } <= {e["name"] for e in events}
        json.dumps(events)


class TestRunnerStageTimes:
    def test_report_and_checkpoint_carry_stage_breakdown(
        self, fresh_registry, tmp_path
    ):
        from repro.checkpoint import ExperimentCheckpoint
        from repro.eval.runner import run_all_experiments

        dataset = taxi_dataset(n_trajectories=5, seed=4)
        report = run_all_experiments(
            dataset, only=["fig10"], checkpoint_dir=str(tmp_path)
        )
        assert "fig10" in report.stage_times
        stages = report.stage_times["fig10"]
        assert any(key.startswith("stp/") for key in stages)
        assert all(v > 0.0 for v in stages.values())

        checkpoint = ExperimentCheckpoint(
            str(tmp_path), {"dataset": dataset.name, "seed": 0}
        )
        assert checkpoint.load_stages("fig10") == pytest.approx(stages)

        # A resumed run reads the breakdown back from the journal.
        resumed = run_all_experiments(
            dataset, only=["fig10"], checkpoint_dir=str(tmp_path)
        )
        assert resumed.resumed == ["fig10"]
        assert resumed.stage_times["fig10"] == pytest.approx(stages)

    def test_markdown_mentions_stage_breakdown(self, fresh_registry):
        from repro.eval.runner import render_markdown, run_all_experiments

        dataset = taxi_dataset(n_trajectories=5, seed=4)
        report = run_all_experiments(dataset, only=["fig10"])
        assert "Stage breakdown:" in render_markdown(report)


class TestOverheadGuard:
    @pytest.mark.timing  # compares real wall-clock runs; irreducible
    def test_instrumentation_within_two_percent(self, corpus):
        """Instrumented pairwise within 2% of REPRO_OBS=off (min-of-N).

        Noise only inflates the ratio, so the guard takes the best of
        three measurement attempts before declaring a regression.
        """
        grid = corpus.make_grid()
        gallery = corpus.trajectories

        def run_once() -> float:
            measure = STS(grid, cache_size=None)
            start = time.perf_counter()
            measure.pairwise(gallery)
            return time.perf_counter() - start

        run_once()  # warmup

        def measure_ratio(rounds: int = 10) -> float:
            enabled_times, disabled_times = [], []
            for _ in range(rounds):
                enabled_times.append(run_once())
                previous = set_enabled(False)
                try:
                    disabled_times.append(run_once())
                finally:
                    set_enabled(previous)
            return min(enabled_times) / min(disabled_times)

        best = measure_ratio()
        for _ in range(2):
            if best <= 1.02:
                break
            best = min(best, measure_ratio())
        assert best <= 1.02, f"instrumentation overhead x{best:.4f} exceeds 2%"


class TestCliObs:
    def test_obs_demo_renders_counters(self, fresh_registry, capsys):
        from repro.cli import main

        assert main(["obs"]) == 0
        out = capsys.readouterr().out
        assert "repro_stage_seconds_total" in out
        assert "repro_ladder_rung_total" in out
        assert "repro_cache_hits_total" in out
        assert "Span flamegraph:" in out

    def test_obs_check_accepts_valid_and_rejects_invalid(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.prom"
        good.write_text('# TYPE x_total counter\nx_total{a="b"} 1\n')
        assert main(["obs", "--check", str(good)]) == 0
        assert "OK" in capsys.readouterr().out

        bad = tmp_path / "bad.prom"
        bad.write_text("!!! not prometheus\n")
        assert main(["obs", "--check", str(bad)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_obs_input_pretty_prints(self, tmp_path, capsys):
        from repro.cli import main

        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps({"counters": {"x_total": {"": 2.0}}}))
        assert main(["obs", "--input", str(snap)]) == 0
        assert "x_total" in capsys.readouterr().out

    def test_metrics_out_on_any_subcommand(self, fresh_registry, tmp_path, capsys):
        from repro.cli import main

        out_json = tmp_path / "metrics.json"
        assert main(["list-measures", "--metrics-out", str(out_json)]) == 0
        assert json.loads(out_json.read_text()).keys() == {
            "counters", "gauges", "histograms"
        }

        out_prom = tmp_path / "metrics.prom"
        assert main(["obs", "--format", "flame", "--metrics-out", str(out_prom)]) == 0
        from repro.obs import validate_prometheus_text

        assert validate_prometheus_text(out_prom.read_text()) == []


class TestBenchHistory:
    def test_write_report_appends_bounded_history(self, tmp_path, monkeypatch):
        import importlib.util
        import sys
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        spec = importlib.util.spec_from_file_location(
            "jsonbench_under_test", bench_dir / "jsonbench.py"
        )
        jsonbench = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = jsonbench
        spec.loader.exec_module(jsonbench)
        monkeypatch.setattr(jsonbench, "REPO_ROOT", tmp_path)

        payload = {"configs": {"fast": {"mean_s": 0.5, "p50_s": 0.5}}}
        path = jsonbench.write_report("BENCH_x.json", dict(payload))
        first = json.loads(path.read_text())
        assert len(first["history"]) == 1
        record = first["history"][0]
        assert set(record) == {"git_sha", "timestamp_utc", "mean_s"}
        assert record["mean_s"] == {"fast": 0.5}
        assert record["timestamp_utc"].startswith("20")

        for _ in range(jsonbench.HISTORY_LIMIT + 5):
            jsonbench.write_report("BENCH_x.json", dict(payload))
        final = json.loads(path.read_text())
        assert len(final["history"]) == jsonbench.HISTORY_LIMIT

    def test_corrupt_existing_file_does_not_break_write(self, tmp_path, monkeypatch):
        import importlib.util
        import sys
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        spec = importlib.util.spec_from_file_location(
            "jsonbench_under_test2", bench_dir / "jsonbench.py"
        )
        jsonbench = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = jsonbench
        spec.loader.exec_module(jsonbench)
        monkeypatch.setattr(jsonbench, "REPO_ROOT", tmp_path)

        (tmp_path / "BENCH_y.json").write_text("{ torn")
        path = jsonbench.write_report("BENCH_y.json", {"configs": {}})
        assert len(json.loads(path.read_text())["history"]) == 1

    def test_uncommitted_tree_is_not_credited_to_head(self, tmp_path, monkeypatch):
        import importlib.util
        import subprocess
        import sys
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        spec = importlib.util.spec_from_file_location(
            "jsonbench_under_test3", bench_dir / "jsonbench.py"
        )
        jsonbench = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = jsonbench
        spec.loader.exec_module(jsonbench)
        monkeypatch.setattr(jsonbench, "REPO_ROOT", tmp_path)

        def git(*args: str) -> str:
            identity = ["-c", "user.name=bench", "-c", "user.email=bench@example.com"]
            command = ["git", "-C", str(tmp_path), *identity, "-c", "commit.gpgsign=false"]
            done = subprocess.run([*command, *args], capture_output=True, text=True, check=True)
            return done.stdout.strip()

        git("init", "-q")
        (tmp_path / "code.py").write_text("x = 1\n")
        git("add", "code.py")
        git("commit", "-q", "-m", "code")
        sha = git("rev-parse", "HEAD")
        path = jsonbench.write_report("BENCH_z.json", {"configs": {}})
        assert json.loads(path.read_text())["history"][-1]["git_sha"] == sha

        (tmp_path / "code.py").write_text("x = 2\n")
        path = jsonbench.write_report("BENCH_z.json", {"configs": {}})
        shas = [record["git_sha"] for record in json.loads(path.read_text())["history"]]
        assert shas == [sha, f"{sha}-dirty"]


class TestPickleRoundTrips:
    def test_sts_pickles_without_registry_state(self, fresh_registry, corpus):
        import pickle

        measure = STS(corpus.make_grid())
        a, b = corpus.trajectories[:2]
        expected = measure.similarity(a, b)
        clone = pickle.loads(pickle.dumps(measure))
        assert clone.similarity(a, b) == pytest.approx(expected)
