"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_matching_defaults(self):
        args = build_parser().parse_args(["matching"])
        assert args.dataset == "taxi"
        assert args.size == 30
        assert args.seed == 0

    def test_experiment_figure_choices(self):
        args = build_parser().parse_args(["experiment", "fig10", "--dataset", "mall"])
        assert args.figure == "fig10"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])


class TestCommands:
    def test_list_measures(self, capsys):
        assert main(["list-measures"]) == 0
        out = capsys.readouterr().out
        for name in ["dtw", "cats", "edwp", "sst", "wgm"]:
            assert name in out

    def test_generate_writes_csv(self, tmp_path, capsys):
        out_file = tmp_path / "corpus.csv"
        code = main(
            ["generate", "--dataset", "taxi", "--size", "2", "--seed", "1", "--out", str(out_file)]
        )
        assert code == 0
        assert out_file.exists()
        from repro.datasets import load_trajectories_csv

        assert len(load_trajectories_csv(out_file)) == 2

    def test_matching_subset(self, capsys):
        code = main(
            ["matching", "--dataset", "taxi", "--size", "4", "--seed", "2", "--methods", "WGM", "SST"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "WGM" in out and "SST" in out and "precision" in out

    def test_experiment_fig10_mall(self, capsys):
        code = main(["experiment", "fig10", "--dataset", "mall", "--size", "4", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "STS-N" in out and "STS-F" in out

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        code = main(
            [
                "report",
                "--dataset",
                "taxi",
                "--size",
                "4",
                "--seed",
                "2",
                "--only",
                "fig10",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        assert "component ablation" in out_file.read_text()

    def test_link_command(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        main(["generate", "--dataset", "taxi", "--size", "3", "--seed", "5", "--out", str(corpus)])
        capsys.readouterr()
        code = main(
            [
                "link",
                "--queries",
                str(corpus),
                "--gallery",
                str(corpus),
                "--cell",
                "100",
                "--sigma",
                "10",
                "--top",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # every query's best match is itself
        for line in out.strip().splitlines():
            query_id = line.split(":")[0]
            assert f"{query_id}: {query_id}" in line

    def test_link_command_cluster_matches_in_process(self, tmp_path, capfd):
        # Shard workers are forked children: capfd sees what they write to
        # the inherited descriptors, and stdout must hold only the matches.
        corpus = tmp_path / "corpus.csv"
        main(["generate", "--dataset", "taxi", "--size", "3", "--seed", "5", "--out", str(corpus)])
        link = ["link", "--queries", str(corpus), "--gallery", str(corpus),
                "--cell", "100", "--sigma", "10", "--top", "2"]
        capfd.readouterr()
        assert main(link) == 0
        in_process = capfd.readouterr().out
        assert main(link + ["--cluster-shards", "2", "--cluster-replicas", "1"]) == 0
        clustered = capfd.readouterr().out
        assert len(in_process.strip().splitlines()) == 3
        assert clustered == in_process

    def test_events_command(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        main(["generate", "--dataset", "mall", "--size", "2", "--seed", "5", "--out", str(corpus)])
        capsys.readouterr()
        code = main(
            [
                "events",
                "--corpus",
                str(corpus),
                "--a",
                "visitor-0000",
                "--b",
                "visitor-0001",
                "--cell",
                "3",
                "--sigma",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "STS(visitor-0000, visitor-0001)" in out

    def test_groups_command(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        main(["generate", "--dataset", "mall", "--size", "3", "--seed", "5", "--out", str(corpus)])
        capsys.readouterr()
        code = main(
            ["groups", "--corpus", str(corpus), "--cell", "3", "--sigma", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trajectories" in out and "threshold" in out

    def test_groups_needs_two(self, tmp_path, capsys):
        corpus = tmp_path / "one.csv"
        main(["generate", "--dataset", "mall", "--size", "1", "--seed", "5", "--out", str(corpus)])
        with pytest.raises(SystemExit, match="two"):
            main(["groups", "--corpus", str(corpus), "--cell", "3", "--sigma", "3"])

    def test_events_unknown_object(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        main(["generate", "--dataset", "mall", "--size", "2", "--seed", "5", "--out", str(corpus)])
        with pytest.raises(SystemExit, match="not in corpus"):
            main(
                [
                    "events",
                    "--corpus",
                    str(corpus),
                    "--a",
                    "nobody",
                    "--b",
                    "visitor-0001",
                    "--cell",
                    "3",
                    "--sigma",
                    "3",
                ]
            )


class TestStreamCommand:
    @staticmethod
    def write_sightings(path, n=40, seed=7):
        import csv

        import numpy as np

        rng = np.random.default_rng(seed)
        t = 0.0
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["object_id", "x", "y", "t"])
            for _ in range(n):
                t += float(rng.exponential(2.0))
                writer.writerow(
                    [
                        f"dev-{int(rng.integers(0, 3))}",
                        float(rng.uniform(0, 40)),
                        float(rng.uniform(0, 20)),
                        t,
                    ]
                )

    def test_stream_without_wal(self, tmp_path, capsys):
        corpus = tmp_path / "sightings.csv"
        self.write_sightings(corpus)
        code = main(
            [
                "stream", "--corpus", str(corpus), "--cell", "2", "--sigma",
                "2", "--window", "60", "--on-error", "skip",
            ]
        )
        assert code == 0
        assert "streamed 40 sighting(s)" in capsys.readouterr().out

    def test_stream_with_wal_then_resume(self, tmp_path, capsys):
        corpus = tmp_path / "sightings.csv"
        self.write_sightings(corpus)
        wal_dir = tmp_path / "wal"
        base = [
            "stream", "--corpus", str(corpus), "--cell", "2", "--sigma", "2",
            "--window", "60", "--on-error", "skip", "--wal-dir", str(wal_dir),
            "--snapshot-every", "16",
        ]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert (wal_dir / "wal-meta.json").exists()
        # Resume replays nothing new (every event is already ingested)
        # and reproduces the identical ranking.
        assert main(base + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "recovered from" in captured.err
        assert "streamed 0 sighting(s)" in captured.out
        assert captured.out.splitlines()[1:] == first.splitlines()[1:]

    def test_stream_resume_after_crash_before_drain(self, tmp_path, capsys):
        """A crash while sightings are still queued must not re-offer them.

        The WAL journals ``offer`` commands before ``drain`` applies any,
        so a kill in that window recovers a detector whose stream time is
        still behind the queued events.  Resume has to skip past the
        *queued* high-water mark, or it would offer the same timestamps
        twice and trip the duplicate policy."""
        import csv

        from repro import Grid
        from repro.core.noise import GaussianNoiseModel
        from repro.streaming import SightingEvent, StreamingColocationDetector
        from repro.streaming_wal import StreamingWAL

        corpus = tmp_path / "sightings.csv"
        self.write_sightings(corpus)
        with open(corpus, newline="") as handle:
            events = [
                SightingEvent(r["object_id"], float(r["x"]), float(r["y"]), float(r["t"]))
                for r in csv.DictReader(handle)
            ]
        wal_dir = tmp_path / "wal"
        detector = StreamingColocationDetector(
            Grid(0, 0, 40, 20, cell_size=2.0),
            window=60.0,
            noise_model=GaussianNoiseModel(2.0),
            on_error="skip",
            wal=StreamingWAL(wal_dir, snapshot_every=None),
        )
        for event in events[:25]:
            detector.offer(event)  # journaled + durable, never drained
        del detector  # crash: no drain, no snapshot, no close
        code = main(
            [
                "stream", "--corpus", str(corpus), "--cell", "2", "--sigma",
                "2", "--window", "60", "--on-error", "skip", "--wal-dir",
                str(wal_dir), "--resume",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "recovered from" in captured.err
        # Only the 15 never-offered events stream; the 25 queued ones are
        # recognized as already journaled.
        assert "streamed 15 sighting(s)" in captured.out
        assert "dropped 0 malformed / 0 duplicate" in captured.out

    def test_stream_resume_requires_wal_dir(self, tmp_path):
        corpus = tmp_path / "sightings.csv"
        self.write_sightings(corpus, n=5)
        with pytest.raises(SystemExit, match="--resume requires --wal-dir"):
            main(
                [
                    "stream", "--corpus", str(corpus), "--cell", "2",
                    "--sigma", "2", "--resume",
                ]
            )
