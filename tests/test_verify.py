"""Tests for the differential verification subsystem (repro.verify)."""

import json

import numpy as np
import pytest

from repro import cli
from repro.verify import (
    ORACLE_ATOL,
    PATHS,
    RELATIONS,
    OracleSTS,
    PathSpec,
    run_relations,
    run_verification,
    ulp_distance,
    verification_corpus,
)
from repro.verify.diffrunner import BASELINE_PATH


@pytest.fixture(scope="module")
def corpus():
    return verification_corpus()


@pytest.fixture(scope="module")
def serial_matrix(corpus):
    measure = corpus.measure()
    out = np.zeros((len(corpus.queries), len(corpus.gallery)))
    for i, q in enumerate(corpus.queries):
        for j, g in enumerate(corpus.gallery):
            out[i, j] = measure.similarity(q, g)
    return out


class TestCorpus:
    def test_deterministic_across_builds(self, corpus):
        again = verification_corpus()
        assert corpus.fingerprint() == again.fingerprint()
        for a, b in zip(corpus.gallery + corpus.queries,
                        again.gallery + again.queries):
            np.testing.assert_array_equal(a.xy, b.xy)
            np.testing.assert_array_equal(a.timestamps, b.timestamps)

    def test_seed_changes_fingerprint(self, corpus):
        assert corpus.fingerprint() != verification_corpus(seed=8).fingerprint()

    def test_comover_pair_shares_exact_timestamps(self, corpus):
        walker_a, walker_b = corpus.gallery[0], corpus.gallery[1]
        np.testing.assert_array_equal(walker_a.timestamps, walker_b.timestamps)

    def test_late_is_temporally_disjoint(self, corpus):
        late = next(t for t in corpus.gallery if t.object_id == "late")
        for other in corpus.gallery + corpus.queries:
            if other.object_id == "late":
                continue
            assert (late.start_time > other.end_time
                    or late.end_time < other.start_time)

    def test_fresh_measure_per_call(self, corpus):
        assert corpus.measure() is not corpus.measure()


class TestOracle:
    def test_matches_production_within_documented_tolerance(
            self, corpus, serial_matrix):
        oracle = OracleSTS(corpus.grid, corpus.sigma)
        got = oracle.pairwise(corpus.gallery, corpus.queries)
        assert np.abs(got - serial_matrix).max() <= ORACLE_ATOL

    def test_stp_is_a_distribution_inside_span(self, corpus):
        oracle = OracleSTS(corpus.grid, corpus.sigma)
        tra = corpus.gallery[0]
        for t in (tra.timestamps[0], 0.5 * (tra.timestamps[0] + tra.timestamps[1])):
            vec = oracle.stp(tra, float(t))
            assert vec.min() >= 0.0
            assert vec.sum() == pytest.approx(1.0, abs=1e-12)

    def test_stp_observation_branch_is_the_noise_distribution(self, corpus):
        oracle = OracleSTS(corpus.grid, corpus.sigma)
        tra = corpus.gallery[0]
        point = tra[0]
        np.testing.assert_array_equal(
            oracle.stp(tra, float(point.t)),
            oracle.noise_distribution(point.x, point.y))

    def test_stp_zero_outside_span(self, corpus):
        oracle = OracleSTS(corpus.grid, corpus.sigma)
        tra = corpus.gallery[0]
        assert not oracle.stp(tra, tra.start_time - 1.0).any()
        assert not oracle.stp(tra, tra.end_time + 1.0).any()

    def test_disjoint_spans_score_exactly_zero(self, corpus):
        oracle = OracleSTS(corpus.grid, corpus.sigma)
        late = next(t for t in corpus.gallery if t.object_id == "late")
        assert oracle.similarity(late, corpus.gallery[0]) == 0.0

    def test_symmetric(self, corpus):
        oracle = OracleSTS(corpus.grid, corpus.sigma)
        a, b = corpus.gallery[0], corpus.queries[0]
        assert oracle.similarity(a, b) == pytest.approx(
            oracle.similarity(b, a), rel=1e-12)

    def test_rejects_bad_sigma(self, corpus):
        with pytest.raises(ValueError):
            OracleSTS(corpus.grid, sigma=0.0)


class TestUlpDistance:
    def test_identical_arrays_are_zero(self):
        a = np.array([0.1, -2.5, 0.0])
        assert ulp_distance(a, a.copy()) == 0

    def test_negative_and_positive_zero_coincide(self):
        assert ulp_distance(np.array([0.0]), np.array([-0.0])) == 0

    def test_adjacent_doubles_are_one_ulp(self):
        a = np.array([1.0])
        b = np.nextafter(a, 2.0)
        assert ulp_distance(a, b) == 1

    def test_counts_across_the_sign_boundary(self):
        tiny = np.nextafter(np.array([0.0]), 1.0)
        neg_tiny = -tiny
        assert ulp_distance(tiny, neg_tiny) == 2


class TestRelations:
    def test_all_relations_pass_on_committed_corpus(self, corpus):
        results = run_relations(corpus)
        failed = [r for r in results if not r.passed]
        assert failed == []
        # every catalogue entry actually contributed checks
        assert {r.relation for r in results} == set(RELATIONS)

    def test_unknown_relation_name_raises(self, corpus):
        with pytest.raises(ValueError, match="no-such-relation"):
            run_relations(corpus, names=["no-such-relation"])

    def test_subset_selection(self, corpus):
        results = run_relations(corpus, names=["zero_overlap"])
        assert results
        assert {r.relation for r in results} == {"zero_overlap"}


class TestDiffRunner:
    # In-process paths only: the process and cluster paths are
    # exercised by `repro verify` itself (run in the CI verify job).
    LIGHT_PATHS = ["batch", "anytime", "oracle"]

    def test_light_paths_pass_bitwise(self, corpus):
        report = run_verification(paths=self.LIGHT_PATHS, relations=[],
                                  corpus=corpus)
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        for name in ("batch", "anytime"):
            assert by_name[name].max_ulp == 0
            assert by_name[name].tolerance is None
        assert by_name["oracle"].max_abs_diff <= ORACLE_ATOL

    def test_unknown_path_name_raises(self, corpus):
        with pytest.raises(ValueError, match="no-such-path"):
            run_verification(paths=["no-such-path"], relations=[],
                             corpus=corpus)

    def test_detects_a_diverging_path(self, corpus, monkeypatch):
        def broken(c):
            out = PATHS[BASELINE_PATH].run(c)
            out[0, 0] += 1e-9
            return out

        monkeypatch.setitem(
            PATHS, "batch",
            PathSpec("batch", "deliberately broken", broken))
        report = run_verification(paths=["batch"], relations=[],
                                  corpus=corpus)
        assert not report.passed
        (check,) = report.checks
        assert check.max_ulp > 0
        assert "ulp" in check.detail

    def test_detects_a_crashing_path(self, corpus, monkeypatch):
        def crash(c):
            raise RuntimeError("worker exploded")

        monkeypatch.setitem(
            PATHS, "batch", PathSpec("batch", "crashes", crash))
        report = run_verification(paths=["batch"], relations=[],
                                  corpus=corpus)
        assert not report.passed
        assert "worker exploded" in report.checks[0].detail

    def test_nan_cells_fail_even_within_tolerance(self, corpus, monkeypatch):
        def nan_path(c):
            out = PATHS[BASELINE_PATH].run(c)
            out[0, 0] = np.nan
            return out

        monkeypatch.setitem(
            PATHS, "batch",
            PathSpec("batch", "NaN cell", nan_path, tolerance=1.0))
        report = run_verification(paths=["batch"], relations=[],
                                  corpus=corpus)
        assert not report.passed
        assert "non-finite" in report.checks[0].detail

    def test_counters_record_outcomes(self, corpus):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        run_verification(paths=["batch"], relations=["zero_overlap"],
                         corpus=corpus, registry=registry)
        series = registry.snapshot()["counters"]["repro_verify_checks_total"]
        assert series  # both the path check and the relation checks landed
        assert any('path="batch"' in labels and 'relation="equivalence"' in labels
                   for labels in series)
        assert any('relation="zero_overlap"' in labels for labels in series)
        for labels, value in series.items():
            assert 'outcome="pass"' in labels
            assert value >= 1


class TestReport:
    def test_json_roundtrip(self, corpus):
        # stp_norm included deliberately: its drift values come out of
        # numpy, and the report must still serialize (plain JSON types).
        report = run_verification(paths=["batch"],
                                  relations=["zero_overlap", "stp_norm"],
                                  corpus=corpus)
        payload = json.loads(report.to_json())
        assert payload["passed"] is True
        assert payload["corpus"]["fingerprint"] == corpus.fingerprint()
        assert payload["n_checks"] == len(report.checks)
        kinds = {c["kind"] for c in payload["checks"]}
        assert kinds == {"path", "relation"}

    def test_markdown_mentions_paths_and_verdict(self, corpus):
        report = run_verification(paths=["batch"], relations=["zero_overlap"],
                                  corpus=corpus)
        text = report.to_markdown()
        assert "**PASS**" in text
        assert "| batch |" in text
        assert "zero_overlap" in text


class TestCli:
    ARGS = ["verify", "--paths", "batch", "--relations", "zero_overlap"]

    def test_exit_zero_and_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(self.ARGS + ["--report-out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert "**PASS**" in capsys.readouterr().out

    def test_markdown_report_file(self, tmp_path):
        out = tmp_path / "report.md"
        assert cli.main(self.ARGS + ["--report-out", str(out)]) == 0
        assert "# Differential verification report" in out.read_text()

    def test_exit_nonzero_on_violation(self, monkeypatch, capsys):
        def broken(c):
            out = PATHS[BASELINE_PATH].run(c)
            out[:] += 1e-9
            return out

        monkeypatch.setitem(
            PATHS, "batch", PathSpec("batch", "broken", broken))
        assert cli.main(self.ARGS) == 1
        assert "**FAIL**" in capsys.readouterr().out

    def test_unknown_name_exits_two(self, capsys):
        assert cli.main(["verify", "--paths", "nope"]) == 2
        assert "unknown path" in capsys.readouterr().err

    def test_list(self, capsys):
        assert cli.main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        assert "cluster-2x2" in out
        assert "anytime_bounds" in out
