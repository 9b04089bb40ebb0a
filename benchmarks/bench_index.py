"""Filter-and-refine effectiveness: how much gallery work the filters save.

Not a paper figure — the engineering complement to Section V-C: the STS
measure is expensive per pair, so candidate filtering determines whether a
deployment scales.  Measures (a) exhaustive scan vs (b) filtered query
latency on the taxi gallery (time overlap, then the query's 3-cell-dilated
cell signature), and asserts the filters lose no true match.
"""

import numpy as np
import pytest

from repro.core.noise import GaussianNoiseModel
from repro.core.sts import STS
from repro.eval import build_matching_pair, grid_covering
from repro.index import FilteredMatcher


@pytest.fixture(scope="module")
def linking_setup(request):
    dataset = request.getfixturevalue("bench_taxi")
    queries, gallery = build_matching_pair(dataset.trajectories)
    corpus = queries + gallery
    grid = grid_covering(corpus, dataset.cell_size, dataset.margin)
    measure = STS(grid, noise_model=GaussianNoiseModel(dataset.location_error))
    matcher = FilteredMatcher(measure, grid=grid, spatial_slack=None, signature_dilation=3)
    return queries, gallery, measure, matcher


def exhaustive_best(measure, query, gallery) -> int:
    scores = [measure.score(query, g) for g in gallery]
    return int(np.argmax(scores))


def test_exhaustive_scan(benchmark, linking_setup):
    queries, gallery, measure, _ = linking_setup
    query = queries[0]
    best = benchmark.pedantic(
        exhaustive_best, args=(measure, query, gallery), rounds=2, iterations=1
    )
    assert 0 <= best < len(gallery)


def test_filtered_query(benchmark, linking_setup):
    queries, gallery, _, matcher = linking_setup
    query = queries[0]

    def filtered_best():
        matches = matcher.query(query, gallery, k=1).matches
        return matches[0].index if matches else -1

    best = benchmark.pedantic(filtered_best, rounds=2, iterations=1)
    assert best == 0  # the true counterpart

    # Coverage: across all queries, the filters never drop the true match,
    # and discard a substantial share of candidates.
    scored = 0
    for qid, q in enumerate(queries):
        candidates = matcher.candidates(q, gallery)
        assert qid in candidates, f"filters dropped the true match of query {qid}"
        scored += len(candidates)
    filter_rate = 1.0 - scored / (len(queries) * len(gallery))
    assert filter_rate > 0.2, f"filters discarded only {filter_rate:.0%}"
